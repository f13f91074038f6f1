(* manetcheck CLI, run from the repository root:

     main.exe [--write-baseline] [--json FILE]

   Analyzes lib/, bin/ and test/ with bench/, examples/, layerbench/
   and tools/ as use-sites and test/ as the test roots (a lib value
   only they reference is a test-only export), against the roster
   tools/manetcheck/hotpaths.sexp.  Exits 1 on any finding not pinned
   in tools/manetcheck/baseline and on any pinned key that no longer
   fires, so a fixed finding leaves the baseline in the same commit.
   --json writes every finding, pinned or not, for the CI artifact. *)

module C = Analyzer_common.Common

let baseline_path = "tools/manetcheck/baseline"
let roster_path = "tools/manetcheck/hotpaths.sexp"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rec walk acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.filter (fun n -> n <> "_build" && n.[0] <> '.')
    |> List.fold_left (fun acc n -> walk acc (Filename.concat path n)) acc
  else if
    Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

let gather roots =
  List.filter Sys.file_exists roots
  |> List.fold_left walk [] |> List.sort compare
  |> List.map (fun p -> (p, read_file p))

let write path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let () =
  let write_baseline = ref false and json = ref None in
  Arg.parse
    [
      ("--write-baseline", Arg.Set write_baseline, " pin every finding");
      ( "--json",
        Arg.String (fun p -> json := Some p),
        "FILE write findings as JSON" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--write-baseline] [--json FILE]";
  let findings =
    Manetcheck.Check.analyze
      ~uses:(gather [ "bench"; "examples"; "layerbench"; "tools" ])
      ~tests:(gather [ "test" ])
      ~roster:(roster_path, read_file roster_path)
      (gather [ "lib"; "bin" ])
  in
  if !write_baseline then begin
    write baseline_path (C.render_baseline findings);
    Printf.printf "manetcheck: wrote %d baseline entries to %s\n"
      (List.length findings) baseline_path
  end
  else begin
    let baseline = C.parse_baseline (read_file baseline_path) in
    Option.iter (fun p -> write p (C.to_json ~baseline findings)) !json;
    let fresh, stale = C.diff_baseline ~baseline findings in
    List.iter (fun f -> Format.printf "%a@." C.pp_finding f) fresh;
    List.iter
      (Printf.printf
         "%s: stale baseline entry (no longer fires); remove it or rerun \
          --write-baseline\n")
      stale;
    if fresh <> [] || stale <> [] then begin
      Printf.printf "manetcheck: %d new finding(s), %d stale baseline entr%s\n"
        (List.length fresh) (List.length stale)
        (if List.length stale = 1 then "y" else "ies");
      exit 1
    end
  end
