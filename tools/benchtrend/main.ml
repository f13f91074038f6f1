(* benchtrend — render the perf trajectory across committed bench
   snapshots.

   Usage: main.exe [--csv] BENCH_A.json BENCH_B.json ...

   Reads any number of manetsim-bench snapshots (bench/perf_bench.ml,
   one per PR) and renders them oldest-first as a text table — or as
   CSV with --csv, for spreadsheets and CI artifacts.  Fields missing
   from older snapshots (the observability fields appear from PR 8 on)
   render as "-" / empty, so the tool keeps working across the whole
   history. *)

module Json = Manet_obs.Json

let usage () =
  prerr_endline "usage: benchtrend [--csv] BENCH_A.json BENCH_B.json ...";
  exit 2

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("benchtrend: " ^ m); exit 2) fmt

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | text -> (
      match Json.parse text with
      | exception Json.Parse_error e -> die "%s: %s" path e
      | doc ->
          (match Json.member "schema" doc |> Option.map Json.to_string_opt with
          | Some (Some "manetsim-bench") -> ()
          | _ -> die "%s: not a manetsim-bench snapshot" path);
          doc)

let fopt doc name = Option.bind (Json.member name doc) Json.to_float_opt
let iopt doc name = Option.bind (Json.member name doc) Json.to_int_opt

let hot doc name =
  match Json.member "hot_paths" doc with
  | Some h -> Option.bind (Json.member name h) Json.to_float_opt
  | None -> None

(* The 4-domain sweep speedup.  JSON null (a host with fewer than 4
   cores) is carried as nan and rendered "n/a"; a snapshot without the
   field renders as missing. *)
let speedup_4 doc =
  match Option.bind (Json.member "sweep" doc) (Json.member "speedup_4") with
  | Some Json.Null -> Some Float.nan
  | Some v -> Json.to_float_opt v
  | None -> None

(* One row per snapshot: (label, value-extractor, CSV formatter, text
   formatter).  Formatters must agree on units so the trend reads off
   either form. *)
let columns =
  [
    ("pr", fun d -> Option.map float_of_int (iopt d "pr"));
    ("host_cores", fun d -> Option.map float_of_int (iopt d "host_cores"));
    ("events_per_sec", fun d -> fopt d "events_per_sec");
    ("peak_heap_words", fun d -> fopt d "peak_heap_words");
    ("sha256_1k_ns", fun d -> hot d "sha256_1k_ns");
    ("rsa512_verify_ns", fun d -> hot d "rsa512_verify_ns");
    (* heap_push_pop_ns timed the allocating pop of the pre-PR-9 heap;
       heap_cycle_ns is its successor on the SoA heap (push / min_snd /
       drop_min).  Both stay as columns so the whole history renders. *)
    ("heap_push_pop_ns", fun d -> hot d "heap_push_pop_ns");
    ("heap_cycle_ns", fun d -> hot d "heap_cycle_ns");
    ("neighbour_scan_mean", fun d -> fopt d "neighbour_scan_mean");
    (* The flood-provenance fields appear from PR 10 on. *)
    ("neighbour_scan_p99", fun d -> fopt d "neighbour_scan_p99");
    ("gc_minor_words_per_event", fun d -> fopt d "gc_minor_words_per_event");
    ( "rsa_verifies_per_delivered_msg",
      fun d -> fopt d "rsa_verifies_per_delivered_msg" );
    ( "duplicate_verifies_per_flood",
      fun d -> fopt d "duplicate_verifies_per_flood" );
    ("flood_redundancy_ratio", fun d -> fopt d "flood_redundancy_ratio");
    ("speedup_4", speedup_4);
  ]

let render_value = function
  | None -> "-"
  | Some f when Float.is_nan f -> "n/a"
  | Some f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%.3f" f

let csv_value = function
  | None -> ""
  | Some f when Float.is_nan f -> "n/a"
  | Some f -> Printf.sprintf "%.6g" f

let () =
  let csv = ref false in
  let files = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--csv" -> csv := true
        | "--help" | "-h" -> usage ()
        | _ when String.length arg > 0 && arg.[0] = '-' ->
            die "unknown option %s" arg
        | _ -> files := arg :: !files)
    Sys.argv;
  let files = List.rev !files in
  if files = [] then usage ();
  let docs = List.map (fun p -> (p, load p)) files in
  (* Oldest first, by the snapshot's own pr number. *)
  let docs =
    List.stable_sort
      (fun (_, a) (_, b) ->
        compare (iopt a "pr") (iopt b "pr"))
      docs
  in
  if !csv then begin
    print_endline (String.concat "," ("file" :: List.map fst columns));
    List.iter
      (fun (path, d) ->
        print_endline
          (String.concat ","
             (path :: List.map (fun (_, get) -> csv_value (get d)) columns)))
      docs
  end
  else begin
    Printf.printf "%-30s" "metric";
    List.iter (fun (path, _) -> Printf.printf " %14s" (Filename.basename path)) docs;
    print_newline ();
    List.iter
      (fun (label, get) ->
        Printf.printf "%-30s" label;
        List.iter (fun (_, d) -> Printf.printf " %14s" (render_value (get d))) docs;
        print_newline ())
      columns
  end
