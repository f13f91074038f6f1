(* benchgate — the perf regression gate.

   Usage: main.exe PREV.json CUR.json [--threshold 0.2] [--strict]

   Compares two manetsim-bench snapshots (bench/perf_bench.ml): the
   fresh one must not lose more than THRESHOLD of the committed
   baseline's events_per_sec, and no shared hot-path ns/op may grow by
   more than THRESHOLD.  When the two snapshots come from machines with
   different core counts the numbers are not comparable, so the gate
   reports informationally and exits 0 unless --strict is given. *)

module Json = Manet_obs.Json

let usage () =
  prerr_endline
    "usage: benchgate PREV.json CUR.json [--threshold FRACTION] [--strict]";
  exit 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("benchgate: " ^ m); exit 2) fmt

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

let float_field path doc name =
  match Json.member name doc |> Option.map Json.to_float_opt with
  | Some (Some f) -> f
  | _ -> die "%s: missing numeric field %s" path name

let int_field path doc name =
  match Json.member name doc |> Option.map Json.to_int_opt with
  | Some (Some i) -> i
  | _ -> die "%s: missing integer field %s" path name

(* The 4-domain sweep speedup, shown but never gated: JSON null means
   the host had fewer than 4 cores, so it was not measurable. *)
let speedup_4 path doc =
  match Option.bind (Json.member "sweep" doc) (Json.member "speedup_4") with
  | None -> "-"
  | Some Json.Null -> "n/a"
  | Some v -> (
      match Json.to_float_opt v with
      | Some f -> Printf.sprintf "%.2fx" f
      | None -> die "%s: sweep.speedup_4 is neither a number nor null" path)

let hot_paths path doc =
  match Json.member "hot_paths" doc with
  | Some (Json.Obj fields) ->
      List.filter_map
        (fun (name, v) ->
          Option.map (fun f -> (name, f)) (Json.to_float_opt v))
        fields
  | _ -> die "%s: missing hot_paths object" path

let () =
  let threshold = ref 0.2 in
  let strict = ref false in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--strict" :: rest ->
        strict := true;
        parse_args rest
    | "--threshold" :: v :: rest -> (
        match float_of_string_opt v with
        | Some f when f > 0.0 && f < 1.0 ->
            threshold := f;
            parse_args rest
        | _ -> die "--threshold wants a fraction in (0, 1), got %s" v)
    | arg :: rest when String.length arg > 0 && arg.[0] <> '-' ->
        files := arg :: !files;
        parse_args rest
    | arg :: _ -> die "unknown option %s" arg
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let prev_path, cur_path =
    match List.rev !files with [ a; b ] -> (a, b) | _ -> usage ()
  in
  let prev = load prev_path and cur = load cur_path in
  let prev_cores = int_field prev_path prev "host_cores"
  and cur_cores = int_field cur_path cur "host_cores" in
  let comparable = prev_cores = cur_cores in
  let regressions = ref [] in
  let check name ~prev_v ~cur_v ~worse_when_lower =
    let ratio =
      if worse_when_lower then 1.0 -. (cur_v /. prev_v)
      else (cur_v /. prev_v) -. 1.0
    in
    let verdict =
      if ratio > !threshold then (
        regressions := name :: !regressions;
        "REGRESSION")
      else "ok"
    in
    Printf.printf "%-22s prev %14.2f  cur %14.2f  %+6.1f%%  %s\n" name prev_v
      cur_v
      ((cur_v /. prev_v -. 1.0) *. 100.0)
      verdict
  in
  Printf.printf "benchgate: %s (pr %d, %d core(s)) vs %s (pr %d, %d core(s))\n"
    prev_path (int_field prev_path prev "pr") prev_cores cur_path
    (int_field cur_path cur "pr") cur_cores;
  check "events_per_sec"
    ~prev_v:(float_field prev_path prev "events_per_sec")
    ~cur_v:(float_field cur_path cur "events_per_sec")
    ~worse_when_lower:true;
  let prev_hot = hot_paths prev_path prev and cur_hot = hot_paths cur_path cur in
  List.iter
    (fun (name, prev_v) ->
      match List.assoc_opt name cur_hot with
      | Some cur_v -> check name ~prev_v ~cur_v ~worse_when_lower:false
      | None -> Printf.printf "%-22s dropped from current snapshot\n" name)
    prev_hot;
  Printf.printf "%-22s prev %14s  cur %14s  (not gated)\n" "speedup_4"
    (speedup_4 prev_path prev) (speedup_4 cur_path cur);
  match (!regressions, comparable, !strict) with
  | [], _, _ ->
      Printf.printf "benchgate: ok (threshold %.0f%%)\n" (!threshold *. 100.0)
  | rs, false, false ->
      Printf.printf
        "benchgate: %d regression(s) IGNORED: host core counts differ (%d vs \
         %d); rerun on the reference machine or pass --strict\n"
        (List.length rs) prev_cores cur_cores
  | rs, _, _ ->
      Printf.printf "benchgate: %d regression(s) beyond %.0f%%: %s\n"
        (List.length rs)
        (!threshold *. 100.0)
        (String.concat ", " (List.rev rs));
      exit 1
