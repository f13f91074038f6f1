(* The layer-attributed benchmark.  Run it through run.sh, from the root
   of a checkout:

     bash layerbench/run.sh --workload W --seed N --seconds S --trace 0|1
         one workload for about S seconds; the last line of standard
         output is the JSON result (end-to-end metrics with --trace 0,
         per-layer metrics with --trace 1), tables go to standard error
     bash layerbench/run.sh benchmark --seed N
         every workload, 7 repetitions each interleaved round-robin,
         then one traced repetition each; writes
         layerbench/out/results-N.json and layerbench/out/trace-N.json
     bash layerbench/run.sh benchmark-compare A.json B.json
         classifies every (workload, end-to-end metric) of B against A

   Every repetition runs in a fresh child process ([rep] below), one at
   a time. *)

module Json = Manetsec.Obs_json
module W = Workloads

let out_dir = "layerbench/out"
let now = Unix.gettimeofday

let arg args key =
  let rec go = function
    | k :: v :: _ when k = "--" ^ key -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("layerbench: " ^ msg); exit 2) fmt

let required args key =
  match arg args key with Some v -> v | None -> die "missing --%s" key

let int_arg args key =
  match int_of_string_opt (required args key) with
  | Some n -> n
  | None -> die "--%s wants an integer" key

let workload_arg args =
  let name = required args "workload" in
  match W.find name with Some w -> w | None -> die "unknown workload %s" name

(* --- child: one repetition -------------------------------------------- *)

let rep args =
  let w = workload_arg args and seed = int_arg args "seed" in
  let mode =
    match Rep.mode_of_string (required args "mode") with
    | Some m -> m
    | None -> die "unknown --mode"
  in
  match Rep.run w ~seed mode with
  | r -> print_endline (Json.to_string (Rep.to_json r))
  | exception e ->
      print_endline
        (Json.to_string
           (Json.Obj [ ("ok", Json.Bool false); ("error", Json.String (Printexc.to_string e)) ]));
      exit 1

(* --- parent: spawn and collect ---------------------------------------- *)

type sample = {
  ok : bool;
  error : string;
  digest : string;
  e2e : (string * float) list;
  diag : (string * float) list;
  layers : (string * float) list;
  spans : Json.t;
}

let floats = function
  | Some (Json.Obj l) ->
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt v)) l
  | _ -> []

let failed_sample error =
  { ok = false; error; digest = ""; e2e = []; diag = []; layers = []; spans = Json.List [] }

let spawn (w : W.t) ~seed mode =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "rep"; "--workload"; w.W.name; "--seed"; string_of_int seed; "--mode"; mode |]
  in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match Json.parse last with
  | exception Json.Parse_error _ -> failed_sample "child printed no result"
  | j ->
      let str k = Option.value ~default:"" (Option.bind (Json.member k j) Json.to_string_opt) in
      if status <> Unix.WEXITED 0 || Json.member "ok" j <> Some (Json.Bool true) then
        failed_sample (str "error")
      else
        {
          ok = true;
          error = "";
          digest = str "digest";
          e2e = floats (Json.member "e2e" j);
          diag = floats (Json.member "diag" j);
          layers = floats (Json.member "layers" j);
          spans = Option.value ~default:(Json.List []) (Json.member "spans" j);
        }

(* A repetition fails when its child fails or when its deterministic
   digest differs from the reference repetition of the same seed. *)
let judge ~reference s =
  if not s.ok then s
  else if s.digest <> reference.digest then
    { s with ok = false; error = "det_digest differs from the reference repetition" }
  else s

let values key tables = List.filter_map (List.assoc_opt key) tables
let ok_tables f samples = List.filter_map (fun s -> if s.ok then Some (f s) else None) samples

(* --- reporting --------------------------------------------------------- *)

let num x = Json.Float (if Float.is_finite x then x else 0.0)

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun ((m : Summary.metric), v) ->
                  (m.name, Json.Obj [ ("value", num v); ("unit", Json.String m.unit) ]))
                metrics) );
       ])

let print_table oc title defs lookup =
  Printf.fprintf oc "%s\n  %-40s %14s %14s %14s %3s  %s\n" title "metric" "median" "q1" "q3" "n"
    "unit";
  List.iter
    (fun (m : Summary.metric) ->
      match lookup m.name with
      | [] -> Printf.fprintf oc "  %-40s %14s\n" m.name "missing"
      | xs ->
          let q1, med, q3 = Summary.quartiles xs in
          Printf.fprintf oc "  %-40s %14.6g %14.6g %14.6g %3d  %s\n" m.name med q1 q3
            (List.length xs) m.unit)
    defs

let tail_note oc n =
  Printf.fprintf oc
    "  (%d samples: medians and quartiles only; no tail percentile has 10 samples beyond it)\n" n

(* Self times of one traced repetition and the layer-sum line. *)
let print_trace oc name (s : sample) =
  let layer k = Option.value ~default:0.0 (List.assoc_opt k s.layers) in
  Printf.fprintf oc "%s: span self times (host s)\n" name;
  (match s.spans with
  | Json.List spans ->
      let get conv k j = Option.bind (Json.member k j) conv in
      let time k j = Option.value ~default:0.0 (get Json.to_float_opt k j) in
      let dur j = time "end" j -. time "start" j in
      List.iter
        (fun sp ->
          let id = get Json.to_int_opt "id" sp in
          let covered =
            List.fold_left
              (fun acc c -> if get Json.to_int_opt "parent" c = id then acc +. dur c else acc)
              0.0 spans
          in
          let nm = Option.value ~default:"" (get Json.to_string_opt "name" sp) in
          Printf.fprintf oc "  %-24s self %9.4f  total %9.4f\n" nm (dur sp -. covered) (dur sp))
        spans
  | _ -> ());
  let parts = [ "engine"; "net"; "proto"; "crypto" ] in
  Printf.fprintf oc "%s: layer sum %.4f s (%s) vs bootstrap+traffic %.4f s, residual %.4f s (%.1f%%)\n"
    name
    (List.fold_left (fun acc p -> acc +. layer ("layers." ^ p ^ "_s")) 0.0 parts)
    (String.concat " + "
       (List.map (fun p -> Printf.sprintf "%s %.4f" p (layer ("layers." ^ p ^ "_s"))) parts))
    (Option.value ~default:0.0 (List.assoc_opt "sim_s" s.diag))
    (layer "layers.residual_s")
    (100.0 *. (1.0 -. layer "layers.sum_frac"))

(* Write [j] and check that the file parses back to the same document. *)
let write_json path j =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  let text = Json.to_string j in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc text;
      output_char oc '\n');
  if Json.to_string (Json.parse (Summary.read_file path)) <> text then
    die "%s does not parse back to what was written" path

let median_eps samples =
  match values "events_per_sec" (ok_tables (fun s -> s.e2e) samples) with
  | [] -> None
  | xs -> Some (Summary.median xs)

(* Per-layer metrics of the traced repetitions, plus the two overheads
   that compare untraced repetitions by time per event: telemetry as the
   workload configures it against every optional sink off ([bare]), and
   tracing against no tracing ([timed]). *)
let layer_values ~timed ~bare traced =
  let ratio a b =
    match (a, b) with Some a, Some b when b > 0.0 -> [ (a /. b) -. 1.0 ] | _ -> []
  in
  function
  | "obs.overhead_frac" -> ratio (median_eps [ bare ]) (median_eps timed)
  | "trace.overhead_frac" -> ratio (median_eps timed) (median_eps traced)
  | key -> values key (ok_tables (fun s -> s.layers) traced)

(* --- one workload, time-boxed ----------------------------------------- *)

(* Prints the failures and the table to standard error, then the result
   line: the median of every metric of [defs] over [samples]. *)
let report ~title ~defs ~lookup ~all samples =
  let failed = List.filter (fun s -> not s.ok) all in
  List.iter (fun s -> Printf.eprintf "failed repetition: %s\n" s.error) failed;
  let missing = List.filter (fun (m : Summary.metric) -> lookup m.name = []) defs in
  List.iter (fun (m : Summary.metric) -> Printf.eprintf "metric %s was not produced\n" m.name) missing;
  print_table stderr title defs lookup;
  tail_note stderr (List.length samples);
  let metrics =
    List.filter_map
      (fun (m : Summary.metric) ->
        match lookup m.name with [] -> None | xs -> Some (m, Summary.median xs))
      defs
  in
  print_endline
    (result_line
       ~correct:(failed = [] && missing = [])
       ~attempted:(List.length all) ~failed:(List.length failed) metrics)

let drive args =
  let w = workload_arg args in
  let seed = int_arg args "seed" and seconds = float_of_int (int_arg args "seconds") in
  let e2e_defs, layer_defs = Summary.definitions () in
  let t0 = now () in
  let repeat mode ~min =
    let rec loop acc =
      if List.length acc >= min && now () -. t0 >= seconds then List.rev acc
      else loop (spawn w ~seed mode :: acc)
    in
    loop []
  in
  let title mode digest = Printf.sprintf "%s seed %d, %s, det_digest %s" w.W.name seed mode digest in
  if required args "trace" = "1" then begin
    let reference = spawn w ~seed "reference" in
    let timed = judge ~reference (spawn w ~seed "timed") in
    (* Bare telemetry changes the exports, so its digest is not compared. *)
    let bare = spawn w ~seed "bare-obs" in
    let traced = List.map (judge ~reference) (repeat "traced" ~min:1) in
    List.iter (print_trace stderr w.W.name) (List.filteri (fun i s -> i = 0 && s.ok) traced);
    write_json
      (Printf.sprintf "%s/trace-%s-%d.json" out_dir w.W.name seed)
      (Json.List (List.map (fun s -> s.spans) traced));
    report ~title:(title "traced" reference.digest) ~defs:layer_defs
      ~lookup:(layer_values ~timed:[ timed ] ~bare traced)
      ~all:(reference :: timed :: bare :: traced) traced
  end
  else begin
    (* Every repetition must reproduce the first one's digest. *)
    let samples = repeat "timed" ~min:3 in
    let samples = List.map (judge ~reference:(List.hd samples)) samples in
    report ~title:(title "untraced" (List.hd samples).digest) ~defs:e2e_defs
      ~lookup:(fun key -> values key (ok_tables (fun s -> s.e2e) samples))
      ~all:samples samples
  end

(* --- every workload, interleaved --------------------------------------- *)

let benchmark args =
  let seed = int_arg args "seed" and reps = 7 in
  let e2e_defs, layer_defs = Summary.definitions () in
  let references = List.map (fun w -> (w.W.name, spawn w ~seed "reference")) W.all in
  let timed = Hashtbl.create 8 in
  for r = 1 to reps do
    List.iter
      (fun w ->
        let s = judge ~reference:(List.assoc w.W.name references) (spawn w ~seed "timed") in
        Printf.eprintf "rep %d/%d %-16s %s\n%!" r reps w.W.name (if s.ok then "ok" else s.error);
        Hashtbl.add timed w.W.name s)
      W.all
  done;
  let per_workload =
    List.map
      (fun w ->
        let reference = List.assoc w.W.name references in
        let bare = spawn w ~seed "bare-obs" in
        let traced = judge ~reference (spawn w ~seed "traced") in
        let samples = List.rev (Hashtbl.find_all timed w.W.name) in
        let all = reference :: bare :: traced :: samples in
        let failed = List.length (List.filter (fun s -> not s.ok) all) in
        let e2e key = values key (ok_tables (fun s -> s.e2e) samples) in
        let layers = layer_values ~timed:samples ~bare [ traced ] in
        print_table stdout
          (Printf.sprintf "\n%s seed %d, det_digest %s, fail_frac %d/%d" w.W.name seed
             reference.digest failed (List.length all))
          e2e_defs e2e;
        tail_note stdout (List.length samples);
        print_table stdout (w.W.name ^ " per layer, one traced repetition") layer_defs layers;
        print_trace stdout w.W.name traced;
        let stat_json (m : Summary.metric) =
          match e2e m.name with
          | [] -> Json.Null
          | xs ->
              let q1, med, q3 = Summary.quartiles xs in
              Json.Obj
                [
                  ("unit", Json.String m.unit);
                  ("median", num med);
                  ("q1", num q1);
                  ("q3", num q3);
                  ("n", Json.Int (List.length xs));
                  ("samples", Json.List (List.map num xs));
                ]
        in
        let layer_json (m : Summary.metric) =
          match layers m.name with [] -> Json.Null | x :: _ -> num x
        in
        ( w.W.name,
          Json.Obj
            [
              ("det_digest", Json.String reference.digest);
              ("attempted", Json.Int (List.length all));
              ("failed", Json.Int failed);
              ("e2e", Json.Obj (List.map (fun (m : Summary.metric) -> (m.name, stat_json m)) e2e_defs));
              ( "layers",
                Json.Obj (List.map (fun (m : Summary.metric) -> (m.name, layer_json m)) layer_defs) );
            ],
          traced.spans ))
      W.all
  in
  let results = Printf.sprintf "%s/results-%d.json" out_dir seed in
  write_json results
    (Json.Obj
       [
         ("seed", Json.Int seed);
         ("reps", Json.Int reps);
         ("probe_ref_s", Json.Float Probe.ref_s);
         ("workloads", Json.Obj (List.map (fun (n, j, _) -> (n, j)) per_workload));
       ]);
  let trace = Printf.sprintf "%s/trace-%d.json" out_dir seed in
  write_json trace (Json.Obj (List.map (fun (n, _, spans) -> (n, spans)) per_workload));
  Printf.printf "\nwrote %s and %s\n" results trace

(* --- comparing two result sets ---------------------------------------- *)

(* For one metric of one workload: [better] when B beats A by more than
   A's own quartile spread and every B sample beats every A sample;
   [worse] when B's median is worse than A's by more than the bound;
   [unresolved] when either set's quartile spread is wider than the
   bound (unless every B sample beats every A sample); otherwise
   [within-bound]. *)
let verdict (m : Summary.metric) (ma, spread_a, sa) (mb, spread_b, sb) =
  let worse = (if m.higher_better then ma -. mb else mb -. ma) /. abs_float ma in
  let beats x y = if m.higher_better then x > y else x < y in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> beats y x) sa) sb in
  if Float.max spread_a spread_b > m.bound then if all_better then "better" else "unresolved"
  else if worse > m.bound then "worse"
  else if -.worse > spread_a && all_better then "better"
  else "within-bound"

let compare_results args =
  let a_path, b_path =
    match args with [ a; b ] -> (a, b) | _ -> die "benchmark-compare wants two results files"
  in
  let e2e_defs, _ = Summary.definitions () in
  let load p = Json.parse (Summary.read_file p) in
  let a = load a_path and b = load b_path in
  let stats doc wl name =
    let ( let* ) = Option.bind in
    let* w = Option.bind (Json.member "workloads" doc) (Json.member wl) in
    let* j = Option.bind (Json.member "e2e" w) (Json.member name) in
    let f k = Option.bind (Json.member k j) Json.to_float_opt in
    let* med = f "median" in
    let* q1 = f "q1" in
    let* q3 = f "q3" in
    let* samples = Option.bind (Json.member "samples" j) Json.to_list_opt in
    if med = 0.0 then None
    else Some (med, (q3 -. q1) /. abs_float med, List.filter_map Json.to_float_opt samples)
  in
  Printf.printf "%-16s %-16s %12s %12s %8s %8s  %s\n" "workload" "metric" "A median" "B median"
    "change" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m : Summary.metric) ->
          match (stats a w.W.name m.name, stats b w.W.name m.name) with
          | Some ((ma, _, _) as sa), Some ((mb, _, _) as sb) ->
              Printf.printf "%-16s %-16s %12.6g %12.6g %+7.1f%% %7.1f%%  %s\n" w.W.name m.name ma mb
                (100.0 *. (mb -. ma) /. ma) (100.0 *. m.bound) (verdict m sa sb)
          | _ -> Printf.printf "%-16s %-16s missing in one of the files\n" w.W.name m.name)
        e2e_defs)
    W.all

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "rep" :: args -> rep args
  | "benchmark" :: args -> benchmark args
  | "benchmark-compare" :: args -> compare_results args
  | args when arg args "workload" <> None -> drive args
  | _ ->
      die
        "usage: --workload W --seed N --seconds S --trace 0|1 | benchmark --seed N | \
         benchmark-compare A.json B.json"
