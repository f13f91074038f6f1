module Stats = Manet_sim.Stats
module Obs = Manet_obs.Obs
module Audit = Manet_obs.Audit
module Metrics = Manet_obs.Metrics
module Report = Manet_obs.Report
module Json = Manet_obs.Json
module Merge = Manet_obs.Merge

type kind =
  | Stats_csv
  | Audit_jsonl
  | Trace_jsonl
  | Metrics_csv
  | Metrics_prom
  | Report_json
  | Perf_json
  | Timeline_jsonl

let suffix = function
  | Stats_csv -> "stats.csv"
  | Audit_jsonl -> "audit.jsonl"
  | Trace_jsonl -> "trace.jsonl"
  | Metrics_csv -> "metrics.csv"
  | Metrics_prom -> "metrics.prom"
  | Report_json -> "report.json"
  | Perf_json -> "perf.json"
  | Timeline_jsonl -> "timeline.jsonl"

let file ~name kind = name ^ "." ^ suffix kind

let prepare kinds s =
  let obs = Scenario.obs s in
  if List.mem Trace_jsonl kinds then Obs.set_capture obs true;
  if List.mem Metrics_csv kinds || List.mem Metrics_prom kinds then
    Metrics.set_enabled (Obs.metrics obs) true

let stats_csv s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "counter,value\n";
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s,%d\n" k v))
    (Stats.counters (Scenario.stats s));
  Buffer.contents buf

let render ~meta s kind =
  let obs = Scenario.obs s in
  match kind with
  | Stats_csv -> stats_csv s
  | Audit_jsonl -> Audit.to_jsonl ~meta (Obs.audit obs)
  | Trace_jsonl -> Obs.to_jsonl ~meta obs
  | Metrics_csv -> Metrics.to_csv ~stats:(Scenario.stats s) (Obs.metrics obs)
  | Metrics_prom -> Metrics.to_prom ~stats:(Scenario.stats s) (Obs.metrics obs)
  | Report_json ->
      Json.to_string (Report.run_report ~engine:(Scenario.engine s) ~obs ~extra:meta ())
      ^ "\n"
  | Perf_json -> Json.to_string (Scenario.perf_json ~meta s) ^ "\n"
  | Timeline_jsonl -> Scenario.timeline_jsonl ~meta s

(* --- sweeps ------------------------------------------------------------ *)

(* The name of a kind's stream in a merged sweep export; [None] for the
   counters, which every run carries and {!Merge.stats_csv} renders. *)
let stream = function
  | Audit_jsonl -> Some "audit"
  | Trace_jsonl -> Some "trace"
  | Perf_json -> Some "perf"
  | Timeline_jsonl -> Some "timeline"
  | Stats_csv | Metrics_csv | Metrics_prom | Report_json -> None

let mergeable = function
  | Stats_csv | Audit_jsonl | Trace_jsonl | Perf_json | Timeline_jsonl -> true
  | Metrics_csv | Metrics_prom | Report_json -> false

let check_mergeable kinds =
  List.iter
    (fun kind ->
      if not (mergeable kind) then
        invalid_arg ("Export: the " ^ suffix kind ^ " export has no merged form"))
    kinds

let merge_run ~key kinds s =
  {
    Merge.key;
    stats = Stats.counters (Scenario.stats s);
    streams =
      List.filter_map
        (fun kind ->
          match (kind, stream kind) with
          | _, None -> None
          | Perf_json, Some name -> Some (name, Scenario.perf_det_jsonl ~meta:key s)
          | _, Some name -> Some (name, render ~meta:key s kind))
        kinds;
  }

let merged ~name kinds runs =
  check_mergeable kinds;
  List.map
    (fun kind ->
      match stream kind with
      | Some stream ->
          (name ^ "." ^ stream ^ ".jsonl", Merge.stream_jsonl ~name:stream runs)
      | None -> (file ~name kind, Merge.stats_csv runs))
    kinds
