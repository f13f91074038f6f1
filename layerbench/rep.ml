(* One repetition of one workload, run in a fresh child process so that
   every repetition starts from the same empty heap: set-up, bootstrap,
   traffic and exports, each timed as one segment (see probe.ml), then
   the correctness checks and the deterministic digest.

   The digest is SHA-256 over the deterministic perf export, the stats
   counters and, for the telemetry workload, the four deterministic
   exports.  Every repetition of one (workload, seed) must produce the
   same digest, including a reference repetition run without the probe
   timer: that is the check that measuring perturbs nothing. *)

module Scenario = Manetsec.Scenario
module Engine = Manetsec.Sim.Engine
module Stats = Manetsec.Sim.Stats
module Trace = Manetsec.Sim.Trace
module Json = Manetsec.Obs_json
module Obs = Manetsec.Obs
module Audit = Manetsec.Audit
module Metrics = Manetsec.Metrics
module Timeline = Manetsec.Timeline
module Sha256 = Manetsec.Crypto.Sha256
module W = Workloads

type mode =
  | Timed  (** the end-to-end samples *)
  | Reference  (** without the probe timer: the digest the others must match *)
  | Traced  (** engine profiling on, all five exports, then the layer replays *)
  | Bare_obs
      (** every optional telemetry sink off: the baseline of
          [obs.overhead_frac] *)

let mode_of_string = function
  | "timed" -> Some Timed
  | "reference" -> Some Reference
  | "traced" -> Some Traced
  | "bare-obs" -> Some Bare_obs
  | _ -> None

type result = {
  e2e : (string * float) list;  (** named as in BENCHMARK.json *)
  diag : (string * float) list;  (** raw wall times, counts *)
  layers : (string * float) list;  (** traced mode only *)
  digest : string;
  spans : Spans.t;
}

let stat s name = Stats.get (Scenario.stats s) name

let check cond what = if not cond then failwith ("check failed: " ^ what)

let parses_as_jsonl text =
  String.split_on_char '\n' text
  |> List.for_all (fun line -> line = "" || (ignore (Json.parse line); true))

let all_streams s =
  let obs = Scenario.obs s in
  [
    ("spans", (fun () -> Obs.to_jsonl obs), parses_as_jsonl);
    ("audit", (fun () -> Audit.to_jsonl (Obs.audit obs)),
      fun text -> ignore (Audit.parse_jsonl text); true);
    ("metrics",
      (fun () -> Metrics.to_csv ~stats:(Scenario.stats s) (Obs.metrics obs)),
      fun text -> String.starts_with ~prefix:"kind,name,node,window," text);
    ("timeline", (fun () -> Scenario.timeline_jsonl s), parses_as_jsonl);
    ("perf", (fun () -> Json.to_string (Scenario.perf_json s)),
      fun text -> ignore (Json.parse text); true);
  ]

(* What one repetition renders after the traffic phase.  The perf export
   carries wall-clock fields, so it never enters the digest; the other
   four streams are byte-deterministic and do. *)
let streams_for spec mode s =
  let all = all_streams s in
  if mode = Traced || spec.W.telemetry then all
  else List.filter (fun (name, _, _) -> name = "perf") all

let configure_telemetry spec mode s =
  let obs = Scenario.obs s in
  if mode = Bare_obs then begin
    Timeline.set_enabled (Obs.timeline obs) false;
    Audit.set_recording (Obs.audit obs) false
  end
  else if spec.W.telemetry then begin
    Obs.set_capture obs true;
    Trace.enable (Engine.trace (Scenario.engine s));
    Metrics.set_enabled (Obs.metrics obs) true
  end

let digest spec s exports =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Scenario.perf_det_jsonl s);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s=%d\n" k v))
    (Stats.counters (Scenario.stats s));
  if spec.W.telemetry then
    List.iter
      (fun (name, text) -> if name <> "perf" then Buffer.add_string b text)
      exports;
  Sha256.digest_hex (Buffer.contents b)

let run (w : W.t) ~seed mode =
  let spec = w.W.spec seed in
  let spans = Spans.create (Printf.sprintf "%s-%d-%d" w.W.name seed (Unix.getpid ())) in
  (* Warm the probe and its timing path before the first segment. *)
  for _ = 1 to 3 do
    ignore (Probe.probe ())
  done;
  if mode <> Reference then Probe.start_ticks ();
  let root = Spans.add spans w.W.name ~start:(Probe.now ()) ~stop:0.0 in
  let timed name f =
    let start = Probe.now () in
    let r, raw = Probe.segment f in
    ignore (Spans.add spans ~parent:root name ~start ~stop:(Probe.now ()));
    (r, raw)
  in
  let s, setup =
    timed "setup" (fun () ->
        let s = Scenario.create spec.W.params in
        Scenario.inject s spec.W.plan;
        s)
  in
  configure_telemetry spec mode s;
  let engine = Scenario.engine s in
  if mode = Traced then Engine.set_profiling engine true;
  let gc0 = Gc.quick_stat () in
  let (), boot = timed "bootstrap" (fun () -> Scenario.bootstrap ~stagger:spec.W.stagger s) in
  let events_boot = Engine.events_processed engine in
  let t0 = Engine.now engine in
  List.iteri
    (fun i flow ->
      Scenario.start_cbr s ~flows:[ flow ] ~interval:spec.W.interval
        ~start_at:(t0 +. (float_of_int i *. spec.W.flow_gap))
        ~duration:spec.W.duration ())
    spec.W.flows;
  let until =
    t0
    +. (float_of_int (List.length spec.W.flows - 1) *. spec.W.flow_gap)
    +. spec.W.duration +. spec.W.drain
  in
  let (), traffic = timed "traffic" (fun () -> Scenario.run s ~until) in
  let gc1 = Gc.quick_stat () in
  let events = Engine.events_processed engine in
  let exported =
    List.map
      (fun (name, f, parses) ->
        let text, raw = timed ("export." ^ name) f in
        (name, text, parses, raw))
      (streams_for spec mode s)
  in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let raw_export_s = List.fold_left (fun acc (_, _, _, raw) -> acc +. raw) 0.0 exported in
  let sim_s = Probe.norm (boot +. traffic) in
  let run_s = sim_s +. Probe.norm raw_export_s in
  (* Correctness: the run did real work, every node joined, traffic got
     through, and every export parses back. *)
  let n = spec.W.params.Scenario.n in
  check (events > events_boot && events_boot > 0) "engine processed events";
  check (stat s "dad.configured" >= n - 1) "every node configured an address";
  check (stat s "data.offered" > 0) "traffic was offered";
  check (Scenario.delivery_ratio s >= 0.5) "delivery ratio at least 0.5";
  List.iter
    (fun (name, text, parses, _) ->
      check (try parses text with _ -> false) (name ^ " export parses back"))
    exported;
  let layers =
    if mode <> Traced then []
    else
      Layers.measure s ~spans ~root ~events ~sim_s ~raw_sim_s:(boot +. traffic)
        ~boot_s:(Probe.norm boot) ~gc:(gc0, gc1)
        ~exports:(List.map (fun (name, text, _, raw) -> (name, text, Probe.norm raw)) exported)
  in
  Probe.stop_ticks ();
  Spans.finish spans root ~stop:(Probe.now ());
  let sign, verify = Scenario.crypto_ops s in
  {
    e2e =
      [
        ("run_s", run_s);
        ("setup_s", Probe.norm setup);
        ("events_per_sec", float_of_int events /. sim_s);
        ("peak_heap_mb", float_of_int (heap_words * 8) /. 1e6);
      ];
    diag =
      [
        ("raw_run_s", boot +. traffic +. raw_export_s);
        ("raw_setup_s", setup);
        ("probe_ms", 1e3 *. Probe.median_probe ());
        ("sim_s", sim_s);
        ("events", float_of_int events);
        ("delivery_ratio", Scenario.delivery_ratio s);
        ("signs", float_of_int sign);
        ("verifies", float_of_int verify);
      ];
    layers;
    digest = digest spec s (List.map (fun (name, text, _, _) -> (name, text)) exported);
    spans;
  }

let to_json r =
  let obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l) in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("digest", Json.String r.digest);
      ("e2e", obj r.e2e);
      ("diag", obj r.diag);
      ("layers", obj r.layers);
      ("spans", Spans.to_json r.spans);
    ]
