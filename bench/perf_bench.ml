(* The perf trajectory snapshot: one JSON document per PR recording the
   numbers ROADMAP tracks — engine throughput, hot-path ns/op, peak
   heap, and the multicore sweep wall-clock that PR 6's domain-safety
   certificate unlocked.  CI regenerates and archives the file; the
   committed copy records the reference machine.

     dune exec bench/main.exe -- perf        # writes BENCH_<pr>.json

   tools/benchgate compares the fresh snapshot against the previous
   PR's committed one and fails CI on a >20% throughput or hot-path
   regression. *)

module Scenario = Manetsec.Scenario
module Engine = Manetsec.Sim.Engine
module Mono_clock = Manetsec.Sim.Mono_clock
module Parallel = Manetsec.Sim.Parallel
module Heap = Manetsec.Sim.Heap
module Net = Manetsec.Sim.Net
module Hist = Manetsec.Sim.Hist
module Stats = Manetsec.Sim.Stats
module Sweep = Manetsec.Sweep
module Prng = Manetsec.Crypto.Prng
module Sha256 = Manetsec.Crypto.Sha256
module Rsa = Manetsec.Crypto.Rsa
module Suite = Manetsec.Crypto.Suite
module Json = Manetsec.Obs_json
module Obs = Manetsec.Obs
module Timeline = Manetsec.Timeline
module Flood = Manetsec.Flood

let pr = 10
let out_file = Printf.sprintf "BENCH_%d.json" pr

(* Mean ns per call, timed over enough batches to fill [target_s] of
   wall clock (after one warmup batch). *)
let ns_per_op ?(batch = 100) ?(target_s = 0.2) f =
  for _ = 1 to batch do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t0 = Mono_clock.now_s () in
  let calls = ref 0 in
  while Mono_clock.now_s () -. t0 < target_s do
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    calls := !calls + batch
  done;
  (Mono_clock.now_s () -. t0) *. 1e9 /. float_of_int (max 1 !calls)

let hot_paths () =
  let g = Prng.create ~seed:4242 in
  let data_1k = Prng.bytes g 1024 in
  let rsa_pub, rsa_priv = Rsa.generate g ~bits:512 in
  let signature = Rsa.sign rsa_priv data_1k in
  let sha = ns_per_op (fun () -> Sha256.digest data_1k) in
  let verify =
    ns_per_op ~batch:10
      (fun () -> Rsa.verify rsa_pub ~msg:data_1k ~signature)
  in
  (* The PR-8 metric heap_push_pop_ns timed the old allocating API
     (pop returning Some (prio, v)); the SoA heap has no such
     operation, so the metric is renamed rather than compared across
     incompatible shapes: heap_cycle_ns is one allocation-free
     push / min_snd / drop_min cycle. *)
  let heap =
    let h = Heap.create () in
    let i = ref 0 in
    ns_per_op (fun () ->
        incr i;
        Heap.push h (float_of_int (!i land 1023)) () !i;
        let v = Heap.min_snd h in
        Heap.drop_min h;
        v)
  in
  [
    ("sha256_1k_ns", Json.Float sha);
    ("rsa512_verify_ns", Json.Float verify);
    ("heap_cycle_ns", Json.Float heap);
  ]

(* A representative secure run (30 nodes, traffic, 2 black holes) for
   engine throughput and peak heap.  [timeline] toggles the bucket
   recorder: the bench runs the same workload off and on and checks the
   deterministic perf export is byte-identical (recording observes, it
   never perturbs) and the throughput cost stays small. *)
let engine_run ~timeline () =
  let params =
    {
      Scenario.default_params with
      n = 30;
      seed = 11;
      topology = Scenario.Random { width = 1200.0; height = 1200.0 };
      adversaries =
        [ (5, Manetsec.Adversary.blackhole); (9, Manetsec.Adversary.blackhole) ];
    }
  in
  let s = Scenario.create params in
  if not timeline then Timeline.set_enabled (Obs.timeline (Scenario.obs s)) false;
  Engine.set_profiling (Scenario.engine s) true;
  let g0 = Gc.quick_stat () in
  Scenario.bootstrap s;
  Scenario.start_cbr s
    ~flows:[ (1, 17); (3, 21); (8, 28); (14, 2) ]
    ~interval:0.25 ~duration:60.0 ();
  Scenario.run s ~until:120.0;
  let g1 = Gc.quick_stat () in
  let events = max 1 (Engine.events_processed (Scenario.engine s)) in
  let minor_per_event =
    (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int events
  in
  let scan_hist = Net.scan_hist (Scenario.net s) in
  let scan_mean = match Hist.mean scan_hist with Some m -> m | None -> 0.0 in
  let scan_p99 =
    match Hist.percentile scan_hist 0.99 with
    | Some v -> float_of_int v
    | None -> 0.0
  in
  ( Engine.events_per_sec (Scenario.engine s),
    (Gc.stat ()).Gc.top_heap_words,
    scan_mean,
    scan_p99,
    minor_per_event,
    Scenario.perf_det_jsonl s )

(* A small real-RSA run for the paper's E2-style cost metrics:
   signature verifications per delivered data message, plus the two
   flood-provenance aggregates (redundant verifications per flood — the
   work ROADMAP item 3's verification cache targets — and the broadcast
   redundancy ratio). *)
let rsa_cost_run () =
  let params =
    {
      Scenario.default_params with
      n = 12;
      seed = 5;
      suite = Scenario.Rsa_suite 512;
    }
  in
  let s = Scenario.create params in
  Scenario.bootstrap s;
  Scenario.start_cbr s
    ~flows:[ (1, 7); (3, 10) ]
    ~interval:1.0 ~duration:20.0 ();
  Scenario.run s ~until:60.0;
  let delivered = Stats.get (Scenario.stats s) "data.delivered" in
  let verifies = (Scenario.suite s).Suite.verify_count in
  let fl = Obs.flood (Scenario.obs s) in
  ( float_of_int verifies /. float_of_int (max 1 delivered),
    Flood.duplicate_verifies_per_flood fl,
    Flood.flood_redundancy_ratio fl )

(* The sweep grid used for wall-clock scaling; small enough for CI,
   large enough that fan-out dominates scheduling overhead. *)
let sweep_spec =
  {
    Sweep.e1_fractions = [ 0.0; 0.2 ];
    e1_nodes = 30;
    e1_duration = 120.0;
    e6_sizes = [ 24 ];
    seeds = [ 1; 2; 3 ];
  }

(* Every stream a sweep can merge, as every point rendered before
   sweeps took the kind list. *)
let sweep_exports =
  Manetsec.Export.[ Stats_csv; Audit_jsonl; Trace_jsonl; Perf_json; Timeline_jsonl ]

let sweep_wall ~domains =
  let t0 = Mono_clock.now_s () in
  ignore (Sys.opaque_identity (Sweep.run ~domains ~exports:sweep_exports sweep_spec));
  Mono_clock.now_s () -. t0

let run () =
  Util.heading (Printf.sprintf "perf -- BENCH_%d.json" pr);
  let cores = Parallel.default_domains () in
  let off_events_per_sec, _, _, _, _, off_det = engine_run ~timeline:false () in
  let events_per_sec, peak_heap, scan_mean, scan_p99, minor_per_event, on_det =
    engine_run ~timeline:true ()
  in
  let timeline_clean = String.equal off_det on_det in
  let timeline_overhead = 1.0 -. (events_per_sec /. off_events_per_sec) in
  Printf.printf "engine              %.0f events/s, peak heap %d words\n%!"
    events_per_sec peak_heap;
  Printf.printf "timeline            %s, %.1f%% events/s overhead\n%!"
    (if timeline_clean then "non-perturbing (det export byte-identical)"
     else "PERTURBS THE RUN")
    (timeline_overhead *. 100.0);
  Printf.printf "neighbour scan      %.1f nodes/broadcast mean, p99 %.0f\n%!"
    scan_mean scan_p99;
  Printf.printf "alloc               %.1f minor words/event\n%!" minor_per_event;
  let rsa_per_msg, dup_verifies, redundancy = rsa_cost_run () in
  Printf.printf "rsa cost            %.2f verifies/delivered msg\n%!" rsa_per_msg;
  Printf.printf "floods              %.3f duplicate verifies/flood, %.3f \
                 redundancy ratio\n%!"
    dup_verifies redundancy;
  let hot = hot_paths () in
  List.iter
    (fun (name, j) ->
      Printf.printf "%-19s %s\n%!" name (Json.to_string j))
    hot;
  let walls =
    List.map
      (fun d ->
        let w = sweep_wall ~domains:d in
        Printf.printf "sweep @%d domain(s)  %.2f s wall\n%!" d w;
        (Printf.sprintf "d%d" d, Json.Float w))
      [ 1; 2; 4 ]
  in
  let wall d = match List.assoc (Printf.sprintf "d%d" d) walls with
    | Json.Float w -> w
    | _ -> nan
  in
  (* On fewer than 4 cores the 4-domain wall time measures
     oversubscription, not scaling: the speedup is recorded as null. *)
  let speedup_4 = if cores >= 4 then Some (wall 1 /. wall 4) else None in
  (match speedup_4 with
  | Some s ->
      Printf.printf "4-domain speedup    %.2fx (host has %d core(s))\n%!" s cores
  | None ->
      Printf.printf
        "4-domain speedup    n/a: not measurable on %d core(s)\n%!" cores);
  let doc =
    Json.Obj
      [
        ("schema", Json.String "manetsim-bench");
        ("version", Json.Int 1);
        ("pr", Json.Int pr);
        ("host_cores", Json.Int cores);
        ("events_per_sec", Json.Float events_per_sec);
        ("peak_heap_words", Json.Int peak_heap);
        ("neighbour_scan_mean", Json.Float scan_mean);
        ("neighbour_scan_p99", Json.Float scan_p99);
        ("gc_minor_words_per_event", Json.Float minor_per_event);
        ("rsa_verifies_per_delivered_msg", Json.Float rsa_per_msg);
        ("duplicate_verifies_per_flood", Json.Float dup_verifies);
        ("flood_redundancy_ratio", Json.Float redundancy);
        ( "timeline",
          Json.Obj
            [
              ("non_perturbing", Json.Bool timeline_clean);
              ("overhead_frac", Json.Float timeline_overhead);
              ("events_per_sec_off", Json.Float off_events_per_sec);
            ] );
        ("hot_paths", Json.Obj hot);
        ( "sweep",
          Json.Obj
            [
              ("points", Json.Int (List.length (Sweep.points sweep_spec)));
              ("wall_s", Json.Obj walls);
              ( "speedup_4",
                match speedup_4 with Some s -> Json.Float s | None -> Json.Null );
            ] );
      ]
  in
  let oc = open_out_bin out_file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out_file
