(* Tests for the security observability layer (DESIGN.md §5c): the
   typed audit event stream, the windowed metrics engine, and the
   online misbehaviour detector — including the end-to-end acceptance
   properties: planted adversaries are flagged, attacker-free runs flag
   nobody, and every export is byte-deterministic across replays. *)

module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Obs = Manetsec.Obs
module Audit = Manetsec.Audit
module Metrics = Manetsec.Metrics
module Detector = Manetsec.Detector
module Json = Manetsec.Obs_json
module Adversary = Manetsec.Adversary
module Scenario = Manetsec.Scenario

(* A chain scenario with cached replies off, so route discoveries
   actually traverse the adversary instead of being answered upstream. *)
let chain_params ?(n = 5) ?(adversaries = []) ?(seed = 7) () =
  {
    Scenario.default_params with
    n;
    seed;
    range = 150.0;
    topology = Scenario.Chain { spacing = 100.0 };
    adversaries;
    secure_config =
      {
        Scenario.default_params.Scenario.secure_config with
        use_cache_replies = false;
      };
  }

(* ------------------------------------------------------------------ *)
(* Audit stream primitives                                            *)
(* ------------------------------------------------------------------ *)

let test_audit_stream_basics () =
  Alcotest.(check string) "schema" "manetsim-audit" Audit.schema;
  Alcotest.(check bool) "version stamped" true (Audit.schema_version >= 1);
  let e = Engine.create ~seed:1 () in
  let a = Audit.create e in
  let seen = ref [] in
  Audit.on_emit a (fun ev -> seen := ev.Audit.seq :: !seen);
  Engine.schedule e ~delay:1.5 (fun () ->
      Audit.emit a ~kind:Audit.Sig_verify_fail ~node:2 ~cause:"c1" ();
      Audit.emit a ~kind:Audit.Replay_rejected ~node:3 ~subject_node:4
        ~subject_addr:"fec0::5" ~cause:"c2" ());
  Engine.run e;
  Alcotest.(check int) "count" 2 (Audit.count a);
  (match Audit.events a with
  | [ e1; e2 ] ->
      Alcotest.(check int) "seq dense from 1" 1 e1.Audit.seq;
      Alcotest.(check int) "seq dense" 2 e2.Audit.seq;
      Alcotest.(check (float 1e-9)) "sim time stamped" 1.5 e1.Audit.time;
      Alcotest.(check (option int)) "subject node" (Some 4) e2.Audit.subject_node;
      Alcotest.(check (option string)) "subject addr" (Some "fec0::5")
        e2.Audit.subject_addr
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  Alcotest.(check (list int)) "subscribers saw every emission" [ 2; 1 ] !seen;
  Alcotest.(check bool) "histogram over retained events" true
    (Audit.counts_by_kind (Audit.events a)
    = [ (Audit.Sig_verify_fail, 1); (Audit.Replay_rejected, 1) ])

let test_audit_recording_switch () =
  let e = Engine.create ~seed:1 () in
  let a = Audit.create ~capacity:2 e in
  Alcotest.(check bool) "recording on by default" true (Audit.recording a);
  Audit.set_recording a false;
  Audit.emit a ~kind:Audit.Dad_collision ~node:1 ~cause:"off" ();
  Alcotest.(check int) "counted while off" 1 (Audit.count a);
  Alcotest.(check int) "nothing retained while off" 0
    (List.length (Audit.events a));
  Audit.set_recording a true;
  for i = 1 to 3 do
    Audit.emit a ~kind:Audit.Dad_collision ~node:i ~cause:"on" ()
  done;
  Alcotest.(check int) "retention capped" 2 (List.length (Audit.events a));
  Alcotest.(check int) "oldest dropped" 1 (Audit.dropped a)

let test_audit_kind_labels () =
  List.iter
    (fun k ->
      let l = Audit.kind_label k in
      Alcotest.(check bool) (l ^ " label roundtrips") true
        (Audit.kind_of_label l = Some k))
    Audit.all_kinds;
  Alcotest.(check bool) "unknown label" true (Audit.kind_of_label "nope" = None);
  Alcotest.(check (list string)) "ground truth is exactly the attack family"
    [
      "attack_forgery"; "attack_replay"; "attack_drop"; "attack_impersonation";
      "attack_rerr"; "attack_churn";
    ]
    (List.map Audit.kind_label
       (List.filter Audit.is_ground_truth Audit.all_kinds))

let test_audit_jsonl_roundtrip () =
  let e = Engine.create ~seed:1 () in
  let a = Audit.create e in
  Engine.schedule e ~delay:0.25 (fun () ->
      Audit.emit a ~kind:Audit.Cga_mismatch ~node:1 ~subject_addr:"fec0::2"
        ~cause:"key/address binding" ();
      Audit.emit a ~kind:Audit.Blackhole_probe_result ~node:2 ~subject_node:3
        ~cause:"hop 1 of 2 silent" ());
  Engine.run e;
  let text = Audit.to_jsonl ~meta:[ ("seed", Json.Int 1) ] a in
  let parsed = Audit.parse_jsonl text in
  Alcotest.(check bool) "events roundtrip" true
    (parsed.Audit.parsed_events = Audit.events a);
  Alcotest.(check (option string)) "schema in header" (Some Audit.schema)
    (Option.bind (Json.member "schema" parsed.Audit.header) Json.to_string_opt);
  Alcotest.(check (option int)) "version in header" (Some Audit.schema_version)
    (Option.bind (Json.member "version" parsed.Audit.header) Json.to_int_opt);
  Alcotest.(check (option int)) "meta merged into header" (Some 1)
    (Option.bind (Json.member "seed" parsed.Audit.header) Json.to_int_opt);
  let reject text =
    match Audit.parse_jsonl text with
    | (_ : Audit.parsed) -> false
    | exception Json.Parse_error _ -> true
  in
  Alcotest.(check bool) "empty input rejected" true (reject "");
  Alcotest.(check bool) "wrong schema rejected" true
    (reject {|{"schema":"other","version":1}|});
  Alcotest.(check bool) "unknown kind rejected" true
    (reject
       (Printf.sprintf
          {|{"schema":"%s","version":%d}
{"type":"audit","seq":1,"t":0.0,"kind":"not_a_kind","node":1,"cause":"x"}|}
          Audit.schema Audit.schema_version))

(* ------------------------------------------------------------------ *)
(* Windowed metrics                                                   *)
(* ------------------------------------------------------------------ *)

let test_metrics_windows () =
  let e = Engine.create ~seed:1 () in
  let m = Metrics.create ~window:2.0 e in
  Alcotest.(check (float 0.0)) "window length" 2.0 (Metrics.window m);
  Alcotest.(check bool) "disabled by default" false (Metrics.enabled m);
  let x = Stats.key "x" in
  Metrics.record m ~node:1 ~by:1 x;
  (* no-op while disabled *)
  Metrics.set_enabled m true;
  Metrics.record m ~node:1 ~by:1 x;
  Engine.schedule e ~delay:3.0 (fun () ->
      Metrics.record m ~node:1 ~by:2 x;
      Metrics.observe m ~node:2 (Stats.key "lat") 0.5);
  Engine.run e;
  Alcotest.(check int) "disabled call not counted, windows summed" 3
    (Metrics.counter_total m ~node:1 "x");
  Alcotest.(check int) "global pseudo-node aggregates" 3
    (Metrics.counter_total m ~node:Metrics.global_node "x");
  Alcotest.(check int) "absent counter" 0
    (Metrics.counter_total m ~node:1 "y");
  let csv = Metrics.to_csv m in
  let stats = Stats.create () in
  Stats.incr stats (Stats.key "c1");
  Stats.observe stats (Stats.key "s1") 1.0;
  let csv_with = Metrics.to_csv ~stats m in
  let prom = Metrics.to_prom ~stats m in
  Alcotest.(check bool) "csv has cells" true (String.length csv > 0);
  Alcotest.(check bool) "stat totals appended" true
    (String.length csv_with > String.length csv);
  Alcotest.(check bool) "prom exposition nonempty" true (String.length prom > 0)

(* ------------------------------------------------------------------ *)
(* Detector unit behaviour                                            *)
(* ------------------------------------------------------------------ *)

let mk ?subject_node ~time ~kind ~cause () =
  {
    Audit.seq = 0;
    time;
    kind;
    node = 9;
    subject_node;
    subject_addr = None;
    cause;
  }

let test_detector_weights () =
  Alcotest.(check (float 0.0)) "unattributed events carry no weight" 0.0
    (Detector.weight (mk ~time:0.0 ~kind:Audit.Replay_rejected ~cause:"x" ()));
  Alcotest.(check (float 0.0)) "ground truth is never evidence" 0.0
    (Detector.weight
       (mk ~subject_node:2 ~time:0.0 ~kind:Audit.Attack_drop ~cause:"x" ()));
  Alcotest.(check (float 0.0)) "claimed-identity kinds carry no weight" 0.0
    (Detector.weight
       (mk ~subject_node:2 ~time:0.0 ~kind:Audit.Cga_mismatch ~cause:"x" ()));
  Alcotest.(check (float 0.0)) "probe verdict full weight" 1.0
    (Detector.weight
       (mk ~subject_node:2 ~time:0.0 ~kind:Audit.Blackhole_probe_result
          ~cause:"hop silent" ()));
  Alcotest.(check (float 0.0)) "direct slash" 0.6
    (Detector.weight
       (mk ~subject_node:2 ~time:0.0 ~kind:Audit.Credit_slash ~cause:"drop" ()));
  Alcotest.(check (float 0.0)) "predecessor slash discounted" 0.2
    (Detector.weight
       (mk ~subject_node:2 ~time:0.0 ~kind:Audit.Credit_slash
          ~cause:"predecessor of silent hop" ()))

let test_detector_evidence_flagging () =
  let d = Detector.create ~config:Detector.default_config () in
  (* Two implausible RERRs: evidence 0.6, below both thresholds. *)
  Detector.feed d
    (mk ~subject_node:5 ~time:1.0 ~kind:Audit.Rerr_implausible ~cause:"x" ());
  Detector.feed d
    (mk ~subject_node:5 ~time:2.0 ~kind:Audit.Rerr_implausible ~cause:"x" ());
  Alcotest.(check (list int)) "below thresholds" [] (Detector.suspects d);
  (* One attributed probe verdict crosses the evidence threshold. *)
  Detector.feed d
    (mk ~subject_node:5 ~time:3.0 ~kind:Audit.Blackhole_probe_result
       ~cause:"hop silent" ());
  Alcotest.(check (list int)) "flagged" [ 5 ] (Detector.suspects d);
  match Detector.verdicts d with
  | [ v ] ->
      Alcotest.(check int) "node" 5 v.Detector.v_node;
      Alcotest.(check int) "events counted" 3 v.Detector.v_events;
      Alcotest.(check (float 1e-9)) "evidence accumulated" 1.6
        v.Detector.v_evidence;
      Alcotest.(check bool) "flag time = crossing event" true
        (v.Detector.v_flagged_at = Some 3.0)
  | l -> Alcotest.failf "expected one verdict, got %d" (List.length l)

let test_detector_ewma_flagging () =
  (* Evidence threshold out of reach: only the EWMA path can flag. *)
  let config =
    { Detector.default_config with Detector.evidence_threshold = 100.0 }
  in
  let d = Detector.create ~config () in
  Detector.feed d
    (mk ~subject_node:7 ~time:0.5 ~kind:Audit.Replay_rejected ~cause:"x" ());
  (* prospective EWMA 0.3 * 1.0 = 0.3 < 0.5 *)
  Alcotest.(check (list int)) "one event below EWMA threshold" []
    (Detector.suspects d);
  Detector.feed d
    (mk ~subject_node:7 ~time:1.0 ~kind:Audit.Replay_rejected ~cause:"x" ());
  (* prospective EWMA 0.3 * 2.0 = 0.6 >= 0.5: a same-window burst flags
     online, not one window late *)
  Alcotest.(check (list int)) "burst crosses EWMA" [ 7 ] (Detector.suspects d);
  (* A long quiet gap decays the EWMA back down (peak is retained). *)
  Detector.feed d
    (mk ~subject_node:7 ~time:100.0 ~kind:Audit.Rerr_implausible ~cause:"x" ());
  match Detector.verdicts d with
  | [ v ] ->
      Alcotest.(check bool) "peak retained above threshold" true
        (v.Detector.v_ewma_peak >= 0.5)
  | l -> Alcotest.failf "expected one verdict, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* End-to-end: planted adversaries vs ground truth                    *)
(* ------------------------------------------------------------------ *)

let test_blackhole_flagged () =
  let adversaries = [ (2, { Adversary.blackhole with forge_rrep = false }) ] in
  let s = Scenario.create (chain_params ~adversaries ()) in
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:1.0 ~duration:10.0 ();
  Scenario.run s ~until:60.0;
  let det = Scenario.detector s in
  Alcotest.(check (list int)) "ground truth" [ 2 ] (Scenario.adversary_ids s);
  Alcotest.(check bool) "blackhole flagged" true
    (List.mem 2 (Detector.suspects det));
  let a = Detector.score det ~truth:(Scenario.adversary_ids s) in
  Alcotest.(check int) "true positive" 1 a.Detector.tp;
  Alcotest.(check int) "no miss" 0 a.Detector.fn;
  Alcotest.(check (float 0.0)) "recall" 1.0 a.Detector.recall;
  (* The adversary's own ground-truth events are in the stream. *)
  let evs = Audit.events (Obs.audit (Scenario.obs s)) in
  Alcotest.(check bool) "ground-truth drops recorded" true
    (List.exists (fun ev -> ev.Audit.kind = Audit.Attack_drop) evs);
  (* In a chain the blackhole answers its own probe and swallows the
     downstream hop's, so the probe verdict names the next hop and the
     blackhole is accused as its predecessor — the §3.4 ambiguity.  The
     repeated discounted slashes are what push it over the threshold. *)
  Alcotest.(check bool) "probe verdicts recorded" true
    (List.exists
       (fun ev -> ev.Audit.kind = Audit.Blackhole_probe_result)
       evs);
  Alcotest.(check bool) "predecessor slashes name the blackhole" true
    (List.exists
       (fun ev ->
         ev.Audit.kind = Audit.Credit_slash && ev.Audit.subject_node = Some 2)
       evs);
  (* Renderer smoke: both views mention the culprit. *)
  Alcotest.(check bool) "timeline renders" true
    (String.length (Audit.render_timeline evs) > 0);
  Alcotest.(check bool) "scorecards render" true
    (String.length (Audit.render_scorecards evs) > 0)

let test_replayer_flagged () =
  let adversaries = [ (2, Adversary.replayer) ] in
  let s = Scenario.create (chain_params ~adversaries ()) in
  (* First discovery: the replayer captures the genuine RREP in
     transit; the second (from another source, same destination)
     triggers the replay. *)
  let got1 = ref None in
  Scenario.discover s ~src:1 ~dst:4 (fun r -> got1 := Some r);
  Scenario.run s ~until:10.0;
  (match !got1 with
  | Some (Some _) -> ()
  | _ -> Alcotest.fail "discovery 1 failed");
  Scenario.discover s ~src:0 ~dst:4 (fun _ -> ());
  Scenario.run s ~until:30.0;
  let det = Scenario.detector s in
  Alcotest.(check bool) "replayer flagged" true
    (List.mem 2 (Detector.suspects det));
  let a = Detector.score det ~truth:(Scenario.adversary_ids s) in
  Alcotest.(check int) "no miss" 0 a.Detector.fn;
  Alcotest.(check (float 0.0)) "recall" 1.0 a.Detector.recall;
  let evs = Audit.events (Obs.audit (Scenario.obs s)) in
  Alcotest.(check bool) "attributed replay rejection recorded" true
    (List.exists
       (fun ev ->
         ev.Audit.kind = Audit.Replay_rejected
         && ev.Audit.subject_node = Some 2)
       evs)

let test_attacker_free_zero_flags () =
  let s = Scenario.create (chain_params ()) in
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:1.0 ~duration:10.0 ();
  Scenario.run s ~until:60.0;
  Alcotest.(check (list int)) "no ground truth" [] (Scenario.adversary_ids s);
  Alcotest.(check (list int)) "no suspects" []
    (Detector.suspects (Scenario.detector s));
  let a =
    Detector.score (Scenario.detector s) ~truth:(Scenario.adversary_ids s)
  in
  Alcotest.(check int) "no false positives" 0 a.Detector.fp;
  Alcotest.(check (float 0.0)) "vacuous precision" 1.0 a.Detector.precision

(* ------------------------------------------------------------------ *)
(* Export byte-determinism and offline replay                         *)
(* ------------------------------------------------------------------ *)

let run_blackhole () =
  let adversaries = [ (2, { Adversary.blackhole with forge_rrep = false }) ] in
  let s = Scenario.create (chain_params ~adversaries ()) in
  Metrics.set_enabled (Obs.metrics (Scenario.obs s)) true;
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:1.0 ~duration:10.0 ();
  Scenario.run s ~until:60.0;
  s

let test_export_byte_determinism () =
  let s1 = run_blackhole () in
  let s2 = run_blackhole () in
  let audit s =
    Audit.to_jsonl ~meta:[ ("seed", Json.Int 7) ] (Obs.audit (Scenario.obs s))
  in
  let csv s = Metrics.to_csv ~stats:(Scenario.stats s) (Obs.metrics (Scenario.obs s)) in
  let prom s =
    Metrics.to_prom ~stats:(Scenario.stats s) (Obs.metrics (Scenario.obs s))
  in
  Alcotest.(check bool) "audit jsonl byte-identical" true
    (String.equal (audit s1) (audit s2));
  Alcotest.(check bool) "metrics csv byte-identical" true
    (String.equal (csv s1) (csv s2));
  Alcotest.(check bool) "metrics prom byte-identical" true
    (String.equal (prom s1) (prom s2));
  (* Replaying the exported stream offline reaches the online verdicts:
     the detector is a pure fold over the event stream. *)
  let offline = Detector.create () in
  List.iter (Detector.feed offline)
    (Audit.parse_jsonl (audit s1)).Audit.parsed_events;
  Alcotest.(check (list int)) "offline replay = online verdicts"
    (Detector.suspects (Scenario.detector s1))
    (Detector.suspects offline)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "audit",
      [
        tc "stream basics" test_audit_stream_basics;
        tc "recording switch" test_audit_recording_switch;
        tc "kind labels" test_audit_kind_labels;
        tc "jsonl roundtrip" test_audit_jsonl_roundtrip;
        tc "metrics windows" test_metrics_windows;
        tc "detector weights" test_detector_weights;
        tc "detector evidence flagging" test_detector_evidence_flagging;
        tc "detector ewma flagging" test_detector_ewma_flagging;
        tc "blackhole flagged" test_blackhole_flagged;
        tc "replayer flagged" test_replayer_flagged;
        tc "attacker-free zero flags" test_attacker_free_zero_flags;
        tc "export byte determinism" test_export_byte_determinism;
      ] );
  ]
