(* Tests for the security observability layer (DESIGN.md §5c): the
   typed audit event stream and the windowed metrics engine, including
   the end-to-end acceptance properties: the protocol's own verdicts
   name planted adversaries, attacker-free runs accuse nobody, and
   every export is byte-deterministic across replays. *)

module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Obs = Manetsec.Obs
module Audit = Manetsec.Audit
module Metrics = Manetsec.Metrics
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

(* The retained events and the export header, read back through the
   JSONL export. *)
let exported a = Audit.parse_jsonl (Audit.to_jsonl a)
let events a = (exported a).Audit.parsed_events

let header_int name a =
  Option.bind (Json.member name (exported a).Audit.header) Json.to_int_opt

let test_audit_stream_basics () =
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
  (match events a with
  | [ e1; e2 ] ->
      Alcotest.(check int) "seq dense from 1" 1 e1.Audit.seq;
      Alcotest.(check int) "seq dense" 2 e2.Audit.seq;
      Alcotest.(check (float 1e-9)) "sim time stamped" 1.5 e1.Audit.time;
      Alcotest.(check (option int)) "subject node" (Some 4) e2.Audit.subject_node;
      Alcotest.(check (option string)) "subject addr" (Some "fec0::5")
        e2.Audit.subject_addr
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  Alcotest.(check (list int)) "subscribers saw every emission" [ 2; 1 ] !seen;
  Alcotest.(check string) "per-kind histogram per node"
    "node 2: 1 emitted, 0 accusations\n\
    \  emitted   sig_verify_fail=1\n\
     node 3: 1 emitted, 0 accusations\n\
    \  emitted   replay_rejected=1\n\
     node 4: 0 emitted, 1 accusations\n\
    \  accused   replay_rejected=1\n"
    (Audit.render_scorecards (events a))

let test_audit_recording_switch () =
  let e = Engine.create ~seed:1 () in
  let a = Audit.create ~capacity:2 e in
  Audit.emit a ~kind:Audit.Dad_collision ~node:0 ~cause:"default" ();
  Alcotest.(check int) "recording on by default" 1 (List.length (events a));
  let a = Audit.create ~capacity:2 e in
  Audit.set_recording a false;
  Audit.emit a ~kind:Audit.Dad_collision ~node:1 ~cause:"off" ();
  Alcotest.(check int) "counted while off" 1 (Audit.count a);
  Alcotest.(check int) "nothing retained while off" 0
    (List.length (events a));
  Audit.set_recording a true;
  for i = 1 to 3 do
    Audit.emit a ~kind:Audit.Dad_collision ~node:i ~cause:"on" ()
  done;
  Alcotest.(check int) "retention capped" 2 (List.length (events a));
  Alcotest.(check (option int)) "oldest dropped" (Some 1)
    (header_int "dropped" a)

let test_audit_kind_labels () =
  (* Every kind's label is distinct, so the export names it uniquely;
     the JSONL roundtrip below reads each label back. *)
  let labels = List.map Audit.kind_label Audit.all_kinds in
  Alcotest.(check int) "labels are distinct" (List.length labels)
    (List.length (List.sort_uniq String.compare labels));
  let e = Engine.create ~seed:1 () in
  let a = Audit.create e in
  List.iter (fun kind -> Audit.emit a ~kind ~node:1 ~cause:"k" ()) Audit.all_kinds;
  Alcotest.(check bool) "every label roundtrips through the export" true
    (List.map (fun ev -> ev.Audit.kind) (events a) = Audit.all_kinds)

let test_audit_jsonl_roundtrip () =
  let e = Engine.create ~seed:1 () in
  let a = Audit.create e in
  let emitted = ref [] in
  Audit.on_emit a (fun ev -> emitted := ev :: !emitted);
  Engine.schedule e ~delay:0.25 (fun () ->
      Audit.emit a ~kind:Audit.Cga_mismatch ~node:1 ~subject_addr:"fec0::2"
        ~cause:"key/address binding" ();
      Audit.emit a ~kind:Audit.Blackhole_probe_result ~node:2 ~subject_node:3
        ~cause:"hop 1 of 2 silent" ());
  Engine.run e;
  let text = Audit.to_jsonl ~meta:[ ("seed", Json.Int 1) ] a in
  let parsed = Audit.parse_jsonl text in
  Alcotest.(check bool) "events roundtrip" true
    (parsed.Audit.parsed_events = List.rev !emitted);
  Alcotest.(check (option string)) "schema in header" (Some "manetsim-audit")
    (Option.bind (Json.member "schema" parsed.Audit.header) Json.to_string_opt);
  Alcotest.(check (option int)) "version in header" (Some 1)
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
       {|{"schema":"manetsim-audit","version":1}
{"type":"audit","seq":1,"t":0.0,"kind":"not_a_kind","node":1,"cause":"x"}|})

(* ------------------------------------------------------------------ *)
(* Windowed metrics                                                   *)
(* ------------------------------------------------------------------ *)

let test_metrics_windows () =
  let e = Engine.create ~seed:1 () in
  let m = Metrics.create ~window:2.0 e in
  let x = Stats.key "x" in
  Metrics.record m ~node:1 ~by:1 x;
  (* no-op while disabled *)
  Metrics.set_enabled m true;
  Metrics.record m ~node:1 ~by:1 x;
  Engine.schedule e ~delay:3.0 (fun () ->
      Metrics.record m ~node:1 ~by:2 x;
      Metrics.observe m ~node:2 (Stats.key "lat") 0.5);
  Engine.run e;
  let csv = Metrics.to_csv m in
  let counter_rows =
    String.split_on_char '\n' csv
    |> List.filter (String.starts_with ~prefix:"counter,")
  in
  (* Disabled by default: the first record is not counted.  The 2 s
     windows start at 0 and 2; node -1 is the global aggregate. *)
  Alcotest.(check (list string)) "per-node and global windowed cells"
    [
      "counter,x,-1,0.0,1,,,,";
      "counter,x,-1,2.0,2,,,,";
      "counter,x,1,0.0,1,,,,";
      "counter,x,1,2.0,2,,,,";
    ]
    counter_rows;
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
(* End-to-end: planted adversaries vs ground truth                    *)
(* ------------------------------------------------------------------ *)

let test_blackhole_flagged () =
  let adversaries = [ (2, { Adversary.blackhole with forge_rrep = false }) ] in
  let s = Scenario.create (chain_params ~adversaries ()) in
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:1.0 ~duration:10.0 ();
  Scenario.run s ~until:60.0;
  Alcotest.(check (list int)) "ground truth" [ 2 ]
    (List.map fst (Scenario.params s).Scenario.adversaries);
  (* The adversary's own ground-truth events are in the stream. *)
  let evs = events (Obs.audit (Scenario.obs s)) in
  Alcotest.(check bool) "ground-truth drops recorded" true
    (List.exists (fun ev -> ev.Audit.kind = Audit.Attack_drop) evs);
  (* In a chain the blackhole answers its own probe and swallows the
     downstream hop's, so the probe verdict names the next hop and the
     blackhole is accused as its predecessor — the §3.4 ambiguity. *)
  Alcotest.(check bool) "probe verdicts recorded" true
    (List.exists
       (fun ev -> ev.Audit.kind = Audit.Blackhole_probe_result)
       evs);
  Alcotest.(check bool) "predecessor slashes name the blackhole" true
    (List.exists
       (fun ev ->
         ev.Audit.kind = Audit.Credit_slash && ev.Audit.subject_node = Some 2)
       evs);
  (* Renderer smoke: the timeline and the scorecards render. *)
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
  let evs = events (Obs.audit (Scenario.obs s)) in
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
  Alcotest.(check bool) "no ground truth" true
    ((Scenario.params s).Scenario.adversaries = []);
  Alcotest.(check (list int)) "nobody accused" []
    (List.filter_map
       (fun ev -> ev.Audit.subject_node)
       (events (Obs.audit (Scenario.obs s))))

(* ------------------------------------------------------------------ *)
(* Export byte-determinism and offline replay                         *)
(* ------------------------------------------------------------------ *)

(* A black-hole chain run with span and event capture on; [observe]
   switches audit retention and windowed metrics.  Emission itself has
   no switch, so audit subscribers see every event either way. *)
let run_blackhole ~observe =
  let adversaries = [ (2, { Adversary.blackhole with forge_rrep = false }) ] in
  let s = Scenario.create (chain_params ~adversaries ()) in
  let obs = Scenario.obs s in
  Obs.set_capture obs true;
  Audit.set_recording (Obs.audit obs) observe;
  Metrics.set_enabled (Obs.metrics obs) observe;
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:1.0 ~duration:10.0 ();
  Scenario.run s ~until:60.0;
  s

(* Retention and metrics observe the run and never steer it: they draw
   no randomness and schedule no events, so turning both off leaves the
   span trace and the emission count exactly as they were. *)
let test_observation_non_perturbing () =
  let off = run_blackhole ~observe:false in
  let on = run_blackhole ~observe:true in
  let audit s = Obs.audit (Scenario.obs s) in
  let trace s = Obs.to_jsonl ~meta:[ ("seed", Json.Int 7) ] (Scenario.obs s) in
  Alcotest.(check bool) "span trace byte-identical" true
    (String.equal (trace off) (trace on));
  Alcotest.(check int) "same events emitted" (Audit.count (audit on))
    (Audit.count (audit off));
  Alcotest.(check bool) "the run emitted audit events" true
    (Audit.count (audit on) > 0);
  Alcotest.(check int) "retention off keeps nothing" 0
    (List.length (events (audit off)))

let test_export_byte_determinism () =
  let s1 = run_blackhole ~observe:true in
  let s2 = run_blackhole ~observe:true in
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
    (String.equal (prom s1) (prom s2))

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
        tc "blackhole flagged" test_blackhole_flagged;
        tc "replayer flagged" test_replayer_flagged;
        tc "attacker-free zero flags" test_attacker_free_zero_flags;
        tc "export byte determinism" test_export_byte_determinism;
        tc "observation non-perturbing" test_observation_non_perturbing;
      ] );
  ]
