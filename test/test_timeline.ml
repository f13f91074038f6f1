(* The timeline/flood-provenance contract: bucket aggregation is exact
   (window sums equal the unbucketed totals, windows are half-open),
   flood propagation trees respect causality (a parent is seen no later
   than any child it reaches), and the JSONL export is byte-identical
   across same-seed replays and sweep domain counts — the property the
   CI timeline determinism gates also check end-to-end through the
   CLI. *)

module Engine = Manet_sim.Engine
module Net = Manet_sim.Net
module Suite = Manet_crypto.Suite
module Timeline = Manetsec.Timeline
module Flood = Manetsec.Flood
module Json = Manetsec.Obs_json
module Obs = Manetsec.Obs
module Audit = Manetsec.Audit
module Merge = Manetsec.Merge
module Sweep = Manetsec.Sweep
module Scenario = Manetsec.Scenario

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- bare-engine bucket mechanics --------------------------------------- *)

(* Drive a bare engine through the installed per-event hook: schedule
   one no-op event per timestamp and let the engine fire the tick. *)
let run_times ~width times =
  let e = Engine.create ~seed:1 () in
  let tl = Timeline.create ~width e in
  Timeline.install tl;
  List.iter (fun t -> Engine.schedule_at e ~time:t (fun () -> ())) times;
  Engine.run e;
  Timeline.flush tl;
  (e, tl)

let test_half_open_boundaries () =
  Alcotest.(check int) "schema version pinned" 1 Timeline.schema_version;
  Alcotest.(check (float 0.0)) "default width" 1.0 Timeline.default_width;
  let e, tl = run_times ~width:2.0 [ 0.5; 1.99; 2.0 ] in
  Alcotest.(check (float 0.0)) "width recorded" 2.0 (Timeline.width tl);
  Alcotest.(check bool) "recording on by default" true (Timeline.enabled tl);
  (* [0, 2) holds 0.5 and 1.99; the boundary event 2.0 opens bucket 1. *)
  Alcotest.(check (list (pair int int)))
    "half-open windows: boundary event falls in the next bucket"
    [ (0, 2); (1, 1) ]
    (List.map
       (fun b -> (b.Timeline.b_index, b.Timeline.b_events))
       (Timeline.buckets tl));
  Alcotest.(check int) "bucket_count agrees" 2 (Timeline.bucket_count tl);
  (* Ticks with no new activity (driven directly, as the mli allows)
     materialise nothing: only windows that saw work exist. *)
  Timeline.tick tl 10.0;
  Timeline.flush tl;
  Alcotest.(check int) "idle windows materialise no bucket" 2
    (Timeline.bucket_count tl);
  ignore (Sys.opaque_identity (Engine.events_processed e))

let test_width_validated () =
  let e = Engine.create ~seed:1 () in
  Alcotest.check_raises "non-positive width rejected"
    (Invalid_argument "Timeline.create: width must be positive") (fun () ->
      ignore (Timeline.create ~width:0.0 e))

let test_disabled_records_nothing () =
  let e = Engine.create ~seed:1 () in
  let tl = Timeline.create e in
  Timeline.install tl;
  Timeline.set_enabled tl false;
  List.iter
    (fun t -> Engine.schedule_at e ~time:t (fun () -> ()))
    [ 0.5; 3.0; 7.5 ];
  Engine.run e;
  Timeline.flush tl;
  Alcotest.(check bool) "switch reads back" false (Timeline.enabled tl);
  Alcotest.(check int) "disabled timeline stays empty" 0
    (Timeline.bucket_count tl)

let test_export_shape_and_idempotent_flush () =
  let e, tl = run_times ~width:1.0 [ 0.25; 1.5; 1.75 ] in
  let fl = Flood.create e in
  (match Json.member "schema" (Timeline.header tl) with
  | Some (Json.String s) ->
      Alcotest.(check string) "header carries the schema" Timeline.schema s
  | _ -> Alcotest.fail "timeline header has no schema member");
  List.iter
    (fun b ->
      match Json.member "type" (Timeline.bucket_json b) with
      | Some (Json.String "bucket") -> ()
      | _ -> Alcotest.fail "bucket line is not typed \"bucket\"")
    (Timeline.buckets tl);
  (* to_jsonl flushes; a second export may only close zero-delta
     windows, which materialise nothing — bytes must not change. *)
  let a = Timeline.to_jsonl tl ~flood:fl in
  let b = Timeline.to_jsonl tl ~flood:fl in
  Alcotest.(check string) "double export is byte-identical" a b

(* Window sums = unbucketed totals, at any width, for any event-time
   sequence; bucket indices are exactly the half-open window indices of
   the timestamps, and empty windows never materialise. *)
let times_gen =
  QCheck.pair
    (QCheck.oneofl [ 0.5; 1.0; 2.5 ])
    QCheck.(list_of_size Gen.(int_range 0 60) (int_bound 2999))

let prop_bucket_aggregation =
  qtest "bucket sums = totals; indices = half-open window ids" times_gen
    (fun (width, raw) ->
      let times = List.map (fun k -> float_of_int k /. 100.0) raw in
      let e, tl = run_times ~width times in
      let buckets = Timeline.buckets tl in
      (* Expected tally with the hook's own index arithmetic. *)
      let tally = Hashtbl.create 16 in
      List.iter
        (fun t ->
          let i = int_of_float (t /. width) in
          Hashtbl.replace tally i
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally i)))
        times;
      let expected =
        Hashtbl.fold (fun i c acc -> (i, c) :: acc) tally []
        |> List.sort compare
      in
      let got =
        List.map (fun b -> (b.Timeline.b_index, b.Timeline.b_events)) buckets
      in
      let rec increasing = function
        | a :: (b :: _ as rest) ->
            a.Timeline.b_index < b.Timeline.b_index && increasing rest
        | _ -> true
      in
      got = expected
      && List.fold_left (fun acc b -> acc + b.Timeline.b_events) 0 buckets
         = Engine.events_processed e
      && List.for_all (fun b -> b.Timeline.b_events > 0) buckets
      && increasing buckets
      && Timeline.bucket_count tl = List.length buckets)

(* --- flood-tree invariants ---------------------------------------------- *)

(* Replay a generated reception history against a live engine clock,
   with causality enforced the way the protocols guarantee it: a copy's
   sender is always a node that already holds the flood (or the
   origin).  Each op is (time-ticks, key, node, src, hops, dup?,
   verify?). *)
let origin_node = 1000

let rreq_key k =
  { Flood.kind = Flood.Rreq; hi = 0L; lo = Int64.of_int k; seq = k; ch = 0L }

let apply_flood_ops ops =
  let e = Engine.create ~seed:1 () in
  let fl = Flood.create e in
  let holders : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (ticks, k, node, src0, hops, dup, verify) ->
      Engine.schedule_at e
        ~time:(float_of_int ticks /. 10.0)
        (fun () ->
          let key = rreq_key k in
          let nodes =
            match Hashtbl.find_opt holders k with
            | Some s -> s
            | None ->
                let s = Hashtbl.create 8 in
                Hashtbl.replace s origin_node ();
                Hashtbl.replace holders k s;
                Flood.sent fl (Flood.handle fl ~key ~origin:origin_node);
                s
          in
          let src = if Hashtbl.mem nodes src0 then src0 else origin_node in
          let h = Flood.handle fl ~key ~origin:src in
          Flood.received fl h ~node ~src ~hops;
          Hashtbl.replace nodes node ();
          if dup then Flood.duplicate fl h else Flood.sent fl h;
          if verify then Flood.verified fl h ~node))
    ops;
  Engine.run e;
  (fl, ops)

let flood_ops_gen =
  QCheck.(
    list_of_size
      Gen.(int_range 0 50)
      (map
         (fun ((ticks, k), ((node, src), (hops, (dup, verify)))) ->
           (ticks, k, node, src, hops, dup, verify))
         (pair
            (pair (int_bound 200) (int_bound 2))
            (pair
               (pair (int_bound 9) (int_bound 9))
               (pair (int_bound 4) (pair bool bool))))))

let summary_invariants s =
  s.Flood.duplicates <= s.Flood.received
  && s.Flood.reached <= s.Flood.received
  && s.Flood.verify_nodes <= s.Flood.reached
  && s.Flood.verify_nodes <= s.Flood.verifies
  && s.Flood.start <= s.Flood.last
  && String.equal (Flood.kind_str s.Flood.kind) "rreq"

let tree_invariants fl s =
  let cells = Flood.tree fl ~id:s.Flood.id in
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  List.length cells = s.Flood.reached
  && sorted cells
  && List.fold_left (fun acc (_, (_, _, _, v)) -> acc + v) 0 cells
     = s.Flood.verifies
  && List.for_all
       (fun (_, (first_seen, parent, hops, verifies)) ->
         first_seen >= s.Flood.start
         && first_seen <= s.Flood.last
         && hops <= s.Flood.hop_radius
         && verifies >= 0
         &&
         (* Causality: a parent that was itself reached was reached no
            later than its child.  The origin is exempt — it holds the
            flood from the start, and its own cell (if any) records when
            its flood echoed back, which can postdate its children. *)
         parent = s.Flood.origin
         ||
         match List.assoc_opt parent cells with
         | None -> true (* an unknown sender *)
         | Some (parent_first, _, _, _) -> parent_first <= first_seen)
       cells

let prop_flood_tree_invariants =
  qtest ~count:150 "flood summaries and trees respect the protocol bounds"
    flood_ops_gen (fun ops ->
      let fl, ops = apply_flood_ops ops in
      let summaries = Flood.summaries fl in
      let distinct_keys =
        List.sort_uniq compare (List.map (fun (_, k, _, _, _, _, _) -> k) ops)
      in
      Flood.flood_count fl = List.length distinct_keys
      && List.length summaries = Flood.flood_count fl
      (* Ids are dense in first-origination order. *)
      && List.for_all2
           (fun i s -> s.Flood.id = i)
           (List.init (List.length summaries) Fun.id)
           summaries
      && List.for_all summary_invariants summaries
      && List.for_all (tree_invariants fl) summaries
      (* The two derived metrics agree with their definitions read off
         the summaries (integer folds, so equality is exact). *)
      &&
      let extra =
        List.fold_left
          (fun acc s -> acc + max 0 (s.Flood.verifies - s.Flood.verify_nodes))
          0 summaries
      in
      let recv =
        List.fold_left (fun acc s -> acc + s.Flood.received) 0 summaries
      in
      let reached =
        List.fold_left (fun acc s -> acc + s.Flood.reached) 0 summaries
      in
      Float.equal
        (Flood.duplicate_verifies_per_flood fl)
        (if summaries = [] then 0.0
         else float_of_int extra /. float_of_int (List.length summaries))
      && Float.equal
           (Flood.flood_redundancy_ratio fl)
           (if reached = 0 then 0.0
            else float_of_int recv /. float_of_int reached))

(* Typed keys: equal fields name the same flood, any differing field a
   new one, and kind separates AREQ from RREQ keys with equal sip/seq
   (the string keys' "A:"/"R:" prefix used to guarantee that). *)
let key_gen =
  QCheck.(
    map
      (fun (areq, (hi, (lo, (seq, ch)))) ->
        {
          Flood.kind = (if areq then Flood.Areq else Flood.Rreq);
          hi;
          lo;
          seq;
          ch = (if areq then ch else 0L);
        })
      (pair bool (pair int64 (pair int64 (pair small_nat int64)))))

(* One field changed at a time, so the variant always differs. *)
let variants (k : Flood.key) =
  [
    {
      k with
      kind = (match k.kind with Flood.Areq -> Flood.Rreq | Flood.Rreq -> Flood.Areq);
    };
    { k with hi = Int64.succ k.hi };
    { k with lo = Int64.succ k.lo };
    { k with seq = k.seq + 1 };
    { k with ch = Int64.succ k.ch };
  ]

let prop_flood_key_identity =
  qtest ~count:300 "flood keys: equal fields share an id, any change is new"
    (QCheck.pair key_gen (QCheck.int_bound 4)) (fun (k, which) ->
      let fl = Flood.create (Engine.create ~seed:1 ()) in
      let id_of key =
        ignore (Flood.handle fl ~key ~origin:0);
        (List.nth (List.rev (Flood.summaries fl)) 0).Flood.id
      in
      let a = id_of k in
      let copy x = Int64.of_string (Int64.to_string x) in
      let a' = id_of { k with hi = copy k.hi; lo = copy k.lo; ch = copy k.ch } in
      let b = id_of (List.nth (variants k) which) in
      a = a' && b <> a && Flood.flood_count fl = 2)

let prop_areq_rreq_disjoint =
  qtest ~count:300 "flood keys: an AREQ and an RREQ never share a flood"
    (QCheck.pair QCheck.int64 (QCheck.pair QCheck.int64 QCheck.small_nat))
    (fun (hi, (lo, seq)) ->
      let fl = Flood.create (Engine.create ~seed:1 ()) in
      let key kind = { Flood.kind; hi; lo; seq; ch = 0L } in
      Flood.sent fl (Flood.handle fl ~key:(key Flood.Areq) ~origin:1);
      Flood.sent fl (Flood.handle fl ~key:(key Flood.Rreq) ~origin:2);
      match Flood.summaries fl with
      | [ a; r ] ->
          Flood.flood_count fl = 2
          && a.Flood.kind = Flood.Areq && a.Flood.origin = 1 && a.Flood.sent = 1
          && r.Flood.kind = Flood.Rreq && r.Flood.origin = 2 && r.Flood.sent = 1
      | _ -> false)

(* --- end-to-end through a real scenario --------------------------------- *)

let small_run seed =
  let params =
    {
      Scenario.default_params with
      n = 8;
      seed;
      protocol = Scenario.Secure;
    }
  in
  let s = Scenario.create params in
  Scenario.bootstrap ~stagger:0.3 s;
  Scenario.send s ~src:1 ~dst:5 ();
  Scenario.run s ~until:30.0;
  s

(* The scenario wires the timeline to every counter source; after a
   flush each windowed series must sum back to its cumulative total. *)
let test_scenario_window_sums () =
  let s = small_run 7 in
  let tl = Obs.timeline (Scenario.obs s) in
  Timeline.flush tl;
  let buckets = Timeline.buckets tl in
  Alcotest.(check bool) "the run produced buckets" true (buckets <> []);
  let sum get = List.fold_left (fun acc b -> acc + get b) 0 buckets in
  let net = Scenario.net s and suite = Scenario.suite s in
  Alcotest.(check int) "event windows sum to events_processed"
    (Engine.events_processed (Scenario.engine s))
    (sum (fun b -> b.Timeline.b_events));
  Alcotest.(check int) "delivery windows sum to Net.deliveries"
    (Net.deliveries net)
    (sum (fun b -> b.Timeline.b_deliveries));
  Alcotest.(check int) "transmission windows sum to Net.transmissions"
    (Net.transmissions net)
    (sum (fun b -> b.Timeline.b_transmissions));
  Alcotest.(check int) "drop windows sum to Net.unicast_failures"
    (Net.unicast_failures net)
    (sum (fun b -> b.Timeline.b_drops));
  Alcotest.(check int) "sign windows sum to the suite total"
    suite.Suite.sign_count
    (sum (fun b -> b.Timeline.b_signs));
  Alcotest.(check int) "verify windows sum to the suite total"
    suite.Suite.verify_count
    (sum (fun b -> b.Timeline.b_verifies));
  Alcotest.(check int) "hash-block windows sum to the suite total"
    suite.Suite.sha256_blocks
    (sum (fun b -> b.Timeline.b_hash_blocks));
  Alcotest.(check int) "audit windows sum to Audit.count"
    (Audit.count (Obs.audit (Scenario.obs s)))
    (sum (fun b -> b.Timeline.b_audit));
  (* And the secure bootstrap actually flooded something. *)
  Alcotest.(check bool) "floods were recorded" true
    (Flood.flood_count (Obs.flood (Scenario.obs s)) > 0)

let test_scenario_flood_trees () =
  let s = small_run 11 in
  let fl = Obs.flood (Scenario.obs s) in
  let summaries = Flood.summaries fl in
  Alcotest.(check bool) "bootstrap + discovery produced floods" true
    (summaries <> []);
  List.iter
    (fun s ->
      if not (s.Flood.duplicates <= s.Flood.received) then
        Alcotest.failf "flood %d: duplicates %d > received %d" s.Flood.id
          s.Flood.duplicates s.Flood.received;
      if not (tree_invariants fl s) then
        Alcotest.failf "flood %d (%s): tree invariants violated" s.Flood.id
          (Flood.kind_str s.Flood.kind))
    summaries

let test_timeline_jsonl_replay_identical () =
  let export s = Scenario.timeline_jsonl ~meta:[ ("seed", Json.Int 7) ] s in
  let a = export (small_run 7) and b = export (small_run 7) in
  Alcotest.(check string) "same-seed timeline export byte-identical" a b;
  match String.split_on_char '\n' a with
  | header :: _ -> (
      let j = Json.parse header in
      (match Json.member "schema" j with
      | Some (Json.String s) ->
          Alcotest.(check string) "header schema" Timeline.schema s
      | _ -> Alcotest.fail "exported header has no schema");
      match Json.member "version" j with
      | Some (Json.Int v) ->
          Alcotest.(check int) "header version" Timeline.schema_version v
      | _ -> Alcotest.fail "exported header has no version")
  | [] -> Alcotest.fail "empty timeline export"

(* Small but genuinely fanning grid (4 points), as in test_perf. *)
let spec =
  {
    Sweep.e1_fractions = [ 0.2 ];
    e1_nodes = 12;
    e1_duration = 5.0;
    e6_sizes = [ 8 ];
    seeds = [ 1; 2 ];
  }

let test_timeline_domain_invariant () =
  let export domains =
    Merge.stream_jsonl ~name:"timeline"
      (Sweep.run ~domains ~exports:[ Manetsec.Export.Timeline_jsonl ] spec)
  in
  let base = export 1 in
  Alcotest.(check bool) "timeline stream non-empty" true (base <> "");
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "timeline jsonl byte-identical at %d domain(s)"
           domains)
        base (export domains))
    [ 2; 4 ]

(* --- flood state: seen sets and the packed provenance tree --------------- *)

(* Keys from a small pool, so a sequence repeats floods; the pool's two
   kinds share every other field, so they must stay distinct members. *)
let pool_key k =
  {
    Flood.kind = (if k land 1 = 0 then Flood.Areq else Flood.Rreq);
    hi = 7L;
    lo = Int64.of_int (k lsr 1);
    seq = k lsr 1;
    ch = 0L;
  }

(* The compact seen set against a [Flood.Ktbl] model.  Each op is
   (op, k): 0 adds flood k, 1 finds it by key, 2 asks [mem] with its
   handle.  Up to 600 ops over 400 keys take a set from 8 slots through
   several doublings. *)
let prop_seen_set_model =
  qtest ~count:200 "seen set agrees with a Ktbl model"
    QCheck.(list_of_size Gen.(int_range 0 600) (pair (int_bound 2) (int_bound 399)))
    (fun ops ->
      let fl = Flood.create (Engine.create ~seed:1 ()) in
      let seen = Flood.Seen.create () in
      let model = Flood.Ktbl.create 16 in
      List.for_all
        (fun (op, k) ->
          let key = pool_key k in
          match op with
          | 0 ->
              let h = Flood.handle fl ~key ~origin:0 in
              Flood.Seen.add seen h;
              Flood.Ktbl.replace model key h;
              true
          | 1 -> (
              match
                (Flood.Seen.find fl seen key, Flood.Ktbl.find_opt model key)
              with
              | h, Some h' -> h == h'
              | _, None -> false
              | exception Not_found -> not (Flood.Ktbl.mem model key))
          | _ ->
              Flood.Seen.mem seen (Flood.handle fl ~key ~origin:0)
              = Flood.Ktbl.mem model key)
        ops)

(* Memory budgets, measured with [Obj.reachable_words]: a bootstrap's N
   floods x N nodes of provenance cost about two words per pair (a first-
   seen float and a packed int), and a seen set about one int slot per
   entry at a load of at most 3/4.  The 300 floods are registered before
   the baseline measurement, so the difference is the per-(flood, node)
   state alone; the registry's engine is reachable in both. *)
let test_flood_state_words () =
  let n = 300 in
  let words x = Obj.reachable_words (Obj.repr x) in
  let fl = Flood.create (Engine.create ~seed:1 ()) in
  let hs = Array.init n (fun k -> Flood.handle fl ~key:(rreq_key k) ~origin:0) in
  let before = words fl in
  Array.iter
    (fun h ->
      for node = 0 to n - 1 do
        Flood.received fl h ~node ~src:(max 0 (node - 1)) ~hops:(node mod 20);
        if node mod 7 = 0 then Flood.verified fl h ~node
      done)
    hs;
  let per_pair = float_of_int (words fl - before) /. float_of_int (n * n) in
  Alcotest.(check bool)
    (Printf.sprintf "registry: %.2f words per (flood, node) <= 2.5" per_pair)
    true (per_pair <= 2.5);
  let seen = Flood.Seen.create () in
  Array.iter (Flood.Seen.add seen) hs;
  let per_entry = float_of_int (words seen) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "seen set: %.2f words per entry <= 3" per_entry)
    true (per_entry <= 3.0);
  let key = rreq_key 123 in
  let per_find =
    Test_crypto.minor_words_per_call 10_000 (fun () ->
        ignore (Sys.opaque_identity (Flood.Seen.find fl seen key)))
  in
  Alcotest.(check (float 0.0)) "Seen.find allocates nothing" 0.0 per_find;
  match Flood.summaries fl with
  | s :: _ ->
      Alcotest.(check int) "every node reached" n s.Flood.reached;
      Alcotest.(check int) "verifying nodes" 43 s.Flood.verify_nodes;
      Alcotest.(check int) "tree cells" n (List.length (Flood.tree fl ~id:0))
  | [] -> Alcotest.fail "no floods"

let suites =
  [
    ( "timeline",
      [
        Alcotest.test_case "half-open bucket boundaries" `Quick
          test_half_open_boundaries;
        Alcotest.test_case "width validation" `Quick test_width_validated;
        Alcotest.test_case "disabled timeline records nothing" `Quick
          test_disabled_records_nothing;
        Alcotest.test_case "export shape; flush idempotent" `Quick
          test_export_shape_and_idempotent_flush;
        prop_bucket_aggregation;
        Alcotest.test_case "scenario window sums = cumulative totals" `Slow
          test_scenario_window_sums;
        Alcotest.test_case "same-seed export byte-identical" `Slow
          test_timeline_jsonl_replay_identical;
        Alcotest.test_case "sweep export domain-invariant" `Slow
          test_timeline_domain_invariant;
      ] );
    ( "flood",
      [
        prop_flood_tree_invariants;
        prop_flood_key_identity;
        prop_areq_rreq_disjoint;
        Alcotest.test_case "scenario flood trees respect causality" `Slow
          test_scenario_flood_trees;
        prop_seen_set_model;
        Alcotest.test_case "flood state memory budgets" `Quick
          test_flood_state_words;
      ] );
  ]
