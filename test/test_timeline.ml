(* The timeline/flood-provenance contract: bucket aggregation is exact
   (window sums equal the unbucketed totals, windows are half-open),
   flood propagation trees respect causality (a parent is seen no later
   than any child it reaches), and the JSONL export is byte-identical
   across same-seed replays and sweep domain counts — the property
   test/replay.sh also checks end to end through the CLI. *)

module Engine = Manet_sim.Engine
module Net = Manet_sim.Net
module Stats = Manet_sim.Stats
module Trace = Manet_sim.Trace
module Suite = Manet_crypto.Suite
module Timeline = Manetsec.Timeline
module Flood = Manetsec.Flood
module Json = Manetsec.Obs_json
module Obs = Manetsec.Obs
module Audit = Manetsec.Audit
module Scenario = Manetsec.Scenario
module Scn = Manet_scenario.Scn

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- bare-engine bucket mechanics --------------------------------------- *)

(* The parsed header and ["bucket"] lines of a timeline export. *)
let parse_export text =
  match
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.map Json.parse
  with
  | [] -> Alcotest.fail "empty timeline export"
  | header :: rest ->
      ( header,
        List.filter
          (fun j -> Json.member "type" j = Some (Json.String "bucket"))
          rest )

let int_field name j =
  match Option.bind (Json.member name j) Json.to_int_opt with
  | Some v -> v
  | None -> Alcotest.failf "timeline line has no integer %s" name

(* Drive a bare engine through the installed per-event hook: schedule
   one no-op event per timestamp and let the engine fire the hook; the
   export closes the trailing bucket. *)
let run_times ?width ?(setup = ignore) times =
  let e = Engine.create ~seed:1 () in
  let tl = Timeline.create ?width e in
  Timeline.install tl;
  setup tl;
  List.iter (fun t -> Engine.schedule_at e ~time:t (fun () -> ())) times;
  Engine.run e;
  let fl = Flood.create e in
  let text = Timeline.to_jsonl tl ~flood:fl in
  (e, text, parse_export text, fun () -> Timeline.to_jsonl tl ~flood:fl)

let windows buckets =
  List.map (fun b -> (int_field "i" b, int_field "events" b)) buckets

let test_half_open_boundaries () =
  let _, _, (header, buckets), _ = run_times ~width:2.0 [ 0.5; 1.99; 2.0 ] in
  Alcotest.(check (option int)) "schema version pinned" (Some 1)
    (Option.bind (Json.member "version" header) Json.to_int_opt);
  Alcotest.(check (option (float 0.0))) "width recorded" (Some 2.0)
    (Option.bind (Json.member "width" header) Json.to_float_opt);
  let _, _, (header, _), _ = run_times [] in
  Alcotest.(check (option (float 0.0))) "default width" (Some 1.0)
    (Option.bind (Json.member "width" header) Json.to_float_opt);
  (* [0, 2) holds 0.5 and 1.99; the boundary event 2.0 opens bucket 1. *)
  Alcotest.(check (list (pair int int)))
    "half-open windows: boundary event falls in the next bucket"
    [ (0, 2); (1, 1) ]
    (windows buckets);
  (* The windows between 1 and 10 saw no work: none materialises. *)
  let _, _, (_, buckets), _ = run_times ~width:2.0 [ 0.5; 1.99; 2.0; 20.5 ] in
  Alcotest.(check (list (pair int int)))
    "idle windows materialise no bucket"
    [ (0, 2); (1, 1); (10, 1) ]
    (windows buckets)

let test_width_validated () =
  let e = Engine.create ~seed:1 () in
  Alcotest.check_raises "non-positive width rejected"
    (Invalid_argument "Timeline.create: width must be positive") (fun () ->
      ignore (Timeline.create ~width:0.0 e))

let test_disabled_records_nothing () =
  let _, _, (_, buckets), _ =
    run_times
      ~setup:(fun tl -> Timeline.set_enabled tl false)
      [ 0.5; 3.0; 7.5 ]
  in
  Alcotest.(check int) "disabled timeline stays empty" 0 (List.length buckets)

let test_export_shape_and_idempotent_flush () =
  let _, a, (header, buckets), again = run_times ~width:1.0 [ 0.25; 1.5; 1.75 ] in
  Alcotest.(check (option string)) "header carries the schema"
    (Some Timeline.schema)
    (Option.bind (Json.member "schema" header) Json.to_string_opt);
  Alcotest.(check (list (pair int int))) "one typed bucket line per window"
    [ (0, 1); (1, 2) ] (windows buckets);
  (* The export closes the trailing window; a second export may only
     close zero-delta windows, which materialise nothing — bytes must
     not change. *)
  Alcotest.(check string) "double export is byte-identical" a (again ())

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
      let e, _, (_, buckets), _ = run_times ~width times in
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
      let got = windows buckets in
      let rec increasing = function
        | (a, _) :: ((b, _) :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      got = expected
      && List.fold_left (fun acc (_, n) -> acc + n) 0 got
         = Engine.events_processed e
      && List.for_all (fun (_, n) -> n > 0) got
      && increasing got)

(* --- flood-tree invariants ---------------------------------------------- *)

(* Replay a generated reception history against a live engine clock,
   with causality enforced the way the protocols guarantee it: a copy's
   sender is always a node that already holds the flood (or the
   origin).  Each op is (time-ticks, key, node, src, hops, dup?,
   verify?).  The event log is on, so every flood keeps its tree. *)
let origin_node = 1000

let rreq_key k =
  { Flood.kind = Flood.Rreq; hi = 0L; lo = Int64.of_int k; seq = k; ch = 0L }

let apply_flood_ops ops =
  let e = Engine.create ~seed:1 () in
  Trace.enable (Engine.trace e);
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

(* One ["flood"] line of the provenance tail. *)
type flood = {
  id : int;
  kind : string;
  origin : int;
  start : float;
  last : float;
  sent : int;
  received : int;
  duplicates : int;
  verifies : int;
  verify_nodes : int;
  reached : int;
  hop_radius : int;
}

let flood_tail fl =
  let buf = Buffer.create 256 in
  Flood.append_jsonl buf fl;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map Json.parse

let typed t j = Json.member "type" j = Some (Json.String t)

(* The flood records of [fl]'s JSONL tail, in id order. *)
let floods fl =
  let num name j =
    match Option.bind (Json.member name j) Json.to_float_opt with
    | Some v -> v
    | None -> Alcotest.failf "flood line has no number %s" name
  in
  List.filter_map
    (fun j ->
      if not (typed "flood" j) then None
      else
        let int name = int_field name j in
        Some
          {
            id = int "id";
            kind =
              Option.value ~default:""
                (Option.bind (Json.member "kind" j) Json.to_string_opt);
            origin = int "origin";
            start = num "start" j;
            last = num "last" j;
            sent = int "sent";
            received = int "received";
            duplicates = int "duplicates";
            verifies = int "verifies";
            verify_nodes = int "verify_nodes";
            reached = int "reached";
            hop_radius = int "hop_radius";
          })
    (flood_tail fl)

(* The flood count the tail's summary line reports. *)
let flood_count fl =
  match List.filter (typed "flood_summary") (flood_tail fl) with
  | [ j ] -> (
      match Json.member "floods" j with
      | Some f -> int_field "count" f
      | None -> Alcotest.fail "flood_summary has no floods member")
  | _ -> Alcotest.fail "expected one flood_summary line"

(* The export prints times through the canonical 12-digit formatter;
   rounding is monotone, so comparing a raw time rounded the same way
   against an exported one keeps every order. *)
let canon x = float_of_string (Json.float_str x)

let summary_invariants s =
  s.duplicates <= s.received
  && s.reached <= s.received
  && s.verify_nodes <= s.reached
  && s.verify_nodes <= s.verifies
  && s.start <= s.last
  && String.equal s.kind "rreq"

let tree_invariants fl s =
  let cells = Flood.tree fl ~id:s.id in
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  List.length cells = s.reached
  && sorted cells
  && List.fold_left (fun acc (_, (_, _, _, v)) -> acc + v) 0 cells
     = s.verifies
  && List.for_all
       (fun (_, (first_seen, parent, hops, verifies)) ->
         canon first_seen >= s.start
         && canon first_seen <= s.last
         && hops <= s.hop_radius
         && verifies >= 0
         &&
         (* Causality: a parent that was itself reached was reached no
            later than its child.  The origin is exempt — it holds the
            flood from the start, and its own cell (if any) records when
            its flood echoed back, which can postdate its children. *)
         parent = s.origin
         ||
         match List.assoc_opt parent cells with
         | None -> true (* an unknown sender *)
         | Some (parent_first, _, _, _) -> parent_first <= first_seen)
       cells

let prop_flood_tree_invariants =
  qtest ~count:150 "flood summaries and trees respect the protocol bounds"
    flood_ops_gen (fun ops ->
      let fl, ops = apply_flood_ops ops in
      let summaries = floods fl in
      let distinct_keys =
        List.sort_uniq compare (List.map (fun (_, k, _, _, _, _, _) -> k) ops)
      in
      flood_count fl = List.length distinct_keys
      && List.length summaries = flood_count fl
      (* Ids are dense in first-origination order. *)
      && List.for_all2
           (fun i s -> s.id = i)
           (List.init (List.length summaries) Fun.id)
           summaries
      && List.for_all summary_invariants summaries
      && List.for_all (tree_invariants fl) summaries
      (* The two derived metrics agree with their definitions read off
         the summaries (integer folds, so equality is exact). *)
      &&
      let extra =
        List.fold_left
          (fun acc s -> acc + max 0 (s.verifies - s.verify_nodes))
          0 summaries
      in
      let recv =
        List.fold_left (fun acc s -> acc + s.received) 0 summaries
      in
      let reached =
        List.fold_left (fun acc s -> acc + s.reached) 0 summaries
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
        (List.nth (List.rev (floods fl)) 0).id
      in
      let a = id_of k in
      let copy x = Int64.of_string (Int64.to_string x) in
      let a' = id_of { k with hi = copy k.hi; lo = copy k.lo; ch = copy k.ch } in
      let b = id_of (List.nth (variants k) which) in
      a = a' && b <> a && flood_count fl = 2)

let prop_areq_rreq_disjoint =
  qtest ~count:300 "flood keys: an AREQ and an RREQ never share a flood"
    (QCheck.pair QCheck.int64 (QCheck.pair QCheck.int64 QCheck.small_nat))
    (fun (hi, (lo, seq)) ->
      let fl = Flood.create (Engine.create ~seed:1 ()) in
      let key kind = { Flood.kind; hi; lo; seq; ch = 0L } in
      Flood.sent fl (Flood.handle fl ~key:(key Flood.Areq) ~origin:1);
      Flood.sent fl (Flood.handle fl ~key:(key Flood.Rreq) ~origin:2);
      match floods fl with
      | [ a; r ] ->
          flood_count fl = 2
          && a.kind = "areq" && a.origin = 1 && a.sent = 1
          && r.kind = "rreq" && r.origin = 2 && r.sent = 1
      | _ -> false)

(* --- end-to-end through a real scenario --------------------------------- *)

let small_run ?(setup = ignore) seed =
  let params =
    {
      Scenario.default_params with
      n = 8;
      seed;
      protocol = Scenario.Secure;
    }
  in
  let s = Scenario.create params in
  setup s;
  Scenario.bootstrap ~stagger:0.3 s;
  Scenario.send s ~src:1 ~dst:5 ();
  Scenario.run s ~until:30.0;
  s

(* The scenario wires the timeline to every counter source; after a
   flush each windowed series must sum back to its cumulative total. *)
let test_scenario_window_sums () =
  let s = small_run 7 in
  let _, buckets = parse_export (Scenario.timeline_jsonl s) in
  Alcotest.(check bool) "the run produced buckets" true (buckets <> []);
  let sum name =
    List.fold_left (fun acc b -> acc + int_field name b) 0 buckets
  in
  let net = Scenario.net s and suite = Scenario.suite s in
  Alcotest.(check int) "event windows sum to events_processed"
    (Engine.events_processed (Scenario.engine s))
    (sum "events");
  Alcotest.(check int) "delivery windows sum to Net.deliveries"
    (Net.deliveries net)
    (sum "deliveries");
  Alcotest.(check int) "transmission windows sum to Net.transmissions"
    (Net.transmissions net)
    (sum "transmissions");
  Alcotest.(check int) "drop windows sum to Net.unicast_failures"
    (Net.unicast_failures net)
    (sum "drops");
  Alcotest.(check int) "sign windows sum to the suite total"
    suite.Suite.sign_count
    (sum "signs");
  Alcotest.(check int) "verify windows sum to the suite total"
    suite.Suite.verify_count
    (sum "verifies");
  Alcotest.(check int) "hash-block windows sum to the suite total"
    suite.Suite.sha256_blocks
    (sum "hash_blocks");
  Alcotest.(check int) "audit windows sum to Audit.count"
    (Audit.count (Obs.audit (Scenario.obs s)))
    (sum "audit");
  (* And the secure bootstrap actually flooded something. *)
  Alcotest.(check bool) "floods were recorded" true
    (flood_count (Obs.flood (Scenario.obs s)) > 0)

let capture s = Obs.set_capture (Scenario.obs s) true

let test_scenario_flood_trees () =
  let s = small_run 11 ~setup:capture in
  let fl = Obs.flood (Scenario.obs s) in
  let summaries = floods fl in
  Alcotest.(check bool) "bootstrap + discovery produced floods" true
    (summaries <> []);
  List.iter
    (fun s ->
      if not (s.duplicates <= s.received) then
        Alcotest.failf "flood %d: duplicates %d > received %d" s.id
          s.duplicates s.received;
      if not (tree_invariants fl s) then
        Alcotest.failf "flood %d (%s): tree invariants violated" s.id s.kind)
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
          Alcotest.(check int) "header version" 1 v
      | _ -> Alcotest.fail "exported header has no version")
  | [] -> Alcotest.fail "empty timeline export"

(* Bucket recording observes the run: switched off, the deterministic
   perf export and every counter come out exactly as with it on. *)
let test_recording_non_perturbing () =
  let off =
    small_run 7 ~setup:(fun s ->
        Timeline.set_enabled (Obs.timeline (Scenario.obs s)) false)
  in
  let on = small_run 7 in
  Alcotest.(check int) "the off run recorded no bucket" 0
    (List.length (snd (parse_export (Scenario.timeline_jsonl off))));
  Alcotest.(check string) "perf det export byte-identical"
    (Scenario.perf_det_jsonl on) (Scenario.perf_det_jsonl off);
  Alcotest.(check (list (pair string int))) "counters identical"
    (Stats.counters (Scenario.stats on))
    (Stats.counters (Scenario.stats off))

(* The wall-clock heartbeat writes only to its sink.  Checked on every
   event with no interval, it emits on this short run, and the
   timeline, spans and perf det exports keep every byte. *)
let test_progress_non_perturbing () =
  let lines = Buffer.create 1024 in
  let quiet = small_run 7 ~setup:capture in
  let loud =
    small_run 7 ~setup:(fun s ->
        capture s;
        Timeline.enable_progress ~interval:0.0 ~check_every:1
          (Obs.timeline (Scenario.obs s))
          ~emit:(Buffer.add_string lines) ())
  in
  Alcotest.(check bool) "the heartbeat emitted" true (Buffer.length lines > 0);
  let check name export =
    Alcotest.(check string) (name ^ " byte-identical") (export quiet)
      (export loud)
  in
  check "timeline" Scenario.timeline_jsonl;
  check "spans" (fun s -> Obs.to_jsonl (Scenario.obs s));
  check "perf det" Scenario.perf_det_jsonl

(* The merged timeline stream of a sweep of every committed scenario
   file is byte-identical at 1, 2 and 4 domains. *)
let test_timeline_domain_invariant () =
  Test_sweep.check_domain_invariant "sweep.timeline.jsonl"

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

(* Memory budgets, measured with [Obj.reachable_words].  With the event
   log off a flood keeps two mark bits per node, and a seen set one bit
   per flood id; with it on, the propagation tree adds about two words
   per (flood, node) (a first-seen float and a packed int).  The 300
   floods are registered before the baseline measurement, so the
   difference is the per-(flood, node) state alone; the registry's
   engine is reachable in both. *)
let flood_pair_words ~log n =
  let words x = Obj.reachable_words (Obj.repr x) in
  let e = Engine.create ~seed:1 () in
  if log then Trace.enable (Engine.trace e);
  let fl = Flood.create e in
  let hs = Array.init n (fun k -> Flood.handle fl ~key:(rreq_key k) ~origin:0) in
  let before = words fl in
  Array.iter
    (fun h ->
      for node = 0 to n - 1 do
        Flood.received fl h ~node ~src:(max 0 (node - 1)) ~hops:(node mod 20);
        if node mod 7 = 0 then Flood.verified fl h ~node
      done)
    hs;
  (fl, hs, float_of_int (words fl - before) /. float_of_int (n * n))

let test_flood_state_words () =
  let n = 300 in
  let budget what per bound =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f words <= %g" what per bound)
      true (per <= bound)
  in
  let logged, _, per_pair = flood_pair_words ~log:true n in
  budget "registry, log on, per (flood, node)" per_pair 2.5;
  Alcotest.(check int) "tree cells" n (List.length (Flood.tree logged ~id:0));
  let fl, hs, per_pair = flood_pair_words ~log:false n in
  budget "registry, log off, per (flood, node)" per_pair 0.25;
  let seen = Flood.Seen.create () in
  Array.iter (Flood.Seen.add seen) hs;
  budget "seen set, per entry"
    (float_of_int (Obj.reachable_words (Obj.repr seen)) /. float_of_int n)
    0.25;
  let key = rreq_key 123 in
  let zero what f =
    Alcotest.(check (float 0.0)) (what ^ " allocates nothing") 0.0
      (Test_crypto.minor_words_per_call 10_000 f)
  in
  zero "Seen.find" (fun () ->
      ignore (Sys.opaque_identity (Flood.Seen.find fl seen key)));
  zero "Seen.mem" (fun () ->
      ignore (Sys.opaque_identity (Flood.Seen.mem seen hs.(123))));
  zero "Seen.add of a member" (fun () -> Flood.Seen.add seen hs.(123));
  (* A set already as wide as the largest id takes a new member in
     place. *)
  let wide = Flood.Seen.create () in
  Flood.Seen.add wide hs.(n - 1);
  zero "Seen.add of a new member" (fun () -> Flood.Seen.add wide hs.(0));
  Alcotest.(check bool) "the new member is in" true (Flood.Seen.mem wide hs.(0));
  match floods fl with
  | s :: _ ->
      Alcotest.(check int) "every node reached" n s.reached;
      Alcotest.(check int) "verifying nodes" 43 s.verify_nodes
  | [] -> Alcotest.fail "no floods"

(* The tree is kept only for floods registered with the event log on,
   and keeping it changes no export and no counter: on a small secure
   run and on the N = 300 bootstrap curve point, the timeline export
   (flood tail included), the deterministic perf export and the
   counters come out byte-identical with the log on and off. *)
let test_trees_non_perturbing () =
  let same what ~off ~on =
    Alcotest.(check string)
      (what ^ ": timeline byte-identical")
      (Scenario.timeline_jsonl off) (Scenario.timeline_jsonl on);
    Alcotest.(check string)
      (what ^ ": perf det byte-identical")
      (Scenario.perf_det_jsonl off) (Scenario.perf_det_jsonl on);
    Alcotest.(check (list (pair string int)))
      (what ^ ": counters identical")
      (Stats.counters (Scenario.stats off))
      (Stats.counters (Scenario.stats on))
  in
  let off = small_run 7 and on = small_run 7 ~setup:capture in
  same "small_run 7" ~off ~on;
  let fl = Obs.flood (Scenario.obs off) in
  Alcotest.(check bool) "the off run registered floods" true
    (flood_count fl > 0);
  Alcotest.(check bool) "no tree for a flood registered with the log off"
    true
    (List.for_all (fun s -> Flood.tree fl ~id:s.id = []) (floods fl));
  Alcotest.(check bool) "the on run kept trees" true
    (List.exists
       (fun s -> Flood.tree (Obs.flood (Scenario.obs on)) ~id:s.id <> [])
       (floods (Obs.flood (Scenario.obs on))));
  (* A file run's exports decide the log's switch, so the on run asks
     for the trace export ([on_create] runs before the exports'
     switches are set). *)
  let scn = Test_sweep.scenario "scale/n300.scn" in
  same "scale/n300.scn" ~off:(Scn.execute scn)
    ~on:
      (Scn.execute
         { scn with Scn.exports = Manet_scenario.Export.Trace_jsonl :: scn.Scn.exports })

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
        Alcotest.test_case "recording off perturbs nothing" `Slow
          test_recording_non_perturbing;
        Alcotest.test_case "progress heartbeat perturbs nothing" `Slow
          test_progress_non_perturbing;
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
        Alcotest.test_case "keeping trees perturbs nothing" `Slow
          test_trees_non_perturbing;
      ] );
  ]
