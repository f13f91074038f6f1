(* The perf registry contract: the log₂ histogram is a stable,
   mergeable representation (qcheck properties), the engine's always-on
   accounting is exact, and the deterministic export section is
   byte-identical across same-seed replays and sweep domain counts —
   the property test/replay.sh also checks end to end through the
   CLI. *)

module Engine = Manet_sim.Engine
module Hist = Manet_sim.Hist
module Suite = Manet_crypto.Suite
module Perf = Manetsec.Perf
module Json = Manetsec.Obs_json
module Obs = Manetsec.Obs
module Scenario = Manetsec.Scenario

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- histogram properties ---------------------------------------------- *)

let nat_gen = QCheck.map (fun i -> abs (i land max_int)) QCheck.int

let of_list vs =
  let h = Hist.create () in
  List.iter (Hist.add h) vs;
  h

(* The inclusive range of the bucket a lone sample [v] lands in. *)
let home v =
  match Hist.nonzero_buckets (of_list [ v ]) with
  | [ (lo, hi, 1) ] -> (lo, hi)
  | _ -> QCheck.Test.fail_reportf "%d did not land in exactly one bucket" v

let prop_bucket_contains =
  qtest "bounds (bucket_of_value v) contains v" nat_gen (fun v ->
      let lo, hi = home v in
      lo <= v && v <= hi)

let prop_bucket_monotone =
  qtest "bucket_of_value is monotone" (QCheck.pair nat_gen nat_gen)
    (fun (a, b) ->
      let lo, hi = (min a b, max a b) in
      fst (home lo) <= fst (home hi))

(* The exported representation: everything the wire form renders. *)
let repr h =
  ( Hist.count h,
    Hist.sum h,
    Hist.min_value h,
    Hist.max_value h,
    Hist.nonzero_buckets h )

let small_nats = QCheck.(list (int_bound 100_000))

let prop_count_preserved =
  qtest "count and sum preserved" small_nats (fun vs ->
      let h = of_list vs in
      Hist.count h = List.length vs
      && Hist.sum h = List.fold_left ( + ) 0 vs
      && List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Hist.nonzero_buckets h)
         = List.length vs)

(* The same multiset renders identically in any arrival order. *)
let prop_order_irrelevant =
  qtest "arrival order is irrelevant"
    (QCheck.pair small_nats small_nats) (fun (a, b) ->
      repr (of_list (a @ b)) = repr (of_list (b @ a)))

let test_hist_add_n () =
  let h = of_list [ 7; 0; 7; 0; 7 ] in
  Alcotest.(check int) "count" 5 (Hist.count h);
  Alcotest.(check int) "sum" 21 (Hist.sum h);
  Alcotest.(check (option int)) "min" (Some 0) (Hist.min_value h);
  Alcotest.(check (option int)) "max" (Some 7) (Hist.max_value h);
  Alcotest.check
    (Alcotest.option (Alcotest.float 1e-9))
    "mean" (Some 4.2) (Hist.mean h);
  Alcotest.check_raises "negative value rejected"
    (Invalid_argument "Hist.add: negative value") (fun () -> Hist.add h (-1));
  Alcotest.(check int) "a rejected sample is not counted" 5 (Hist.count h)

(* --- engine accounting ------------------------------------------------- *)

let test_engine_label_counts () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let rec chain k =
    if k > 0 then
      Engine.schedule e ~label:"chain" ~delay:0.5 (fun () ->
          incr fired;
          chain (k - 1))
  in
  chain 10;
  for _ = 1 to 25 do
    Engine.schedule e ~label:"burst" ~delay:1.0 (fun () -> incr fired)
  done;
  Engine.schedule e ~delay:2.0 (fun () -> incr fired);
  Engine.run e;
  Alcotest.(check int) "all events fired" 36 !fired;
  Alcotest.(check (list (pair string int)))
    "per-label counts, sorted"
    [ ("burst", 25); ("chain", 10); ("other", 1) ]
    (Engine.label_counts e);
  Alcotest.(check int)
    "label counts sum to events processed"
    (Engine.events_processed e)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (Engine.label_counts e));
  Alcotest.(check bool)
    "max_pending saw the burst" true
    (Engine.max_pending e >= 25)

let test_engine_occupancy () =
  let e = Engine.create ~seed:1 () in
  for _ = 1 to 5000 do
    Engine.schedule e ~label:"x" ~delay:1.0 (fun () -> ())
  done;
  Engine.run e;
  let occ = Engine.occupancy e in
  Alcotest.(check bool) "bounded" true (List.length occ <= 512);
  Alcotest.(check bool) "non-empty" true (occ <> []);
  let stride = Engine.occupancy_stride e in
  Alcotest.(check bool)
    "stride is a power of two" true
    (stride > 0 && stride land (stride - 1) = 0);
  let rec increasing = function
    | (a, _) :: ((b, _) :: _ as tl) -> a < b && increasing tl
    | _ -> true
  in
  Alcotest.(check bool) "sample indices strictly increasing" true
    (increasing occ);
  List.iter
    (fun (i, _) ->
      Alcotest.(check int)
        "sample index on the stride grid" 0
        (i mod stride))
    occ

(* --- crypto attribution --------------------------------------------------- *)

(* A mock suite whose every operation [p] records: [verify ()] is one
   Verify op, [sign ()] one Sign op. *)
let subscribed p =
  let suite = Suite.mock (Manet_crypto.Prng.create ~seed:1) in
  let kp = suite.Suite.generate () in
  Perf.subscribe p suite;
  let verify () =
    ignore (suite.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg:"m" ~signature:"s")
  in
  (suite, (fun () -> ignore (kp.Suite.sign "m")), verify)

let test_crypto_attribution () =
  let p = Perf.create () in
  let suite, sign, verify = subscribed p in
  Perf.dispatch p ~kind:"rreq" ~node:2
    (fun ~src:_ () ->
      verify ();
      Suite.count_hash suite ~bytes:64)
    ~src:1 ();
  sign ();
  (* Render through a real (tiny, idle) scenario's engine/net so the
     export path is exercised directly. *)
  let s = Scenario.create { Scenario.default_params with n = 2; seed = 1 } in
  let j =
    Perf.to_json p ~engine:(Scenario.engine s) ~net:(Scenario.net s) ~suite
  in
  let at path =
    List.fold_left
      (fun acc name -> Option.bind acc (Json.member name))
      (Some j) path
  in
  let det = "deterministic" in
  Alcotest.(check (option int))
    "rreq verify attributed" (Some 1)
    (Option.bind
       (at [ det; "crypto"; "by_kind"; "rreq"; "verifies" ])
       Json.to_int_opt);
  Alcotest.(check (option int))
    "unattributed sign under the none kind" (Some 1)
    (Option.bind
       (at [ det; "crypto"; "by_kind"; "none"; "signs" ])
       Json.to_int_opt);
  Alcotest.(check (option string))
    "counters member stays an empty object" (Some "{}")
    (Option.map Json.to_string (at [ det; "counters" ]));
  Alcotest.(check bool)
    "wall section carries gc member" true
    (at [ "wall_clock"; "gc" ] <> None)

(* --- deterministic-section byte-identity -------------------------------- *)

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
  Obs.set_capture (Scenario.obs s) true;
  Scenario.bootstrap ~stagger:0.3 s;
  Scenario.send s ~src:1 ~dst:5 ();
  Scenario.run s ~until:30.0;
  s

let test_det_jsonl_replay_identical () =
  let export s = Scenario.perf_det_jsonl ~meta:[ ("seed", Json.Int 7) ] s in
  let a = export (small_run 7) and b = export (small_run 7) in
  Alcotest.(check string) "same-seed perf det export byte-identical" a b;
  (* And the deterministic member of the full export agrees with it. *)
  let s = small_run 7 in
  match Json.member "deterministic" (Scenario.perf_json s) with
  | None -> Alcotest.fail "perf_json has no deterministic member"
  | Some det ->
      let in_jsonl =
        match String.split_on_char '\n' (export s) with
        | _header :: record :: _ -> record
        | _ -> ""
      in
      Alcotest.(check bool)
        "jsonl record embeds the same deterministic section" true
        (let sub = Json.to_string det in
         let n = String.length in_jsonl and m = String.length sub in
         let rec find i =
           i + m <= n && (String.sub in_jsonl i m = sub || find (i + 1))
         in
         find 0)

(* The merged perf stream of a sweep of every committed scenario file
   is byte-identical at 1, 2 and 4 domains. *)
let test_det_jsonl_domain_invariant () =
  Test_sweep.check_domain_invariant "sweep.perf.jsonl"

(* A handler that raises must not leak its attribution: the previous
   (kind, node) is back in force for the ops that follow. *)
let test_dispatch_restores_on_raise () =
  let p = Perf.create () in
  let _, _, verify = subscribed p in
  let verifies kind =
    match List.assoc_opt kind (Perf.kind_totals p) with
    | Some (_, v, _) -> v
    | None -> 0
  in
  Perf.dispatch p ~kind:"rrep" ~node:3
    (fun ~src:_ () ->
      (match
         Perf.dispatch p ~kind:"rreq" ~node:4
           (fun ~src:_ () ->
             verify ();
             failwith "handler failed")
           ~src:0 ()
       with
      | () -> Alcotest.fail "the handler's exception was swallowed"
      | exception Failure msg ->
          Alcotest.(check string) "exception re-raised" "handler failed" msg);
      verify ())
    ~src:0 ();
  verify ();
  Alcotest.(check int) "inner op under rreq" 1 (verifies "rreq");
  Alcotest.(check int) "op after the raise back under rrep" 1 (verifies "rrep");
  Alcotest.(check int) "op outside any dispatch under none" 1
    (verifies "none")

(* Every delivery goes through dispatch, so the attribution itself must
   not allocate. *)
let test_dispatch_allocation () =
  let p = Perf.create () in
  let calls = ref 0 in
  let handler ~src:_ (_ : int) = incr calls in
  Perf.dispatch p ~kind:"areq" ~node:1 handler ~src:0 0;
  let per_call =
    Test_crypto.minor_words_per_call 10_000 (fun () ->
        Perf.dispatch p ~kind:"areq" ~node:1 handler ~src:0 0)
  in
  Alcotest.(check (float 0.0)) "Perf.dispatch allocates nothing" 0.0 per_call;
  Alcotest.(check int) "handler ran every time" 10_001 !calls

let suites =
  [
    ( "perf",
      [
        prop_bucket_contains;
        prop_bucket_monotone;
        prop_count_preserved;
        prop_order_irrelevant;
        Alcotest.test_case "hist add_n / reset" `Quick test_hist_add_n;
        Alcotest.test_case "engine label counts" `Quick
          test_engine_label_counts;
        Alcotest.test_case "engine occupancy series" `Quick
          test_engine_occupancy;
        Alcotest.test_case "counters and crypto attribution" `Quick
          test_crypto_attribution;
        Alcotest.test_case "dispatch restores attribution on raise" `Quick
          test_dispatch_restores_on_raise;
        Alcotest.test_case "dispatch allocates nothing" `Quick
          test_dispatch_allocation;
        Alcotest.test_case "det export replay-identical" `Quick
          test_det_jsonl_replay_identical;
        Alcotest.test_case "det export domain-invariant" `Quick
          test_det_jsonl_domain_invariant;
      ] );
  ]
