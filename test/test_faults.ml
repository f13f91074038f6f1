(* Fault-injection subsystem: plan builders, determinism of faulted
   runs, crash/restart re-bootstrap, and partition/heal recovery through
   the secure route-maintenance machinery. *)

module Address = Manet_ipv6.Address
module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Trace = Manet_sim.Trace
module Net = Manet_sim.Net
module Dad = Manet_dad.Dad
module Dns = Manet_dns.Dns
module Credit = Manet_secure.Credit
module Secure = Manet_secure.Secure_routing
module Faults = Manet_faults.Faults
module Resilience = Manet_faults.Resilience
module Scenario = Manetsec.Scenario

let stat s name = Stats.get (Scenario.stats s) name

let chain_params ~n ~seed =
  {
    Scenario.default_params with
    n;
    seed;
    range = 250.0;
    topology = Scenario.Chain { spacing = 200.0 };
  }

(* ------------------------------------------------------------------ *)
(* Plan builders                                                      *)
(* ------------------------------------------------------------------ *)

let test_builders () =
  let plan =
    Faults.seq
      [
        Faults.outage ~from:1.0 ~until:2.0 3;
        Faults.flap ~from:0.0 ~until:2.5 ~period:1.0 1 2;
        Faults.partition ~from:4.0 ~until:5.0 [ 1; 2 ];
      ]
  in
  Faults.validate ~n:5 plan;
  Alcotest.(check int) "outage+flap+partition steps" 8 (List.length plan);
  (* The flap must leave the link up at the window end. *)
  let last_flap =
    List.filter
      (fun { Faults.event; _ } ->
        match event with
        | Faults.Link_up (1, 2) | Faults.Link_down (1, 2) -> true
        | _ -> false)
      plan
    |> List.rev |> List.hd
  in
  (match last_flap.Faults.event with
  | Faults.Link_up _ -> ()
  | _ -> Alcotest.fail "flap must end with the link up");
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Faults.validate: crash node 9 outside [0,5)")
    (fun () -> Faults.validate ~n:5 (Faults.crash ~at:1.0 9));
  Alcotest.check_raises "self-link"
    (Invalid_argument "Faults.validate: self-link") (fun () ->
      Faults.validate ~n:5 (Faults.link_down ~at:1.0 2 2))

let test_churn_pure () =
  let mk () =
    Faults.churn ~seed:99 ~nodes:[ 1; 2; 3 ] ~horizon:50.0 ~mean_up:10.0
      ~mean_down:3.0
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "same args, same plan" true (a = b);
  Alcotest.(check bool) "non-empty" true (List.length a > 0);
  Faults.validate ~n:4 a;
  List.iter
    (fun { Faults.at; _ } ->
      Alcotest.(check bool) "within horizon" true (at >= 0.0 && at <= 50.0))
    a;
  (* Every crash is eventually matched by a restart, so the plan leaves
     the network whole. *)
  let balance = Hashtbl.create 4 in
  List.iter
    (fun { Faults.event; _ } ->
      match event with
      | Faults.Crash i ->
          Hashtbl.replace balance i
            ((match Hashtbl.find_opt balance i with Some v -> v | None -> 0) + 1)
      | Faults.Restart i ->
          Hashtbl.replace balance i
            ((match Hashtbl.find_opt balance i with Some v -> v | None -> 0) - 1)
      | _ -> ())
    a;
  Hashtbl.iter
    (fun node v ->
      Alcotest.(check int) (Printf.sprintf "node %d ends up" node) 0 v)
    balance

(* ------------------------------------------------------------------ *)
(* Determinism                                                        *)
(* ------------------------------------------------------------------ *)

let faulted_run () =
  let s = Scenario.create (chain_params ~n:6 ~seed:42) in
  let engine = Scenario.engine s in
  Trace.enable (Engine.trace engine);
  Scenario.bootstrap s;
  let t0 = Engine.now engine in
  Scenario.start_cbr s ~flows:[ (1, 4); (2, 5) ] ~interval:0.5 ~duration:30.0 ();
  Scenario.inject s
    (Faults.seq
       [
         Faults.partition ~from:(t0 +. 5.0) ~until:(t0 +. 12.0) [ 3; 4; 5 ];
         Faults.outage ~from:(t0 +. 15.0) ~until:(t0 +. 20.0) 2;
         Faults.flap ~from:(t0 +. 22.0) ~until:(t0 +. 25.0) ~period:1.0 1 2;
         Faults.degrade ~from:(t0 +. 26.0) ~until:(t0 +. 28.0)
           ~channel:
             (Faults.gilbert_elliott ~p_good_to_bad:0.2 ~p_bad_to_good:0.4 ())
           ~baseline:(Net.Uniform { loss = 0.0 });
       ]);
  Scenario.run s ~until:(t0 +. 35.0);
  (Trace.render (Engine.trace engine), Stats.snapshot (Scenario.stats s))

let test_determinism () =
  let trace1, stats1 = faulted_run () in
  let trace2, stats2 = faulted_run () in
  Alcotest.(check bool) "trace non-trivial" true (String.length trace1 > 1000);
  Alcotest.(check string) "byte-identical trace" trace1 trace2;
  Alcotest.(check (list (pair string int))) "identical counters" stats1 stats2;
  Alcotest.(check bool) "faults actually fired" true
    (Stats.snapshot_get stats1 "fault.partition" = 1
    && Stats.snapshot_get stats1 "fault.crash" = 1
    && Stats.snapshot_get stats1 "fault.channel" = 2)

(* ------------------------------------------------------------------ *)
(* Crash -> restart re-runs DAD and re-registers with the DNS         *)
(* ------------------------------------------------------------------ *)

let test_crash_restart_redad () =
  let s = Scenario.create (chain_params ~n:5 ~seed:5) in
  let engine = Scenario.engine s in
  Trace.enable (Engine.trace engine);
  Scenario.bootstrap s;
  let dns = Option.get (Scenario.dns_server s) in
  let addr3 = Scenario.address_of s 3 in
  Alcotest.(check bool) "node3 registered before crash" true
    (List.mem_assoc "node3" (Dns.entries dns));
  let configured_before = stat s "dad.configured" in
  let t0 = Engine.now engine in
  Scenario.inject s (Faults.outage ~from:(t0 +. 2.0) ~until:(t0 +. 6.0) 3);
  Scenario.run s ~until:(t0 +. 20.0);
  Alcotest.(check int) "one crash" 1 (stat s "fault.crash");
  Alcotest.(check int) "one restart" 1 (stat s "fault.restart");
  Alcotest.(check int) "restart re-ran DAD to completion"
    (configured_before + 1) (stat s "dad.configured");
  Alcotest.(check bool) "node3 configured again" true
    (Dad.is_configured (Scenario.node s 3).Scenario.dad);
  (match Resilience.redad_convergence (Engine.trace engine) ~node:3 with
  | Some dt -> Alcotest.(check bool) "re-DAD took positive time" true (dt > 0.0)
  | None -> Alcotest.fail "no dad.configured after fault.restart in trace");
  (* Same identity, so the same CGA address and an unchanged DNS row. *)
  Alcotest.(check bool) "address survives the restart" true
    (Address.equal addr3 (Scenario.address_of s 3));
  Alcotest.(check bool) "DNS still maps node3 to the same address" true
    (match List.assoc_opt "node3" (Dns.entries dns) with
    | Some a -> Address.equal a addr3
    | None -> false);
  Alcotest.(check int) "re-registration raised no conflict" 0
    (stat s "dad.duplicate_detected")

(* ------------------------------------------------------------------ *)
(* A restart that lands before the node's bootstrap slot              *)
(* ------------------------------------------------------------------ *)

(* Node 4's staggered slot is at 4 * 0.5 = 2.0 s.  The restart at 1.9 s
   starts its DAD first, and that attempt is still waiting for AREPs
   (arep_wait 2 s) when the slot comes. *)
let restart_before_slot_run () =
  let s = Scenario.create (chain_params ~n:5 ~seed:5) in
  Scenario.inject s (Faults.restart ~at:1.9 4);
  Scenario.bootstrap s;
  s

let test_restart_before_bootstrap_slot () =
  let s = restart_before_slot_run () in
  Alcotest.(check int) "the restart fired" 1 (stat s "fault.restart");
  for i = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d configured" i)
      true
      (Dad.is_configured (Scenario.node s i).Scenario.dad)
  done;
  Alcotest.(check int) "node 4 bootstrapped once, by the restart" 4
    (stat s "dad.configured");
  let again = restart_before_slot_run () in
  Alcotest.(check (list (pair string int)))
    "same-seed stats replay identically"
    (Stats.snapshot (Scenario.stats s))
    (Stats.snapshot (Scenario.stats again))

(* ------------------------------------------------------------------ *)
(* Partition -> heal: RERR, credit penalties, re-discovery            *)
(* ------------------------------------------------------------------ *)

let test_partition_heal_recovery () =
  let params =
    {
      (chain_params ~n:5 ~seed:9) with
      secure_config =
        {
          Secure.default_config with
          credit = { Credit.default_config with rerr_threshold = 0 };
        };
    }
  in
  let s = Scenario.create params in
  let engine = Scenario.engine s in
  Scenario.bootstrap s;
  let t0 = Engine.now engine in
  let fault_at = t0 +. 8.0 and heal_at = t0 +. 16.0 and stop = t0 +. 30.0 in
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:0.5 ~duration:(stop -. t0) ();
  let mon = Resilience.monitor ~period:1.0 ~until:stop engine in
  Resilience.mark mon ~at:(t0 +. 0.5) "start";
  Resilience.mark mon ~at:fault_at "fault";
  Resilience.mark mon ~at:heal_at "heal";
  Resilience.mark mon ~at:(stop -. 0.5) "end";
  (* Cut between 2 and 3: the 1 -> 4 flow dies at its forwarder. *)
  Scenario.inject s (Faults.partition ~from:fault_at ~until:heal_at [ 3; 4 ]);
  Scenario.run s ~until:(stop +. 5.0);
  Alcotest.(check bool) "signed RERR sent" true (stat s "rerr.sent" >= 1);
  Alcotest.(check bool) "RERR consumed" true (stat s "rerr.received" >= 1);
  Alcotest.(check bool) "chronic reporter suspected" true
    (stat s "secure.hostile_suspected" >= 1);
  (* The source (node 1) slashes the RERR reporter (node 2). *)
  let credit_1 =
    match (Scenario.node s 1).Scenario.routing with
    | Scenario.Secure_agent a -> Secure.credits a
    | _ -> Alcotest.fail "expected the secure protocol"
  in
  Alcotest.(check bool) "credit penalty applied" true
    (Credit.get credit_1 (Scenario.address_of s 2) < 0.0);
  (* Delivery collapses during the cut and recovers after the heal. *)
  let phase a b =
    match Resilience.phase mon ~from_mark:a ~to_mark:b with
    | Some r -> r
    | None -> Alcotest.fail (Printf.sprintf "phase %s -> %s empty" a b)
  in
  Alcotest.(check bool) "healthy before the fault" true
    (phase "start" "fault" > 0.9);
  Alcotest.(check bool) "dead during the partition" true
    (phase "fault" "heal" < 0.3);
  Alcotest.(check bool) "recovered after the heal" true
    (phase "heal" "end" > 0.7);
  (match Resilience.route_repair_latency mon ~fault_at:heal_at with
  | Some l -> Alcotest.(check bool) "repair latency sane" true (l <= 5.0)
  | None -> Alcotest.fail "route never repaired after heal")

(* ------------------------------------------------------------------ *)
(* Scenario.inject guard rails                                        *)
(* ------------------------------------------------------------------ *)

let test_inject_guards () =
  let s = Scenario.create (chain_params ~n:4 ~seed:3) in
  Alcotest.check_raises "DNS host cannot churn"
    (Invalid_argument "Scenario.inject: node 0 hosts the DNS and cannot churn")
    (fun () -> Scenario.inject s (Faults.crash ~at:1.0 0));
  Alcotest.check_raises "node outside the scenario"
    (Invalid_argument "Faults.validate: crash node 7 outside [0,4)")
    (fun () -> Scenario.inject s (Faults.crash ~at:1.0 7))

(* A fault step's trace detail is text for the ring alone: with the
   ring off a scheduled link flap builds none (the sprintf alone is
   dozens of words a step), and with it on the ring keeps the same
   detail as before. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let test_detail_only_with_ring () =
  let noop =
    {
      Faults.crash = ignore;
      restart = ignore;
      set_link = (fun _ _ ~up:_ -> ());
      partition = ignore;
      heal = ignore;
      set_channel = ignore;
    }
  in
  let steps = 1000 in
  let flap engine =
    Faults.schedule engine noop
      (Faults.seq
         (List.init steps (fun i ->
              let at = float_of_int (i + 1) in
              if i mod 2 = 0 then Faults.link_down ~at 1 2
              else Faults.link_up ~at 1 2)))
  in
  let off = Engine.create ~seed:1 () in
  flap off;
  let w0 = Gc.minor_words () in
  Engine.run off;
  let per_step = (Gc.minor_words () -. w0) /. float_of_int steps in
  if per_step >= 4.0 then
    Alcotest.failf "ring off: %.1f minor words per fault step (budget 4)"
      per_step;
  Alcotest.(check int) "every step counted" (steps / 2)
    (Stats.get (Engine.stats off) "fault.link_down");
  let on = Engine.create ~seed:1 () in
  Trace.enable (Engine.trace on);
  flap on;
  Engine.run on;
  let trace = Trace.render (Engine.trace on) in
  Alcotest.(check bool) "ring on: detail logged" true
    (contains trace "link 1-2 severed" && contains trace "link 1-2 restored")

let suites =
  [
    ( "faults",
      [
        Alcotest.test_case "plan builders" `Quick test_builders;
        Alcotest.test_case "churn is pure" `Quick test_churn_pure;
        Alcotest.test_case "faulted run is deterministic" `Quick test_determinism;
        Alcotest.test_case "crash/restart re-runs DAD" `Quick test_crash_restart_redad;
        Alcotest.test_case "restart before bootstrap slot" `Quick
          test_restart_before_bootstrap_slot;
        Alcotest.test_case "partition/heal recovery" `Quick test_partition_heal_recovery;
        Alcotest.test_case "inject guard rails" `Quick test_inject_guards;
        Alcotest.test_case "fault detail only with the ring on" `Quick
          test_detail_only_with_ring;
      ] );
  ]
