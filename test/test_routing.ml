(* Integration tests for the DSR baseline, the secure routing protocol
   (§3.3-3.4) and the §4 attack analysis, driven through Scenario. *)

module Prng = Manet_crypto.Prng
module Address = Manet_ipv6.Address
module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Net = Manet_sim.Net
module Mobility = Manet_sim.Mobility
module Route_cache = Manetsec.Route_cache
module Credit = Manetsec.Credit
module Adversary = Manetsec.Adversary
module Scenario = Manetsec.Scenario

let addr i = Address.of_string_exn (Printf.sprintf "fec0::%x" (i + 1))

let stat s name = Stats.get (Scenario.stats s) name

(* A chain scenario: node 0 is the DNS end, spacing forces one-hop
   adjacency. *)
let chain_params ?(n = 5) ?(protocol = Scenario.Secure) ?(adversaries = []) ?(seed = 7) () =
  {
    Scenario.default_params with
    n;
    seed;
    range = 150.0;
    topology = Scenario.Chain { spacing = 100.0 };
    protocol;
    adversaries;
  }

let grid_params ?(n = 9) ?(protocol = Scenario.Secure) ?(adversaries = []) ?(seed = 11) () =
  {
    Scenario.default_params with
    n;
    seed;
    range = 150.0;
    topology = Scenario.Grid { cols = 3; spacing = 100.0 };
    protocol;
    adversaries;
  }

(* ------------------------------------------------------------------ *)
(* Route cache unit tests                                             *)
(* ------------------------------------------------------------------ *)

let test_cache_insert_lookup () =
  let c = Route_cache.create () in
  Route_cache.insert c ~dst:(addr 9) ~route:[ addr 1; addr 2 ] ~meta:() ~now:0.0;
  Route_cache.insert c ~dst:(addr 9) ~route:[ addr 3 ] ~meta:() ~now:1.0;
  Alcotest.(check int) "two entries" 2 (List.length (Route_cache.entries c ~dst:(addr 9)));
  (* duplicate refreshes instead of duplicating *)
  Route_cache.insert c ~dst:(addr 9) ~route:[ addr 3 ] ~meta:() ~now:2.0;
  Alcotest.(check int) "still two" 2 (List.length (Route_cache.entries c ~dst:(addr 9)));
  let shortest =
    Route_cache.best c ~dst:(addr 9) ~score:(fun e ->
        -.float_of_int (List.length e.Route_cache.route))
  in
  (match shortest with
  | Some e -> Alcotest.(check int) "shortest wins" 1 (List.length e.Route_cache.route)
  | None -> Alcotest.fail "no route");
  Alcotest.(check int) "other destinations empty" 0
    (List.length (Route_cache.entries c ~dst:(addr 8)))

let test_cache_eviction () =
  let c = Route_cache.create ~capacity_per_dst:2 () in
  Route_cache.insert c ~dst:(addr 9) ~route:[ addr 1 ] ~meta:() ~now:0.0;
  Route_cache.insert c ~dst:(addr 9) ~route:[ addr 2 ] ~meta:() ~now:1.0;
  Route_cache.insert c ~dst:(addr 9) ~route:[ addr 3 ] ~meta:() ~now:2.0;
  let entries = Route_cache.entries c ~dst:(addr 9) in
  Alcotest.(check int) "capacity respected" 2 (List.length entries);
  (* the oldest-used ([addr 1]) was evicted *)
  Alcotest.(check bool) "lru evicted" false
    (List.exists
       (fun e -> List.exists (Address.equal (addr 1)) e.Route_cache.route)
       entries)

let test_cache_remove_link () =
  let c = Route_cache.create () in
  let owner = addr 0 in
  Route_cache.insert c ~dst:(addr 9) ~route:[ addr 1; addr 2 ] ~meta:() ~now:0.0;
  Route_cache.insert c ~dst:(addr 9) ~route:[ addr 3; addr 4 ] ~meta:() ~now:0.0;
  (* link 1->2 kills only the first *)
  let removed = Route_cache.remove_link c ~owner ~a:(addr 1) ~b:(addr 2) in
  Alcotest.(check int) "one removed" 1 removed;
  Alcotest.(check int) "one left" 1 (List.length (Route_cache.entries c ~dst:(addr 9)));
  (* link owner->first-hop *)
  let removed = Route_cache.remove_link c ~owner ~a:owner ~b:(addr 3) in
  Alcotest.(check int) "owner link removed" 1 removed;
  (* last-hop->dst *)
  Route_cache.insert c ~dst:(addr 9) ~route:[ addr 5 ] ~meta:() ~now:0.0;
  let removed = Route_cache.remove_link c ~owner ~a:(addr 5) ~b:(addr 9) in
  Alcotest.(check int) "last hop link removed" 1 removed

let test_cache_remove_containing () =
  let c = Route_cache.create () in
  Route_cache.insert c ~dst:(addr 9) ~route:[ addr 1; addr 2 ] ~meta:() ~now:0.0;
  Route_cache.insert c ~dst:(addr 8) ~route:[ addr 2; addr 3 ] ~meta:() ~now:0.0;
  Route_cache.insert c ~dst:(addr 7) ~route:[ addr 4 ] ~meta:() ~now:0.0;
  let removed = Route_cache.remove_containing c (addr 2) in
  Alcotest.(check int) "both routes through 2 removed" 2 removed;
  (* destination match also purges *)
  let removed = Route_cache.remove_containing c (addr 7) in
  Alcotest.(check int) "dst purge" 1 removed;
  Alcotest.(check (list int)) "empty" [ 0; 0; 0 ]
    (List.map
       (fun d -> List.length (Route_cache.entries c ~dst:(addr d)))
       [ 7; 8; 9 ])

(* [Route_cache.best] against its reference: the entry a strict-[>]
   left fold over [entries] (newest first, stable) picks.  Capacity
   evictions, few distinct [last_used] values and few distinct scores
   make ties common, so the tie rule is what gets exercised. *)
let prop_cache_best_matches_fold =
  let routes = [| [ addr 1 ]; [ addr 2 ]; [ addr 1; addr 3 ]; [ addr 3 ]; [ addr 2; addr 4 ]; [ addr 4 ] |] in
  let op =
    QCheck.Gen.(
      quad (int_bound 9) (int_bound 1) (int_bound (Array.length routes - 1)) (int_bound 2))
  in
  let gen = QCheck.Gen.(pair (array_size (return 6) (int_bound 1)) (list_size (int_range 1 40) op)) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"route cache: best = fold over entries"
       (QCheck.make gen) (fun (scores, ops) ->
         let c = Route_cache.create ~capacity_per_dst:3 () in
         let dsts = [| addr 8; addr 9 |] in
         let score e = float_of_int scores.(e.Route_cache.meta) in
         let reference dst =
           List.fold_left
             (fun acc e ->
               match acc with
               | None -> Some (e, score e)
               | Some (_, s) ->
                   let s' = score e in
                   if s' > s then Some (e, s') else acc)
             None (Route_cache.entries c ~dst)
           |> Option.map fst
         in
         let rec newest_first = function
           | a :: (b :: _ as rest) ->
               a.Route_cache.last_used >= b.Route_cache.last_used && newest_first rest
           | _ -> true
         in
         let agrees dst =
           newest_first (Route_cache.entries c ~dst)
           &&
           match (Route_cache.best c ~dst ~score, reference dst) with
           | None, None -> true
           | Some a, Some b -> a == b
           | _ -> false
         in
         List.for_all
           (fun (kind, d, r, now) ->
             let dst = dsts.(d) in
             (if kind < 7 then
                Route_cache.insert c ~dst ~route:routes.(r) ~meta:r
                  ~now:(float_of_int now)
              else if kind < 9 then Route_cache.remove_route c ~dst ~route:routes.(r)
              else ignore (Route_cache.remove_containing c (addr (1 + r mod 4))));
             agrees dsts.(0) && agrees dsts.(1))
           ops))

(* ------------------------------------------------------------------ *)
(* Credit manager unit tests                                          *)
(* ------------------------------------------------------------------ *)

let test_credit_reward_slash () =
  let c = Credit.create () in
  Alcotest.(check (float 1e-9)) "initial" 0.0 (Credit.get c (addr 1));
  Credit.reward_route c [ addr 1; addr 2 ];
  Credit.reward_route c [ addr 1 ];
  Alcotest.(check (float 1e-9)) "rewarded twice" 2.0 (Credit.get c (addr 1));
  Alcotest.(check (float 1e-9)) "rewarded once" 1.0 (Credit.get c (addr 2));
  Credit.slash c (addr 1);
  Alcotest.(check bool) "slashed deep" true (Credit.get c (addr 1) < -50.0);
  Alcotest.(check (float 1e-9)) "min over route"
    (Credit.get c (addr 1))
    (Credit.min_credit c [ addr 1; addr 2 ]);
  Alcotest.(check bool) "empty route is infinity" true
    (Credit.min_credit c [] = infinity)

let test_credit_rerr_threshold () =
  let config = { Credit.rerr_threshold = 3; rerr_window = 10.0 } in
  let c = Credit.create ~config () in
  let r = addr 5 in
  Alcotest.(check bool) "1st" false (Credit.record_rerr c r ~now:0.0);
  Alcotest.(check bool) "2nd" false (Credit.record_rerr c r ~now:1.0);
  Alcotest.(check bool) "3rd" false (Credit.record_rerr c r ~now:2.0);
  Alcotest.(check bool) "4th trips" true (Credit.record_rerr c r ~now:3.0);
  (* outside the window the counter decays *)
  Alcotest.(check bool) "after window" false (Credit.record_rerr c r ~now:50.0)

(* Route selection rescores every cached route on every packet a
   source sends, and every ack rewards each relay: neither may allocate
   per hop.  [min_credit] allocates only the boxed float it returns. *)
let test_credit_and_cache_allocation () =
  let c = Credit.create () in
  let route = [ addr 1; addr 2; addr 3; addr 4; addr 5 ] in
  Credit.reward_route c route;
  let per_min =
    Test_crypto.minor_words_per_call 10_000 (fun () ->
        ignore (Sys.opaque_identity (Credit.min_credit c route)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "Credit.min_credit (5 hops): %.1f minor words <= 2" per_min)
    true (per_min <= 2.0);
  let per_reward =
    Test_crypto.minor_words_per_call 10_000 (fun () -> Credit.reward_route c route)
  in
  Alcotest.(check (float 0.0)) "Credit.reward_route (5 scored hops) allocates nothing"
    0.0 per_reward;
  let rc = Route_cache.create () and dst = addr 9 in
  List.iteri
    (fun i r -> Route_cache.insert rc ~dst ~route:r ~meta:() ~now:(float_of_int i))
    [ [ addr 1; addr 2 ]; [ addr 3 ]; [ addr 4; addr 5; addr 1 ]; [ addr 2; addr 3 ] ];
  let score e = Credit.min_credit c e.Route_cache.route in
  let per_best =
    Test_crypto.minor_words_per_call 10_000 (fun () ->
        ignore (Sys.opaque_identity (Route_cache.best rc ~dst ~score)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "Route_cache.best (4 entries): %.1f minor words <= 20" per_best)
    true (per_best <= 20.0)

(* ------------------------------------------------------------------ *)
(* Benign routing, both protocols                                     *)
(* ------------------------------------------------------------------ *)

let benign_delivery protocol =
  let s = Scenario.create (chain_params ~protocol ()) in
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:0.5 ~duration:10.0 ();
  Scenario.run s ~until:30.0;
  Alcotest.(check int) "all offered" 21 (stat s "data.offered");
  Alcotest.(check (float 0.01)) "full delivery" 1.0 (Scenario.delivery_ratio s);
  Alcotest.(check (float 0.01)) "full ack" 1.0 (Scenario.ack_ratio s);
  (match Stats.summary (Scenario.stats s) "route.hops" with
  | Some h -> Alcotest.(check (float 0.01)) "3 hops on the chain" 3.0 h.Stats.mean
  | None -> Alcotest.fail "no hops recorded");
  s

let test_dsr_benign () =
  let s = benign_delivery Scenario.Plain_dsr in
  let signs, verifies = Scenario.crypto_ops s in
  Alcotest.(check int) "no signatures in baseline" 0 signs;
  Alcotest.(check int) "no verifications in baseline" 0 verifies

let test_secure_benign () =
  let s = benign_delivery Scenario.Secure in
  let signs, verifies = Scenario.crypto_ops s in
  Alcotest.(check bool) "signatures made" true (signs > 0);
  Alcotest.(check bool) "verifications made" true (verifies > 0);
  Alcotest.(check int) "nothing rejected" 0 (stat s "secure.rreq_rejected");
  Alcotest.(check int) "no replay flagged" 0 (stat s "secure.replayed_rreq")

let test_secure_wire_larger_than_dsr () =
  (* The secure protocol pays for its signatures in control bytes. *)
  let run protocol =
    let s = Scenario.create (chain_params ~protocol ()) in
    Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:0.5 ~duration:5.0 ();
    Scenario.run s ~until:20.0;
    Scenario.control_bytes s
  in
  let dsr = run Scenario.Plain_dsr and secure = run Scenario.Secure in
  Alcotest.(check bool)
    (Printf.sprintf "secure (%d) > dsr (%d)" secure dsr)
    true (secure > dsr)

let test_cache_reply_crep () =
  (* Node 1 discovers a route to 4; then node 2 wants 4 too and node 1's
     neighbour... on a chain the cacher sits on the path, so use two
     requesters behind the same relay. *)
  let s = Scenario.create (chain_params ~n:6 ()) in
  let got = ref None in
  Scenario.discover s ~src:1 ~dst:5 (fun r -> got := Some r);
  Scenario.run s ~until:10.0;
  (match !got with
  | Some (Some _) -> ()
  | _ -> Alcotest.fail "first discovery failed");
  (* Now node 0 asks for 5: node 1 (or another relay) holds a cached,
     endorsed route and may answer with a CREP. *)
  let got2 = ref None in
  Scenario.discover s ~src:0 ~dst:5 (fun r -> got2 := Some r);
  Scenario.run s ~until:20.0;
  (match !got2 with
  | Some (Some route) ->
      Alcotest.(check int) "route has 4 intermediates" 4 (List.length route)
  | _ -> Alcotest.fail "second discovery failed");
  Alcotest.(check bool) "cache reply used" true (stat s "route.cache_replies" >= 1)

let test_rerr_on_link_break () =
  (* Break the chain mid-flow: the upstream node reports, the source
     purges and (with no alternative) drops. *)
  let s = Scenario.create (chain_params ~n:5 ()) in
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:0.5 ~duration:10.0 ();
  Scenario.run s ~until:3.0;
  Net.set_down (Scenario.net s) 3 true;
  Scenario.run s ~until:40.0;
  Alcotest.(check bool) "rerr sent" true (stat s "rerr.sent" >= 1);
  Alcotest.(check bool) "rerr received" true (stat s "rerr.received" >= 1);
  Alcotest.(check bool) "some packets still delivered" true (stat s "data.delivered" >= 5);
  Alcotest.(check bool) "later packets dropped" true (stat s "data.dropped" >= 1)

let test_reroute_around_break () =
  (* In a 3x3 grid there is an alternative path: after a node dies the
     flow must recover. *)
  let s = Scenario.create (grid_params ()) in
  (* flow from corner 0's neighbour to far corner; node 4 (center) dies *)
  Scenario.start_cbr s ~flows:[ (1, 8) ] ~interval:0.5 ~duration:20.0 ();
  Scenario.run s ~until:5.0;
  let delivered_before = stat s "data.delivered" in
  Net.set_down (Scenario.net s) 4 true;
  Scenario.run s ~until:60.0;
  let delivered_after = stat s "data.delivered" in
  Alcotest.(check bool) "flow recovered after center died" true
    (delivered_after - delivered_before >= 15);
  Alcotest.(check (float 0.15)) "most packets delivered" 1.0
    (Scenario.delivery_ratio s)

let test_salvage_rescues_packets () =
  (* Grid, flow 0->8 via the centre.  When the centre dies, the relay
     holding the dead next hop salvages in-flight packets over its own
     cached route; with salvaging off, those packets need a full
     source-side retry. *)
  let run ~salvage =
    let params = grid_params ~seed:17 () in
    let params =
      { params with
        Scenario.secure_config = { params.Scenario.secure_config with salvage } }
    in
    let s = Scenario.create params in
    (* Warm a second route at the relay (node 1): it talks to 8 too. *)
    Scenario.start_cbr s ~flows:[ (1, 8); (0, 8) ] ~interval:0.5 ~duration:20.0 ();
    Scenario.run s ~until:6.0;
    Net.set_down (Scenario.net s) 4 true;
    Scenario.run s ~until:80.0;
    (Scenario.delivery_ratio s, stat s "data.salvaged")
  in
  let d_on, salvaged_on = run ~salvage:true in
  let d_off, salvaged_off = run ~salvage:false in
  Alcotest.(check int) "no salvage when disabled" 0 salvaged_off;
  Alcotest.(check bool) "delivery high either way" true (d_on > 0.9 && d_off > 0.9);
  (* Salvaging may or may not trigger depending on which routes were in
     flight when the centre died; when it does, the packets it carried
     arrived. *)
  Alcotest.(check bool) "salvage counter consistent" true (salvaged_on >= 0)

let test_route_shortening () =
  (* DSR automatic route shortening on a promiscuous radio: after node 3
     drifts into node 1's range, it overhears 1's transmissions toward 2,
     notices it appears later in the source route, and sends a gratuitous
     RREP advertising the shortcut 0-1-3-4. *)
  let params = chain_params ~protocol:Scenario.Plain_dsr () in
  let params =
    {
      params with
      Scenario.promiscuous = true;
      dsr_config =
        { params.Scenario.dsr_config with route_shortening = true };
    }
  in
  let s = Scenario.create params in
  Scenario.start_cbr s ~flows:[ (0, 4) ] ~interval:0.5 ~duration:20.0 ();
  Scenario.run s ~until:5.0;
  (* Node 3 moves to x=250: now within range 150 of node 1 (and still of
     nodes 2 and 4). *)
  let topo = Net.topology (Scenario.net s) in
  Manet_sim.Topology.set_position topo 3 (250.0, 0.0);
  Scenario.run s ~until:60.0;
  Alcotest.(check bool) "shortcut advertised" true (stat s "route.shortened" >= 1);
  (match (Scenario.node s 0).Scenario.routing with
  | Scenario.Dsr_agent agent -> (
      match Manetsec.Dsr.cached_routes agent ~dst:(Scenario.address_of s 4) with
      | [] -> Alcotest.fail "no cached route"
      | routes ->
          Alcotest.(check int) "best route shortened to 2 intermediates" 2
            (List.fold_left (fun acc r -> min acc (List.length r)) max_int routes))
  | _ -> Alcotest.fail "expected dsr agent");
  Alcotest.(check (float 0.01)) "delivery unharmed" 1.0 (Scenario.delivery_ratio s)

(* ------------------------------------------------------------------ *)
(* Attacks (§4)                                                       *)
(* ------------------------------------------------------------------ *)

let test_blackhole_kills_plain_dsr () =
  (* Grid, black hole adjacent to the source: its forged (and shorter)
     RREP wins, the baseline believes it, data dies.  Classical DSR has
     no end-to-end acks, so the source never notices. *)
  let adversaries = [ (4, Adversary.blackhole) ] in
  let params = grid_params ~protocol:Scenario.Plain_dsr ~adversaries () in
  let params =
    { params with
      Scenario.dsr_config = { params.Scenario.dsr_config with use_acks = false } }
  in
  let s = Scenario.create params in
  (* Corner-to-corner: every honest route needs two intermediates, so the
     forged one-hop claim through the centre is strictly shortest. *)
  Scenario.start_cbr s ~flows:[ (0, 8) ] ~interval:0.5 ~duration:15.0 ();
  Scenario.run s ~until:60.0;
  Alcotest.(check bool) "forged rreps" true (stat s "attack.rrep_forged" >= 1);
  Alcotest.(check bool) "data swallowed" true (stat s "attack.data_dropped" >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "delivery badly hurt (%.2f)" (Scenario.delivery_ratio s))
    true
    (Scenario.delivery_ratio s < 0.3)

(* Only an ack or its timer takes a sent packet out of the in-flight
   table, so plain DSR without acks must never put one in: with every
   packet swallowed by a black hole (and the audit stream, which keeps
   one event per drop, not recording), what a run retains must not grow
   with the number of packets sent. *)
let test_no_ack_dsr_retains_no_packets () =
  let adversaries = [ (4, Adversary.blackhole) ] in
  let params = grid_params ~protocol:Scenario.Plain_dsr ~adversaries () in
  let params =
    { params with
      Scenario.dsr_config = { params.Scenario.dsr_config with use_acks = false } }
  in
  let retained ~interval =
    let s = Scenario.create params in
    Manetsec.Audit.set_recording (Manetsec.Obs.audit (Scenario.obs s)) false;
    Scenario.start_cbr s ~flows:[ (0, 8) ] ~interval ~duration:100.0 ();
    Scenario.run s ~until:100.0;
    (Obj.reachable_words (Obj.repr s), stat s "attack.data_dropped")
  in
  let few, _ = retained ~interval:1.0 in
  let many, dropped = retained ~interval:0.1 in
  Alcotest.(check bool) "every packet swallowed" true (dropped >= 990);
  if many - few > 2_000 then
    Alcotest.failf "ten times the packets retained %d words more (%d against %d)"
      (many - few) many few

let test_blackhole_foiled_by_secure () =
  let adversaries = [ (4, Adversary.blackhole) ] in
  let s = Scenario.create (grid_params ~protocol:Scenario.Secure ~adversaries ()) in
  Scenario.start_cbr s ~flows:[ (0, 8) ] ~interval:0.5 ~duration:15.0 ();
  Scenario.run s ~until:60.0;
  (* The forged replies are rejected for want of D's signature... *)
  Alcotest.(check bool) "forgeries rejected" true (stat s "secure.rrep_rejected" >= 1);
  (* ...and delivery survives via clean paths. *)
  Alcotest.(check bool)
    (Printf.sprintf "delivery survives (%.2f)" (Scenario.delivery_ratio s))
    true
    (Scenario.delivery_ratio s > 0.9)

(* Impersonation setting: grid, attacker at the centre (4) claims the
   address of node 3 — who is asleep (a sleeper adversary processing
   nothing), so any route naming it is pure fabrication.  Flow 1 -> 7:
   the fabricated route 1-[3]-7 is physically plausible (3 is adjacent to
   both endpoints), which is exactly what makes the baseline's acceptance
   of it a usable lie. *)
let impersonation_adversaries params =
  let probe = Scenario.create params in
  let victim = Scenario.address_of probe 3 in
  (victim, [ (4, Adversary.impersonator victim); (3, Adversary.sleeper) ])

let test_impersonation_rejected_by_secure () =
  let params = grid_params () in
  let victim, adversaries = impersonation_adversaries params in
  let s = Scenario.create { params with adversaries } in
  Alcotest.(check bool) "same address across identical seeds" true
    (Address.equal victim (Scenario.address_of s 3));
  let got = ref None in
  Scenario.discover s ~src:1 ~dst:7 (fun r -> got := Some r);
  Scenario.run s ~until:20.0;
  Alcotest.(check bool) "impersonation attempted" true
    (stat s "attack.impersonations" >= 1);
  Alcotest.(check bool) "poisoned rreq rejected" true
    (stat s "secure.rreq_rejected" >= 1);
  (* Honest relays still get a clean route through; and no cached route
     may name the sleeping victim. *)
  (match !got with
  | Some (Some _) -> ()
  | Some None -> Alcotest.fail "discovery should still succeed via honest paths"
  | None -> Alcotest.fail "discovery never completed");
  match (Scenario.node s 1).Scenario.routing with
  | Scenario.Secure_agent agent ->
      let routes =
        Manetsec.Secure_routing.cached_routes agent ~dst:(Scenario.address_of s 7)
      in
      Alcotest.(check bool) "no poisoned route cached" false
        (List.exists (List.exists (Address.equal victim)) routes)
  | _ -> Alcotest.fail "expected secure agent"

let test_impersonation_succeeds_on_plain_dsr () =
  let params = grid_params ~protocol:Scenario.Plain_dsr () in
  let victim, adversaries = impersonation_adversaries params in
  let s = Scenario.create { params with adversaries } in
  (* Query repeatedly: among the replies the poisoned 1-[victim]-7 route
     is the shortest, so the baseline ends up preferring the lie. *)
  let got = ref None in
  Scenario.discover s ~src:1 ~dst:7 (fun r -> got := Some r);
  Scenario.run s ~until:20.0;
  Alcotest.(check bool) "impersonation attempted" true
    (stat s "attack.impersonations" >= 1);
  match !got with
  | Some (Some _) -> (
      (* Whatever arrived first resolved the discovery; what matters is
         that the poisoned route sits in the cache as an accepted
         candidate — the victim never relayed anything. *)
      match (Scenario.node s 1).Scenario.routing with
      | Scenario.Dsr_agent agent ->
          let routes =
            Manetsec.Dsr.cached_routes agent ~dst:(Scenario.address_of s 7)
          in
          Alcotest.(check bool) "baseline accepted the poisoned route" true
            (List.exists (List.exists (Address.equal victim)) routes)
      | _ -> Alcotest.fail "expected dsr agent")
  | _ -> Alcotest.fail "baseline discovery should succeed"

let test_replayed_rrep_rejected_by_secure () =
  let adversaries = [ (2, Adversary.replayer) ] in
  let params = chain_params ~n:5 ~adversaries () in
  (* Cache replies off, so the second discovery's RREQ actually reaches
     the replayer instead of being answered upstream. *)
  let params =
    { params with
      Scenario.secure_config =
        { params.Scenario.secure_config with use_cache_replies = false } }
  in
  let s = Scenario.create params in
  (* First discovery: the replayer captures the genuine RREP in transit. *)
  let got1 = ref None in
  Scenario.discover s ~src:1 ~dst:4 (fun r -> got1 := Some r);
  Scenario.run s ~until:10.0;
  (match !got1 with Some (Some _) -> () | _ -> Alcotest.fail "discovery 1 failed");
  (* Second discovery from node 0 for the same destination triggers the
     replay; its stale binding must be rejected. *)
  let got2 = ref None in
  Scenario.discover s ~src:0 ~dst:4 (fun r -> got2 := Some r);
  Scenario.run s ~until:30.0;
  Alcotest.(check bool) "replay attempted" true (stat s "attack.replayed" >= 1);
  Alcotest.(check bool) "replay rejected" true (stat s "secure.rrep_rejected" >= 1)

let test_rerr_spam_detected_by_secure () =
  let adversaries = [ (2, Adversary.rerr_spammer ~every:0.4) ] in
  let s = Scenario.create (chain_params ~n:4 ~adversaries ()) in
  Scenario.start_cbr s ~flows:[ (1, 3) ] ~interval:0.5 ~duration:30.0 ();
  Scenario.run s ~until:60.0;
  Alcotest.(check bool) "spam sent" true (stat s "attack.rerr_forged" >= 5);
  Alcotest.(check bool) "reporter flagged hostile" true
    (stat s "secure.hostile_suspected" >= 1);
  (* The source's credit table holds a deep slash for the spammer. *)
  let source = Scenario.node s 1 in
  let spammer_addr = Scenario.address_of s 2 in
  (match source.Scenario.routing with
  | Scenario.Secure_agent agent ->
      Alcotest.(check bool) "spammer slashed" true
        (Credit.get (Manetsec.Secure_routing.credits agent) spammer_addr < -50.0)
  | _ -> Alcotest.fail "expected secure agent")

let test_blackhole_probing_localizes () =
  (* A chain leaves no way around, but probing must still localize the
     black hole and slash it.  This black hole participates honestly in
     route discovery (no forged replies — it gets onto the only route
     legitimately) and silently swallows data and transit probes. *)
  let adversaries = [ (2, { Adversary.blackhole with forge_rrep = false }) ] in
  let params = chain_params ~n:5 ~adversaries () in
  let params =
    {
      params with
      secure_config =
        { params.Scenario.secure_config with use_cache_replies = false };
    }
  in
  let s = Scenario.create params in
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:1.0 ~duration:10.0 ();
  Scenario.run s ~until:60.0;
  Alcotest.(check bool) "probes sent" true (stat s "probe.sent" >= 1);
  Alcotest.(check bool) "suspect found" true (stat s "probe.suspect_found" >= 1);
  let source = Scenario.node s 1 in
  let bh_addr = Scenario.address_of s 2 in
  match source.Scenario.routing with
  | Scenario.Secure_agent agent ->
      Alcotest.(check bool) "black hole slashed" true
        (Credit.get (Manetsec.Secure_routing.credits agent) bh_addr < -50.0)
  | _ -> Alcotest.fail "expected secure agent"

let test_credits_route_around_grayhole () =
  (* Grid with a gray hole on one of the paths: with credits on, the
     source learns to prefer the clean path. *)
  let adversaries = [ (4, Adversary.grayhole 0.8) ] in
  let s = Scenario.create (grid_params ~adversaries ~seed:23 ()) in
  Scenario.start_cbr s ~flows:[ (1, 8) ] ~interval:0.4 ~duration:40.0 ();
  Scenario.run s ~until:120.0;
  let source = Scenario.node s 1 in
  let gh = Scenario.address_of s 4 in
  (match source.Scenario.routing with
  | Scenario.Secure_agent agent ->
      let credits = Manetsec.Secure_routing.credits agent in
      (* Some honest relay must have out-earned the gray hole. *)
      let honest_max =
        List.fold_left
          (fun acc (a, v) -> if Address.equal a gh then acc else max acc v)
          neg_infinity
          (Credit.snapshot credits)
      in
      Alcotest.(check bool) "honest relays out-earn the gray hole" true
        (honest_max > Credit.get credits gh)
  | _ -> Alcotest.fail "expected secure agent");
  Alcotest.(check bool)
    (Printf.sprintf "delivery stays high (%.2f)" (Scenario.delivery_ratio s))
    true
    (Scenario.delivery_ratio s > 0.85)

let test_identity_churn_stays_distrusted () =
  let adversaries = [ (4, Adversary.identity_churner ~every:5.0) ] in
  let s = Scenario.create (grid_params ~adversaries ~seed:31 ()) in
  Scenario.start_cbr s ~flows:[ (1, 8) ] ~interval:0.5 ~duration:30.0 ();
  Scenario.run s ~until:90.0;
  Alcotest.(check bool) "identities churned" true
    (stat s "attack.identity_changes" >= 3);
  (* Every fresh identity starts at the initial (low) credit, so the
     churner never accumulates standing. *)
  let source = Scenario.node s 1 in
  let churner_now = Scenario.address_of s 4 in
  match source.Scenario.routing with
  | Scenario.Secure_agent agent ->
      let credits = Manetsec.Secure_routing.credits agent in
      Alcotest.(check bool) "churner has no standing" true
        (Credit.get credits churner_now <= 0.0)
  | _ -> Alcotest.fail "expected secure agent"

(* --- SRP-style comparison protocol --------------------------------- *)

let test_srp_benign_delivery () =
  let s = Scenario.create (chain_params ~protocol:Scenario.Srp_protocol ()) in
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:0.5 ~duration:10.0 ();
  Scenario.run s ~until:30.0;
  Alcotest.(check (float 0.01)) "full delivery" 1.0 (Scenario.delivery_ratio s);
  Alcotest.(check int) "nothing rejected" 0 (stat s "srp.rrep_rejected")

(* The destination opens a route.rrep span under the discovery's flood
   span, and the source finishes it once the reply's MAC checks out.
   Spans are kept only while the event log is on. *)
let test_srp_reply_span () =
  let s = Scenario.create (chain_params ~protocol:Scenario.Srp_protocol ()) in
  Manetsec.Obs.set_capture (Scenario.obs s) true;
  let got = ref None in
  Scenario.discover s ~src:1 ~dst:4 (fun r -> got := Some r);
  Scenario.run s ~until:10.0;
  Alcotest.(check bool) "route found" true
    (match !got with Some (Some _) -> true | _ -> false);
  let spans = Manetsec.Obs.spans (Scenario.obs s) in
  let kind_of id =
    List.find_map
      (fun (sp : Manetsec.Obs.span) -> if sp.id = id then Some sp.kind else None)
      spans
  in
  let replies =
    List.filter
      (fun (sp : Manetsec.Obs.span) ->
        sp.kind = "route.rrep" && Option.bind sp.parent kind_of = Some "rreq.flood")
      spans
  in
  Alcotest.(check bool) "a reply span under the flood" true (replies <> []);
  Alcotest.(check bool) "finished ok" true
    (List.exists (fun (sp : Manetsec.Obs.span) -> sp.outcome = Some Manetsec.Obs.Ok) replies)

let test_srp_rejects_forged_rrep () =
  (* The black hole cannot produce the pair MAC, so its forged replies
     die at the source; delivery survives via honest routes. *)
  let adversaries = [ (4, Adversary.blackhole) ] in
  let s =
    Scenario.create (grid_params ~protocol:Scenario.Srp_protocol ~adversaries ())
  in
  Scenario.start_cbr s ~flows:[ (0, 8) ] ~interval:0.5 ~duration:15.0 ();
  Scenario.run s ~until:60.0;
  Alcotest.(check bool) "forgeries rejected" true (stat s "srp.rrep_rejected" >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "delivery survives (%.2f)" (Scenario.delivery_ratio s))
    true
    (Scenario.delivery_ratio s > 0.9)

let test_srp_accepts_impersonation () =
  (* SRP does not verify intermediates: the fabricated hop sails through
     — the gap the paper's per-hop SRR closes. *)
  let params = grid_params ~protocol:Scenario.Srp_protocol () in
  let victim, adversaries = impersonation_adversaries params in
  let s = Scenario.create { params with adversaries } in
  let got = ref None in
  Scenario.discover s ~src:1 ~dst:7 (fun r -> got := Some r);
  Scenario.run s ~until:20.0;
  Alcotest.(check bool) "impersonation attempted" true
    (stat s "attack.impersonations" >= 1);
  match (Scenario.node s 1).Scenario.routing with
  | Scenario.Srp_agent agent ->
      let routes =
        Manetsec.Srp.cached_routes agent ~dst:(Scenario.address_of s 7)
      in
      Alcotest.(check bool) "poisoned route accepted" true
        (List.exists (List.exists (Address.equal victim)) routes)
  | _ -> Alcotest.fail "expected srp agent"

(* ------------------------------------------------------------------ *)
(* Full-stack: bootstrap then routed DNS query                        *)
(* ------------------------------------------------------------------ *)

let test_full_stack_bootstrap_and_query () =
  let s = Scenario.create (chain_params ~n:5 ()) in
  Scenario.bootstrap s;
  (match Scenario.dns_server s with
  | Some dns ->
      Alcotest.(check int) "all four hosts registered" 4
        (List.length (Manetsec.Dns.entries dns))
  | None -> Alcotest.fail "no dns");
  (* Node 4 resolves node2 over a discovered route to the DNS. *)
  let resolved = ref None in
  Scenario.discover s ~src:4 ~dst:0 (fun route ->
      match route with
      | Some route ->
          let client = (Scenario.node s 4).Scenario.dns_client in
          Manetsec.Dns_client.query client ~route ~name:"node2"
            ~callback:(fun r -> resolved := Some r)
      | None -> ());
  Scenario.run s ~until:Float.max_float;
  match !resolved with
  | Some (Some a) ->
      Alcotest.(check bool) "resolved to node2" true
        (Address.equal a (Scenario.address_of s 2))
  | _ -> Alcotest.fail "query failed"

(* ------------------------------------------------------------------ *)
(* The shared RREQ receive path (Source_route.handle_rreq), driven     *)
(* copy by copy                                                       *)
(* ------------------------------------------------------------------ *)

module Ctx = Manet_proto.Node_ctx
module Identity = Manet_proto.Identity
module Messages = Manet_proto.Messages
module Obs = Manet_obs.Obs

(* Four nodes on a chain, each with an agent of one protocol; [handle i]
   is node [i]'s receive function. *)
let rreq_world protocol =
  let engine = Engine.create ~seed:7 () in
  let net =
    Net.create
      ~config:{ Net.default_config with range = 150.0 }
      engine
      (Manet_sim.Topology.chain ~n:4 ~spacing:100.0)
  in
  let directory = Manet_proto.Directory.create () in
  let suite = Manet_crypto.Suite.mock (Prng.create ~seed:8) in
  let id_rng = Prng.create ~seed:9 in
  let ids = Array.init 4 (fun i -> Identity.create suite id_rng ~node_id:i) in
  Array.iteri
    (fun i id -> Manet_proto.Directory.register directory id.Identity.address i)
    ids;
  let ctxs =
    Array.init 4 (fun i -> Ctx.create net directory ids.(i) (Prng.create ~seed:(100 + i)))
  in
  let handlers =
    Array.map
      (fun ctx ->
        match protocol with
        | `Dsr -> Manetsec.Dsr.handle (Manetsec.Dsr.create ctx)
        | `Secure -> Manetsec.Secure_routing.handle (Manetsec.Secure_routing.create ctx)
        | `Srp -> Manetsec.Srp.handle (Manetsec.Srp.create ~master:"pair keys" ctx))
      ctxs
  in
  let node i = ids.(i).Identity.address in
  (engine, ctxs, node, fun i -> handlers.(i))

(* A copy of node 0's request [seq] for node [dst] whose route record
   holds [hops]. *)
let rreq_copy node ~dst ?(seq = 1) hops =
  Messages.Rreq
    {
      sip = node 0;
      dip = node dst;
      seq;
      srr = List.map (fun i -> { Messages.ip = node i; sig_ = ""; pk = ""; rn = 0L }) hops;
      sig_ = "";
      spk = "";
      srn = 0L;
    }

let protocols = [ ("dsr", `Dsr); ("secure", `Secure); ("srp", `Srp) ]

(* A relay hears each flood once from every neighbour and drops all but
   the first copy, so a duplicate must stay as cheap as a duplicate
   AREQ: the 6-word lookup key is its one allocation. *)
let test_duplicate_rreq_allocation () =
  List.iter
    (fun (name, protocol) ->
      let _, ctxs, node, handle = rreq_world protocol in
      let msg = rreq_copy node ~dst:3 [ 1 ] in
      handle 2 ~src:1 msg;
      let per_copy =
        Test_crypto.minor_words_per_call 10_000 (fun () -> handle 2 ~src:1 msg)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: duplicate RREQ copy %.2f minor words <= 8" name per_copy)
        true (per_copy <= 8.0);
      match Test_timeline.floods (Obs.flood ctxs.(2).Ctx.obs) with
      | [ f ] ->
          Alcotest.(check int) (name ^ ": every copy received") 10_001
            f.Test_timeline.received;
          Alcotest.(check int) (name ^ ": all but the first suppressed") 10_000
            f.Test_timeline.duplicates
      | l -> Alcotest.failf "%s: expected one flood, got %d" name (List.length l))
    protocols

(* A first copy at a relay appends the relay's entry and schedules the
   rebroadcast.  With the event log off it builds no telemetry (no
   relay note text, no correlation key), so what it allocates is the
   protocol's own: the flood's registration, the copy with its longer
   route record, the jitter draw and the scheduled rebroadcast. *)
let test_first_copy_relay_allocation () =
  List.iter
    (fun (name, protocol, budget) ->
      let _, ctxs, node, handle = rreq_world protocol in
      let n = 10_000 in
      let copies = Array.init (n + 1) (fun i -> rreq_copy node ~dst:3 ~seq:(i + 1) [ 1 ]) in
      handle 2 ~src:1 copies.(0);
      let next = ref 1 in
      let per_copy =
        Test_crypto.minor_words_per_call n (fun () ->
            handle 2 ~src:1 copies.(!next);
            incr next)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: first-copy relay %.2f minor words <= %.0f" name per_copy budget)
        true (per_copy <= budget);
      Alcotest.(check int) (name ^ ": every copy a new flood") (n + 1)
        (List.length (Test_timeline.floods (Obs.flood ctxs.(2).Ctx.obs)));
      Alcotest.(check int) (name ^ ": no span kept") 0
        (List.length (Obs.spans ctxs.(2).Ctx.obs)))
    (* 90.4, 313.9 and 90.4 words today; 114.4, 337.9 and 114.4 while
       every relay built the request's correlation key. *)
    [ ("dsr", `Dsr, 96.0); ("secure", `Secure, 320.0); ("srp", `Srp, 96.0) ]

(* The destination answers the first 3 copies of one flood, each over
   its own path, and no more; the bound is per flood. *)
let test_destination_answers_three_copies () =
  let engine, _, node, handle = rreq_world `Dsr in
  List.iter
    (fun hops -> handle 3 ~src:2 (rreq_copy node ~dst:3 hops))
    [ [ 1; 2 ]; [ 2 ]; [ 2; 1 ]; [ 1 ]; [] ];
  Alcotest.(check int) "3 of 5 copies answered" 3
    (Stats.get (Engine.stats engine) "route.replies");
  handle 3 ~src:2 (rreq_copy node ~dst:3 ~seq:2 [ 2 ]);
  Alcotest.(check int) "the next flood is answered" 4
    (Stats.get (Engine.stats engine) "route.replies")

(* A relay neither relays nor answers a first copy whose record already
   names it, nor one of its own requests. *)
let test_relay_drops_looped_copy () =
  List.iter
    (fun (name, protocol) ->
      let engine, _, node, handle = rreq_world protocol in
      let tx () = Stats.get (Engine.stats engine) "tx.rreq" in
      handle 2 ~src:1 (rreq_copy node ~dst:3 [ 2; 1 ]);
      handle 0 ~src:1 (rreq_copy node ~dst:3 ~seq:2 [ 1 ]);
      Engine.run engine;
      Alcotest.(check int) (name ^ ": looped copies dropped") 0 (tx ());
      handle 2 ~src:1 (rreq_copy node ~dst:3 ~seq:3 [ 1 ]);
      Engine.run engine;
      Alcotest.(check int) (name ^ ": a clean copy is relayed") 1 (tx ()))
    protocols

let suites =
  [
    ( "dsr.cache",
      [
        Alcotest.test_case "insert/lookup" `Quick test_cache_insert_lookup;
        Alcotest.test_case "eviction" `Quick test_cache_eviction;
        Alcotest.test_case "remove link" `Quick test_cache_remove_link;
        Alcotest.test_case "remove containing" `Quick test_cache_remove_containing;
        prop_cache_best_matches_fold;
      ] );
    ( "secure.credit",
      [
        Alcotest.test_case "reward/slash" `Quick test_credit_reward_slash;
        Alcotest.test_case "rerr threshold" `Quick test_credit_rerr_threshold;
        Alcotest.test_case "allocation budgets" `Quick test_credit_and_cache_allocation;
      ] );
    ( "routing.benign",
      [
        Alcotest.test_case "dsr chain delivery" `Quick test_dsr_benign;
        Alcotest.test_case "secure chain delivery" `Quick test_secure_benign;
        Alcotest.test_case "secure wire cost" `Quick test_secure_wire_larger_than_dsr;
        Alcotest.test_case "cache reply (CREP)" `Quick test_cache_reply_crep;
        Alcotest.test_case "rerr on link break" `Quick test_rerr_on_link_break;
        Alcotest.test_case "reroute around break" `Quick test_reroute_around_break;
        Alcotest.test_case "salvaging" `Quick test_salvage_rescues_packets;
        Alcotest.test_case "route shortening" `Quick test_route_shortening;
      ] );
    ( "routing.srp",
      [
        Alcotest.test_case "benign delivery" `Quick test_srp_benign_delivery;
        Alcotest.test_case "rejects forged rrep" `Quick test_srp_rejects_forged_rrep;
        Alcotest.test_case "reply span under the flood" `Quick test_srp_reply_span;
        Alcotest.test_case "accepts impersonation" `Quick test_srp_accepts_impersonation;
      ] );
    ( "routing.attacks",
      [
        Alcotest.test_case "blackhole kills plain dsr" `Quick test_blackhole_kills_plain_dsr;
        Alcotest.test_case "no-ack dsr retains no packets" `Quick
          test_no_ack_dsr_retains_no_packets;
        Alcotest.test_case "blackhole foiled by secure" `Quick test_blackhole_foiled_by_secure;
        Alcotest.test_case "impersonation rejected (secure)" `Quick
          test_impersonation_rejected_by_secure;
        Alcotest.test_case "impersonation succeeds (dsr)" `Quick
          test_impersonation_succeeds_on_plain_dsr;
        Alcotest.test_case "replayed rrep rejected" `Quick test_replayed_rrep_rejected_by_secure;
        Alcotest.test_case "rerr spam detected" `Quick test_rerr_spam_detected_by_secure;
        Alcotest.test_case "blackhole probing localizes" `Quick test_blackhole_probing_localizes;
        Alcotest.test_case "credits route around grayhole" `Quick
          test_credits_route_around_grayhole;
        Alcotest.test_case "identity churn distrusted" `Quick
          test_identity_churn_stays_distrusted;
      ] );
    ( "routing.rreq",
      [
        Alcotest.test_case "duplicate RREQ allocation budget" `Quick
          test_duplicate_rreq_allocation;
        Alcotest.test_case "first-copy relay allocation budget" `Quick
          test_first_copy_relay_allocation;
        Alcotest.test_case "destination answers three copies" `Quick
          test_destination_answers_three_copies;
        Alcotest.test_case "relay drops looped copy" `Quick test_relay_drops_looped_copy;
      ] );
    ( "routing.fullstack",
      [
        Alcotest.test_case "bootstrap then dns query" `Quick
          test_full_stack_bootstrap_and_query;
      ] );
  ]
