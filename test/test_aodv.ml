(* Tests for the AODV substrate and its SAODV-style secured variant —
   the comparison protocol for the paper's "translating to other routing
   protocols" discussion. *)

module Prng = Manet_crypto.Prng
module Stats = Manet_sim.Stats
module Net = Manet_sim.Net
module Aodv = Manetsec.Aodv
module Adversary = Manetsec.Adversary
module Scenario = Manetsec.Scenario

let stat s name = Stats.get (Scenario.stats s) name

(* AODV worlds are plain scenarios without the DNS: node 0 sends, and
   the DNS's well-known address is no CGA, so SAODV would refuse its
   requests. *)
let world ~n ~seed ~secure ~adversaries topology =
  Scenario.create
    {
      Scenario.default_params with
      n;
      seed;
      range = 150.0;
      protocol = (if secure then Scenario.Saodv else Scenario.Aodv);
      with_dns = false;
      topology;
      adversaries;
    }

let chain ?(n = 5) ?(secure = false) ?(adversaries = []) ?(seed = 7) () =
  world ~n ~seed ~secure ~adversaries (Scenario.Chain { spacing = 100.0 })

let grid ?(secure = false) ?(adversaries = []) ?(seed = 11) () =
  world ~n:9 ~seed ~secure ~adversaries (Scenario.Grid { cols = 3; spacing = 100.0 })

(* ------------------------------------------------------------------ *)
(* Hash chain (SAODV hop-count protection)                            *)
(* ------------------------------------------------------------------ *)

let test_hash_chain_accepts_honest_advance () =
  let g = Prng.create ~seed:1 in
  let seed, top = Aodv.Hash_chain.generate g ~max_hops:10 in
  let hash = ref seed in
  for hop = 0 to 10 do
    Alcotest.(check bool)
      (Printf.sprintf "hop %d verifies" hop)
      true
      (Aodv.Hash_chain.check ~hash:!hash ~top_hash:top ~max_hops:10 ~hop_count:hop);
    hash := Aodv.Hash_chain.advance !hash
  done

let test_hash_chain_rejects_shrunk_hop_count () =
  (* A relay that advanced the chain cannot claim a smaller hop count:
     that would require inverting H. *)
  let g = Prng.create ~seed:2 in
  let seed, top = Aodv.Hash_chain.generate g ~max_hops:10 in
  let after3 =
    Aodv.Hash_chain.advance (Aodv.Hash_chain.advance (Aodv.Hash_chain.advance seed))
  in
  Alcotest.(check bool) "hop 3 ok" true
    (Aodv.Hash_chain.check ~hash:after3 ~top_hash:top ~max_hops:10 ~hop_count:3);
  Alcotest.(check bool) "claiming hop 1 fails" false
    (Aodv.Hash_chain.check ~hash:after3 ~top_hash:top ~max_hops:10 ~hop_count:1);
  Alcotest.(check bool) "claiming hop 0 fails" false
    (Aodv.Hash_chain.check ~hash:after3 ~top_hash:top ~max_hops:10 ~hop_count:0)

let test_hash_chain_rejects_garbage () =
  let g = Prng.create ~seed:3 in
  let _, top = Aodv.Hash_chain.generate g ~max_hops:10 in
  Alcotest.(check bool) "garbage fails" false
    (Aodv.Hash_chain.check ~hash:(String.make 32 'x') ~top_hash:top ~max_hops:10
       ~hop_count:5);
  Alcotest.(check bool) "out of range hop fails" false
    (Aodv.Hash_chain.check ~hash:top ~top_hash:top ~max_hops:10 ~hop_count:11)

(* ------------------------------------------------------------------ *)
(* Benign routing                                                     *)
(* ------------------------------------------------------------------ *)

let benign secure =
  let w = chain ~secure () in
  Scenario.start_cbr w ~flows:[ (0, 4) ] ~interval:0.5 ~duration:10.0 ();
  Scenario.run w ~until:40.0;
  Alcotest.(check int) "offered" 21 (stat w "data.offered");
  Alcotest.(check (float 0.01)) "delivery" 1.0 (Scenario.delivery_ratio w);
  Alcotest.(check int) "acked" 21 (stat w "data.acked");
  w

let test_aodv_benign_chain () =
  let w = benign false in
  Alcotest.(check int) "no rejects in plain mode" 0 (stat w "aodv.rrep_rejected")

let test_saodv_benign_chain () =
  let w = benign true in
  Alcotest.(check int) "nothing rejected" 0 (stat w "aodv.rrep_rejected");
  Alcotest.(check int) "no chain rejects" 0 (stat w "aodv.hash_chain_rejected")

let test_aodv_routes_installed_hop_by_hop () =
  let w = chain () in
  Scenario.start_cbr w ~flows:[ (0, 4) ] ~interval:1.0 ~duration:0.0 ();
  Scenario.run w ~until:20.0;
  (* One packet, delivered: in a chain each of the three relays holds a
     next-hop entry one link down and forwards it exactly once. *)
  Alcotest.(check (float 0.0)) "delivered" 1.0 (Scenario.delivery_ratio w);
  Alcotest.(check int) "one forward per relay" 3 (stat w "data.forwarded")

let test_aodv_reroutes_after_break () =
  let w = grid () in
  Scenario.start_cbr w ~flows:[ (0, 8) ] ~interval:0.5 ~duration:20.0 ();
  Scenario.run w ~until:5.0;
  Net.set_down (Scenario.net w) 4 true;
  Scenario.run w ~until:60.0;
  Alcotest.(check bool)
    (Printf.sprintf "recovers around the dead centre (%.2f)" (Scenario.delivery_ratio w))
    true
    (Scenario.delivery_ratio w > 0.85)

let test_aodv_rerr_on_midpath_break () =
  (* A break one hop away from the source: the upstream relay must
     report with a RERR (the source-adjacent case is handled by the MAC
     failure alone). *)
  let w = chain ~n:5 () in
  Scenario.start_cbr w ~flows:[ (0, 4) ] ~interval:0.5 ~duration:15.0 ();
  Scenario.run w ~until:5.0;
  Net.set_down (Scenario.net w) 2 true;
  Scenario.run w ~until:60.0;
  Alcotest.(check bool) "rerr sent by the relay" true (stat w "rerr.sent" >= 1);
  Alcotest.(check bool) "packets dropped after the break" true
    (stat w "data.dropped" >= 1);
  (* AODV data and acks count under tx.data/tx.ack, so the control
     readers add up exactly the three AODV control kinds. *)
  let kinds = [ "aodv_rreq"; "aodv_rrep"; "aodv_rerr" ] in
  List.iter
    (fun k -> Alcotest.(check bool) ("some " ^ k) true (stat w ("tx." ^ k) > 0))
    kinds;
  Alcotest.(check bool) "data sent" true (stat w "tx.data" > 0);
  let sum prefix = List.fold_left (fun acc k -> acc + stat w (prefix ^ k)) 0 kinds in
  Alcotest.(check int) "control bytes" (sum "txbytes.") (Scenario.control_bytes w);
  Alcotest.(check int) "control packets" (sum "tx.") (Scenario.control_packets w)


(* ------------------------------------------------------------------ *)
(* Black hole vs AODV and SAODV                                       *)
(* ------------------------------------------------------------------ *)

let test_blackhole_kills_plain_aodv () =
  let adversaries = [ (4, Adversary.blackhole) ] in
  let w = grid ~adversaries () in
  Scenario.start_cbr w ~flows:[ (0, 8) ] ~interval:0.5 ~duration:15.0 ();
  Scenario.run w ~until:60.0;
  Alcotest.(check bool) "forged" true (stat w "attack.rrep_forged" >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "delivery collapses (%.2f)" (Scenario.delivery_ratio w))
    true
    (Scenario.delivery_ratio w < 0.5);
  Alcotest.(check bool) "data swallowed" true (stat w "attack.data_dropped" >= 1)

let test_blackhole_foiled_by_saodv () =
  let adversaries = [ (4, Adversary.blackhole) ] in
  let w = grid ~secure:true ~adversaries () in
  Scenario.start_cbr w ~flows:[ (0, 8) ] ~interval:0.5 ~duration:15.0 ();
  Scenario.run w ~until:60.0;
  Alcotest.(check bool) "forgeries rejected" true
    (stat w "aodv.rrep_rejected" + stat w "aodv.hash_chain_rejected" >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "delivery survives (%.2f)" (Scenario.delivery_ratio w))
    true
    (Scenario.delivery_ratio w > 0.9)

let test_saodv_cannot_name_the_dropper () =
  (* The paper's point: a silent dropper *on a legitimate route* hurts
     SAODV too, and SAODV has no per-hop identity record with which to
     name or avoid it — there is no analogue of secure-DSR's
     hostile_suspected.  A chain makes the dropper's position on the
     route deterministic. *)
  let adversaries = [ (2, { Adversary.blackhole with forge_rrep = false }) ] in
  let w = chain ~n:5 ~secure:true ~adversaries ~seed:13 () in
  Scenario.start_cbr w ~flows:[ (0, 4); (4, 0) ] ~interval:0.5 ~duration:20.0 ();
  Scenario.run w ~until:80.0;
  Alcotest.(check bool) "dropper did damage" true (stat w "attack.data_dropped" >= 1);
  (* No identification machinery exists: the stat key is never written
     by the AODV agents. *)
  Alcotest.(check int) "no suspicion mechanism" 0 (stat w "secure.hostile_suspected")

(* What AODV cannot run is refused up front rather than run to no
   effect: a promiscuous radio (AODV names no next hop, so every
   overhearing neighbour would act as one) and, under SAODV with the
   DNS, a flow touching node 0 (its DNS address is no CGA). *)
let test_refused_configurations () =
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun protocol ->
      raises "promiscuous radio" (fun () ->
          ignore
            (Scenario.create
               { Scenario.default_params with n = 4; protocol; promiscuous = true })))
    [ Scenario.Aodv; Scenario.Saodv ];
  let saodv_dns = Scenario.create { Scenario.default_params with n = 4; protocol = Saodv } in
  raises "flow from node 0" (fun () ->
      Scenario.start_cbr saodv_dns ~flows:[ (0, 3) ] ~interval:0.5 ~duration:1.0 ());
  raises "send to node 0" (fun () -> Scenario.send saodv_dns ~src:2 ~dst:0 ());
  let aodv_dns = Scenario.create { Scenario.default_params with n = 4; protocol = Aodv } in
  Scenario.start_cbr aodv_dns ~flows:[ (0, 3) ] ~interval:0.5 ~duration:1.0 ()

let suites =
  [
    ( "aodv.hash_chain",
      [
        Alcotest.test_case "honest advance" `Quick test_hash_chain_accepts_honest_advance;
        Alcotest.test_case "shrink rejected" `Quick test_hash_chain_rejects_shrunk_hop_count;
        Alcotest.test_case "garbage rejected" `Quick test_hash_chain_rejects_garbage;
      ] );
    ( "aodv.routing",
      [
        Alcotest.test_case "aodv benign chain" `Quick test_aodv_benign_chain;
        Alcotest.test_case "saodv benign chain" `Quick test_saodv_benign_chain;
        Alcotest.test_case "hop-by-hop tables" `Quick test_aodv_routes_installed_hop_by_hop;
        Alcotest.test_case "reroute after break" `Quick test_aodv_reroutes_after_break;
        Alcotest.test_case "rerr on mid-path break" `Quick test_aodv_rerr_on_midpath_break;
        Alcotest.test_case "refused configurations" `Quick test_refused_configurations;
      ] );
    ( "aodv.attacks",
      [
        Alcotest.test_case "blackhole kills aodv" `Quick test_blackhole_kills_plain_aodv;
        Alcotest.test_case "blackhole foiled by saodv" `Quick test_blackhole_foiled_by_saodv;
        Alcotest.test_case "saodv cannot name dropper" `Quick test_saodv_cannot_name_the_dropper;
      ] );
  ]
