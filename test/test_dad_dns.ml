(* Integration tests for secure DAD (§3.1) and DNS services (§3.2). *)

module Prng = Manet_crypto.Prng
module Suite = Manet_crypto.Suite
module Address = Manet_ipv6.Address
module Cga = Manet_ipv6.Cga
module Engine = Manet_sim.Engine
module Topology = Manet_sim.Topology
module Net = Manet_sim.Net
module Stats = Manet_sim.Stats
module Messages = Manet_proto.Messages
module Codec = Manet_proto.Codec
module Ctx = Manet_proto.Node_ctx
module Directory = Manet_proto.Directory
module Identity = Manet_proto.Identity
module Dad = Manet_dad.Dad
module Dns = Manet_dns.Dns
module Dns_client = Manet_dns.Client
module Obs = Manet_obs.Obs
module Flood = Manet_obs.Flood

(* A small world: node 0 is the DNS server, nodes 1..n-1 are hosts, laid
   out in a chain with 100-unit spacing and 150-unit radio range (so only
   adjacent nodes hear each other). *)
type world = {
  engine : Engine.t;
  net : Messages.t Net.t;
  directory : Directory.t;
  identities : Identity.t array;
  ctxs : Ctx.t array;
  dads : Dad.t array;
  dns : Dns.t;
  clients : Dns_client.t array;
  dns_pk : string;
}

let make_world ?(n = 5) ?(seed = 42) () =
  let engine = Engine.create ~seed () in
  let topo = Topology.chain ~n ~spacing:100.0 in
  let config = { Net.default_config with range = 150.0 } in
  let net = Net.create ~config engine topo in
  let directory = Directory.create () in
  let suite = Suite.mock (Prng.create ~seed:(seed + 1)) in
  let id_rng = Prng.create ~seed:(seed + 2) in
  let identities =
    Array.init n (fun i ->
        if i = 0 then
          Identity.create ~address:Address.dns_server_1 ~name:"dns" suite id_rng
            ~node_id:0
        else Identity.create suite id_rng ~node_id:i)
  in
  let dns_pk = Identity.pk_bytes identities.(0) in
  (* Link-layer reachability: every initial address resolves (relays with
     tentative addresses can still be addressed, like link-layer frames). *)
  Array.iteri (fun i id -> Directory.register directory id.Identity.address i) identities;
  let ctxs =
    Array.init n (fun i ->
        Ctx.create net directory identities.(i) (Prng.create ~seed:(seed + 100 + i)))
  in
  let dads = Array.map (fun ctx -> Dad.create ~dns_pk ctx) ctxs in
  let dns = Dns.create ctxs.(0) in
  Dns.attach dns dads.(0);
  let clients = Array.map (fun ctx -> Dns_client.create ~dns_pk ctx) ctxs in
  Array.iteri
    (fun i ctx ->
      Net.set_handler net i (fun ~src msg ->
          match msg with
          | Messages.Areq _ | Messages.Arep _ | Messages.Drep _ ->
              Dad.handle dads.(i) ~src msg
          | Messages.Name_query _ | Messages.Ip_change_request _
          | Messages.Ip_change_proof _ ->
              if i = 0 then Dns.handle dns ~src msg
              else
                (* intermediate hop: forward along the source route *)
                Ctx.deliver_up ctx ~src msg
                  ~consume:(fun _ -> ())
                  ~forward:(fun ~next m -> Ctx.send_along ctx ~path:next m)
                  ~not_mine:(fun _ -> ())
          | Messages.Name_reply _ | Messages.Ip_change_challenge _
          | Messages.Ip_change_ack _ ->
              Dns_client.handle clients.(i) ~src msg
          | _ -> ()))
    ctxs;
  { engine; net; directory; identities; ctxs; dads; dns; clients; dns_pk }

let stat w name = Stats.get (Engine.stats w.engine) name

let run_dad ?dn w i =
  let result = ref None in
  Dad.start w.dads.(i) ?dn ~on_complete:(fun o -> result := Some o) ();
  Engine.run w.engine;
  match !result with
  | None -> Alcotest.failf "node %d: DAD never completed" i
  | Some o -> o

let expect_configured = function
  | Dad.Configured { address; name } -> (address, name)
  | Dad.Failed reason -> Alcotest.failf "DAD failed: %s" reason

(* ------------------------------------------------------------------ *)
(* DAD                                                                *)
(* ------------------------------------------------------------------ *)

let test_dad_unique_address_succeeds () =
  let w = make_world () in
  let addr, name = expect_configured (run_dad w 2 ~dn:"host2") in
  Alcotest.(check bool) "site local CGA" true (Test_ipv6.is_site_local addr);
  Alcotest.(check (option string)) "name kept" (Some "host2") name;
  Alcotest.(check int) "no collision" 0 (stat w "dad.collision");
  Alcotest.(check bool) "configured" true (Dad.is_configured w.dads.(2))

let test_dad_all_nodes_bootstrap () =
  let w = make_world ~n:6 () in
  let outcomes = Array.make 6 None in
  for i = 1 to 5 do
    (* Stagger joins, as hosts arriving at an outdoor event would. *)
    Engine.schedule w.engine ~delay:(float_of_int i *. 3.0) (fun () ->
        Dad.start w.dads.(i)
          ~dn:(Printf.sprintf "host%d" i)
          ~on_complete:(fun o -> outcomes.(i) <- Some o)
          ())
  done;
  Engine.run w.engine;
  let addresses = ref [] in
  for i = 1 to 5 do
    match outcomes.(i) with
    | Some (Dad.Configured { address; _ }) -> addresses := address :: !addresses
    | Some (Dad.Failed r) -> Alcotest.failf "node %d failed: %s" i r
    | None -> Alcotest.failf "node %d never completed" i
  done;
  let distinct = List.sort_uniq Address.compare !addresses in
  Alcotest.(check int) "all addresses distinct" 5 (List.length distinct);
  (* All five names registered once commit_wait elapsed. *)
  Alcotest.(check int) "names registered" 5 (List.length (Dns.entries w.dns))

let force_duplicate w ~of_:i ~onto:j =
  (* Give node j the same tentative address as node i. *)
  let dup = w.identities.(i).Identity.address in
  Directory.unregister w.directory w.identities.(j).Identity.address j;
  w.identities.(j).Identity.address <- dup;
  Directory.register w.directory dup j

let test_dad_detects_duplicate_one_hop () =
  let w = make_world () in
  ignore (expect_configured (run_dad w 1));
  force_duplicate w ~of_:1 ~onto:2;
  let addr, _ = expect_configured (run_dad w 2) in
  Alcotest.(check bool) "got a different address" false
    (Address.equal addr w.identities.(1).Identity.address);
  Alcotest.(check bool) "collision detected" true (stat w "dad.collision" >= 1);
  Alcotest.(check bool) "duplicate answered" true (stat w "dad.duplicate_detected" >= 1)

let test_dad_detects_duplicate_multi_hop () =
  (* Owner at node 1, joiner at node 4: three hops apart, beyond radio
     range — only the flooded AREQ can find the collision. *)
  let w = make_world ~n:5 () in
  ignore (expect_configured (run_dad w 1));
  force_duplicate w ~of_:1 ~onto:4;
  let addr, _ = expect_configured (run_dad w 4) in
  Alcotest.(check bool) "resolved to fresh address" false
    (Address.equal addr w.identities.(1).Identity.address);
  Alcotest.(check bool) "collision detected" true (stat w "dad.collision" >= 1)

let test_dad_duplicate_warning_cancels_registration () =
  let w = make_world ~n:5 () in
  ignore (expect_configured (run_dad w 1));
  force_duplicate w ~of_:1 ~onto:3;
  let addr, name = expect_configured (run_dad w 3 ~dn:"charlie") in
  Alcotest.(check bool) "warning reached dns" true
    (stat w "dns.registration_cancelled" >= 1);
  (* The name must end up bound to the *new* address, never the duplicate. *)
  Alcotest.(check (option string)) "name kept" (Some "charlie") name;
  (match Dns.lookup w.dns "charlie" with
  | None -> Alcotest.fail "charlie not registered"
  | Some bound ->
      Alcotest.(check bool) "bound to final address" true (Address.equal bound addr);
      Alcotest.(check bool) "not bound to the duplicate" false
        (Address.equal bound w.identities.(1).Identity.address))

let test_dad_simultaneous_duplicates () =
  (* Two nodes start DAD for the same tentative address at the same
     moment: each should hear the other's AREQ, answer, and both end up
     with distinct addresses. *)
  let w = make_world ~n:5 () in
  force_duplicate w ~of_:1 ~onto:3;
  let o1 = ref None and o3 = ref None in
  Dad.start w.dads.(1) ~on_complete:(fun o -> o1 := Some o) ();
  Dad.start w.dads.(3) ~on_complete:(fun o -> o3 := Some o) ();
  Engine.run w.engine;
  match (!o1, !o3) with
  | Some (Dad.Configured { address = a1; _ }), Some (Dad.Configured { address = a3; _ }) ->
      Alcotest.(check bool) "distinct final addresses" false (Address.equal a1 a3);
      Alcotest.(check bool) "at least one collision seen" true
        (stat w "dad.collision" >= 1)
  | _ -> Alcotest.fail "both nodes must configure"

let test_dad_name_conflict_renames () =
  let w = make_world () in
  ignore (expect_configured (run_dad w 1 ~dn:"server"));
  let _, name = expect_configured (run_dad w 2 ~dn:"server") in
  Alcotest.(check (option string)) "renamed" (Some "server-2") name;
  Alcotest.(check bool) "drep sent" true (stat w "dns.drep_sent" >= 1);
  (match Dns.lookup w.dns "server" with
  | Some a ->
      Alcotest.(check bool) "original keeps name" true
        (Address.equal a w.identities.(1).Identity.address)
  | None -> Alcotest.fail "server lost");
  Alcotest.(check bool) "renamed entry exists" true (Dns.lookup w.dns "server-2" <> None)

let test_dad_name_conflict_fails_without_rename () =
  let w = make_world () in
  ignore (expect_configured (run_dad w 1 ~dn:"server"));
  let config = { Dad.auto_rename = false } in
  let dad = Dad.create ~config ~dns_pk:w.dns_pk w.ctxs.(2) in
  (* Swap in the stricter agent for node 2. *)
  let result = ref None in
  Net.set_handler w.net 2 (fun ~src msg ->
      match msg with
      | Messages.Areq _ | Messages.Arep _ | Messages.Drep _ ->
          Dad.handle dad ~src msg
      | _ -> ());
  Dad.start dad ~dn:"server" ~on_complete:(fun o -> result := Some o) ();
  Engine.run w.engine;
  match !result with
  | Some (Dad.Failed _) -> ()
  | Some (Dad.Configured _) -> Alcotest.fail "expected name-conflict failure"
  | None -> Alcotest.fail "DAD never completed"

let test_dad_permanent_entry_protected () =
  (* §3.2: a pre-provisioned (name, address) pair cannot be claimed by a
     newcomer. *)
  let w = make_world () in
  let server_addr = Address.of_string_exn "fec0::aaaa" in
  Dns.preload w.dns ~name:"yahoo.com" server_addr;
  let _, name = expect_configured (run_dad w 2 ~dn:"yahoo.com") in
  Alcotest.(check bool) "did not get the permanent name" true
    (name <> Some "yahoo.com");
  Alcotest.(check (option bool)) "mapping intact" (Some true)
    (Option.map (Address.equal server_addr) (Dns.lookup w.dns "yahoo.com"))

let test_dad_forged_arep_rejected () =
  (* An adversary (node 2) answers every AREQ with a forged AREP, trying
     to deny addresses (§4, forged AREP).  The initiator must ignore it
     and configure anyway. *)
  let w = make_world () in
  let attacker_ctx = w.ctxs.(2) in
  let attacker_rng = Prng.create ~seed:999 in
  Net.set_handler w.net 2 (fun ~src:_ msg ->
      match msg with
      | Messages.Areq { sip; rr; _ } ->
          let back_path = List.rev rr @ [ sip ] in
          let fake =
            Messages.Arep
              {
                sip;
                rr;
                remaining = back_path;
                sig_ = Prng.bytes attacker_rng 32;
                pk = Prng.bytes attacker_rng 32;
                rn = 0L;
              }
          in
          Ctx.send_along attacker_ctx ~path:back_path fake
      | _ -> ());
  let addr, _ = expect_configured (run_dad w 1) in
  Alcotest.(check bool) "configured despite forgery" true
    (Test_ipv6.is_site_local addr);
  Alcotest.(check bool) "forgery was rejected" true (stat w "dad.arep_rejected" >= 1);
  Alcotest.(check int) "no collision recorded" 0 (stat w "dad.collision")

let test_dad_forged_drep_rejected () =
  (* A forged DREP (not signed by the DNS key) must not force a rename. *)
  let w = make_world () in
  let attacker_ctx = w.ctxs.(2) in
  let attacker_rng = Prng.create ~seed:1001 in
  Net.set_handler w.net 2 (fun ~src:_ msg ->
      match msg with
      | Messages.Areq { sip; dn = Some dn; rr; _ } ->
          let back_path = List.rev rr @ [ sip ] in
          let fake =
            Messages.Drep
              { sip; dn; rr; remaining = back_path; sig_ = Prng.bytes attacker_rng 32 }
          in
          Ctx.send_along attacker_ctx ~path:back_path fake
      | _ -> ());
  let _, name = expect_configured (run_dad w 1 ~dn:"alice") in
  Alcotest.(check (option string)) "kept the name" (Some "alice") name;
  Alcotest.(check bool) "forgery rejected" true (stat w "dad.drep_rejected" >= 1)

let test_dad_flood_is_duplicate_suppressed () =
  let w = make_world ~n:8 () in
  ignore (expect_configured (run_dad w 4));
  (* In an 8-node chain, each node broadcasts a given AREQ at most once:
     1 original + at most 7 relays. *)
  let areq_tx = stat w "tx.areq" in
  Alcotest.(check bool) "flood bounded by one tx per node"
    true
    (areq_tx >= 3 && areq_tx <= 8)

(* With the event log off, completing DAD formats no event detail: the
   configured address is rendered only while the log is on.  Node 2
   completes first, so the counters and spans node 1's completion
   touches already exist.  Its completion event then allocates the two
   spans' end times and outcomes and its outcome value, 17 words;
   rendering the address as well took 35. *)
let test_dad_completion_allocation () =
  let w = make_world ~n:3 () in
  let o = w.ctxs.(1).Ctx.obs in
  Alcotest.(check bool) "event log off" false (Obs.wants_events o);
  Dad.start w.dads.(2) ~on_complete:ignore ();
  Engine.schedule w.engine ~delay:1.0 (fun () ->
      Dad.start w.dads.(1) ~on_complete:ignore ());
  Engine.run w.engine ~until:2.9;
  Alcotest.(check bool) "node 2 configured first" true (Dad.is_configured w.dads.(2));
  Alcotest.(check bool) "node 1 still pending" true (Dad.is_pending w.dads.(1));
  let words =
    Test_crypto.minor_words_per_call 1 (fun () -> Engine.run w.engine ~max_events:1)
  in
  Alcotest.(check bool) "node 1 configured by that event" true
    (Dad.is_configured w.dads.(1));
  Alcotest.(check bool)
    (Printf.sprintf "DAD completion: %.0f minor words <= 24" words)
    true (words <= 24.0)

(* Every host hears every AREQ copy its neighbours relay and drops all
   but the first, so a duplicate copy must stay cheap: one seen-table
   lookup and the flood counters, building no string.  The 6-word
   lookup key is the only allocation left. *)
let test_dad_duplicate_areq_allocation () =
  let w = make_world ~n:3 () in
  let sip = Address.of_string_exn "fec0::1234" in
  let msg =
    Messages.Areq
      {
        sip;
        seq = 1;
        dn = None;
        ch = 0x5eedL;
        rr = [ w.identities.(1).Identity.address ];
      }
  in
  Dad.handle w.dads.(2) ~src:1 msg;
  let per_copy =
    Test_crypto.minor_words_per_call 10_000 (fun () ->
        Dad.handle w.dads.(2) ~src:1 msg)
  in
  Alcotest.(check bool)
    (Printf.sprintf "duplicate AREQ copy: %.2f minor words <= 8" per_copy)
    true (per_copy <= 8.0);
  match Test_timeline.floods (Obs.flood w.ctxs.(2).Ctx.obs) with
  | [ s ] ->
      Alcotest.(check int) "every copy received" 10_001 s.Test_timeline.received;
      Alcotest.(check int) "all but the first suppressed" 10_000
        s.Test_timeline.duplicates;
      Alcotest.(check int) "one node reached" 1 s.Test_timeline.reached
  | l -> Alcotest.failf "expected one flood, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* DNS client services                                                *)
(* ------------------------------------------------------------------ *)

let bootstrap_all w n =
  for i = 1 to n - 1 do
    Engine.schedule w.engine ~delay:(float_of_int i *. 3.0) (fun () ->
        Dad.start w.dads.(i)
          ~dn:(Printf.sprintf "host%d" i)
          ~on_complete:(fun _ -> ())
          ())
  done;
  Engine.run w.engine

(* The route (intermediates) from node i to the DNS at node 0 along the
   chain. *)
let route_to_dns w i =
  List.init (i - 1) (fun k -> w.identities.(i - 1 - k).Identity.address)

let test_dns_query_resolves () =
  let w = make_world ~n:5 () in
  bootstrap_all w 5;
  let result = ref `Pending in
  Dns_client.query w.clients.(4) ~route:(route_to_dns w 4) ~name:"host2"
    ~callback:(fun r -> result := `Got r);
  Engine.run w.engine;
  (match !result with
  | `Got (Some addr) ->
      Alcotest.(check bool) "resolves to host2's address" true
        (Address.equal addr w.identities.(2).Identity.address)
  | `Got None -> Alcotest.fail "name not found"
  | `Pending -> Alcotest.fail "no verified reply");
  Alcotest.(check bool) "verified" true (stat w "dns_client.verified_replies" >= 1)

let test_dns_query_unknown_name () =
  let w = make_world ~n:3 () in
  bootstrap_all w 3;
  let result = ref `Pending in
  Dns_client.query w.clients.(2) ~route:(route_to_dns w 2) ~name:"nobody"
    ~callback:(fun r -> result := `Got r);
  Engine.run w.engine;
  match !result with
  | `Got None -> ()
  | `Got (Some _) -> Alcotest.fail "unknown name resolved"
  | `Pending -> Alcotest.fail "no verified reply"

let test_dns_ip_change_accepted () =
  let w = make_world ~n:4 () in
  bootstrap_all w 4;
  let old_addr = w.identities.(3).Identity.address in
  let changed = ref None in
  Dns_client.request_ip_change w.clients.(3) ~route:(route_to_dns w 3)
    ~callback:(fun ok -> changed := Some ok);
  Engine.run w.engine;
  Alcotest.(check (option bool)) "accepted" (Some true) !changed;
  let new_addr = w.identities.(3).Identity.address in
  Alcotest.(check bool) "address really changed" false (Address.equal old_addr new_addr);
  Alcotest.(check bool) "still a valid CGA" true
    (Cga.verify new_addr
       ~pk_bytes:(Identity.pk_bytes w.identities.(3))
       ~rn:w.identities.(3).Identity.rn);
  (* The DNS followed the rebinding. *)
  (match Dns.lookup w.dns "host3" with
  | Some a -> Alcotest.(check bool) "dns rebound" true (Address.equal a new_addr)
  | None -> Alcotest.fail "host3 lost its name");
  (* The directory follows too. *)
  Alcotest.(check (option int)) "directory rebound" (Some 3)
    (Directory.lookup w.directory new_addr);
  Alcotest.(check (option int)) "old binding gone" None
    (Directory.lookup w.directory old_addr)

let test_dns_ip_change_forged_proof_rejected () =
  (* The attacker (node 2) tries to steal node 1's address binding: it
     requests a change of node 1's address and answers the challenge with
     its own key.  CGA verification must fail. *)
  let w = make_world ~n:3 () in
  bootstrap_all w 3;
  let victim = w.identities.(1).Identity.address in
  let attacker = w.identities.(2) in
  let atk_rng = Prng.create ~seed:7 in
  let new_rn, new_ip = Cga.fresh atk_rng ~pk_bytes:(Identity.pk_bytes attacker) in
  let route = route_to_dns w 2 in
  let path = route @ [ Address.dns_server_1 ] in
  Ctx.send_along w.ctxs.(2) ~path
    (Messages.Ip_change_request { old_ip = victim; new_ip; route; remaining = path });
  Engine.run w.engine;
  (* The challenge went to the victim (owner of old_ip), who has no
     pending change; the attacker cannot learn ch, so nothing changes. *)
  Alcotest.(check int) "no change committed" 0 (stat w "dns.ip_changed");
  (* Now the attacker guesses a challenge and sends a proof directly:
     the DNS must reject it. *)
  let sig_ =
    Identity.sign attacker
      (Codec.ip_change_payload ~old_ip:victim ~new_ip ~ch:0L)
  in
  Ctx.send_along w.ctxs.(2) ~path
    (Messages.Ip_change_proof
       {
         old_ip = victim;
         new_ip;
         old_rn = 0L;
         new_rn;
         pk = Identity.pk_bytes attacker;
         sig_;
         route;
         remaining = path;
       });
  Engine.run w.engine;
  Alcotest.(check int) "still no change" 0 (stat w "dns.ip_changed");
  (match Dns.lookup w.dns "host1" with
  | Some a -> Alcotest.(check bool) "victim keeps binding" true (Address.equal a victim)
  | None -> Alcotest.fail "victim lost binding")

let test_dns_fcfs_pending_conflict () =
  (* Two hosts race for the same name; the first AREQ to reach the DNS
     wins even before commit. *)
  let w = make_world ~n:4 () in
  let o1 = ref None and o2 = ref None in
  Engine.schedule w.engine ~delay:0.0 (fun () ->
      Dad.start w.dads.(1) ~dn:"race" ~on_complete:(fun o -> o1 := Some o) ());
  Engine.schedule w.engine ~delay:0.2 (fun () ->
      (* inside the first registration's commit window *)
      Dad.start w.dads.(2) ~dn:"race" ~on_complete:(fun o -> o2 := Some o) ());
  Engine.run w.engine;
  (match (!o1, !o2) with
  | Some (Dad.Configured { name = n1; _ }), Some (Dad.Configured { name = n2; _ }) ->
      Alcotest.(check (option string)) "first keeps name" (Some "race") n1;
      Alcotest.(check bool) "second renamed" true (n2 <> Some "race")
  | _ -> Alcotest.fail "both should configure");
  match Dns.lookup w.dns "race" with
  | Some a ->
      Alcotest.(check bool) "bound to first" true
        (Address.equal a w.identities.(1).Identity.address)
  | None -> Alcotest.fail "race not registered"

let suites =
  [
    ( "dad",
      [
        Alcotest.test_case "unique address succeeds" `Quick test_dad_unique_address_succeeds;
        Alcotest.test_case "all nodes bootstrap" `Quick test_dad_all_nodes_bootstrap;
        Alcotest.test_case "duplicate one hop" `Quick test_dad_detects_duplicate_one_hop;
        Alcotest.test_case "duplicate multi hop" `Quick test_dad_detects_duplicate_multi_hop;
        Alcotest.test_case "warning cancels registration" `Quick
          test_dad_duplicate_warning_cancels_registration;
        Alcotest.test_case "simultaneous duplicates" `Quick test_dad_simultaneous_duplicates;
        Alcotest.test_case "name conflict renames" `Quick test_dad_name_conflict_renames;
        Alcotest.test_case "name conflict strict" `Quick
          test_dad_name_conflict_fails_without_rename;
        Alcotest.test_case "permanent entry protected" `Quick test_dad_permanent_entry_protected;
        Alcotest.test_case "forged arep rejected" `Quick test_dad_forged_arep_rejected;
        Alcotest.test_case "forged drep rejected" `Quick test_dad_forged_drep_rejected;
        Alcotest.test_case "flood dedup" `Quick test_dad_flood_is_duplicate_suppressed;
        Alcotest.test_case "DAD completion allocation budget" `Quick
          test_dad_completion_allocation;
        Alcotest.test_case "duplicate AREQ allocation budget" `Quick
          test_dad_duplicate_areq_allocation;
      ] );
    ( "dns",
      [
        Alcotest.test_case "query resolves" `Quick test_dns_query_resolves;
        Alcotest.test_case "query unknown" `Quick test_dns_query_unknown_name;
        Alcotest.test_case "ip change accepted" `Quick test_dns_ip_change_accepted;
        Alcotest.test_case "ip change forged rejected" `Quick
          test_dns_ip_change_forged_proof_rejected;
        Alcotest.test_case "fcfs pending conflict" `Quick test_dns_fcfs_pending_conflict;
      ] );
  ]
