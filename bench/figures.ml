(* F1 / F2 / F3: regenerate the paper's figures as executable artefacts.

   Figure 1 is the CGA site-local address layout; we show the bit fields
   of generated addresses and measure interface-identifier uniqueness at
   scale.  Figures 2 and 3 are protocol message-sequence diagrams; we run
   the depicted scenarios and print the recorded traces. *)

module Prng = Manetsec.Crypto.Prng
module Suite = Manetsec.Crypto.Suite
module Address = Manetsec.Ipv6.Address
module Cga = Manetsec.Ipv6.Cga
module Engine = Manetsec.Sim.Engine
module Trace = Manetsec.Sim.Trace
module Stats = Manetsec.Sim.Stats
module Net = Manetsec.Sim.Net
module Scenario = Manetsec.Scenario

(* --- Figure 1 ---------------------------------------------------------- *)

let fig1 () =
  Util.heading "Figure 1 -- CGA site-local address layout";
  let g = Prng.create ~seed:101 in
  let suite = Suite.mock g in
  let kp = suite.Suite.generate () in
  let rn, addr = Cga.fresh g ~pk_bytes:kp.Suite.pk_bytes in
  let groups = Address.to_groups addr in
  Printf.printf "  example PK hash input : H(PK, rn) with rn = %Lx\n" rn;
  Printf.printf "  address               : %s\n" (Address.to_string addr);
  Printf.printf "  site-local prefix     : %04x (10 bits = 1111111011)\n" groups.(0);
  Printf.printf "  38-bit zero field     : %04x %04x (+6 bits of group 1)\n" groups.(1) groups.(2);
  Printf.printf "  16-bit subnet ID      : %04x\n" groups.(3);
  Printf.printf "  64-bit interface id   : %04x:%04x:%04x:%04x = H(PK, rn)[0..63]\n"
    groups.(4) groups.(5) groups.(6) groups.(7);
  Printf.printf "  Cga.verify            : %b\n"
    (Cga.verify addr ~pk_bytes:kp.Suite.pk_bytes ~rn);
  (* Uniqueness at scale: the paper relies on 64-bit hash IDs colliding
     only with negligible probability. *)
  let rows =
    List.map
      (fun n ->
        let g = Prng.create ~seed:n in
        let seen = Hashtbl.create n in
        let collisions = ref 0 in
        for _ = 1 to n do
          let pk = Prng.bytes g 32 in
          let _, a = Cga.fresh g ~pk_bytes:pk in
          let key = Int64.to_string (Address.interface_id a) in
          if Hashtbl.mem seen key then incr collisions;
          Hashtbl.replace seen key ()
        done;
        [ Util.i n; Util.i !collisions ])
      [ 1_000; 10_000; 100_000 ]
  in
  Util.print_table ~header:[ "addresses generated"; "collisions" ] rows

(* --- Figure 2 ---------------------------------------------------------- *)

(* The Figure 2 scenario: S (a newcomer) picks an address already owned
   by R and a domain name already registered; R answers with an AREP and
   warns the DNS; the DNS answers the name conflict with a DREP; S
   retries with a fresh rn and a fresh name and succeeds. *)
let fig2 () =
  Util.heading "Figure 2 -- the secure DAD procedure (message trace)";
  let params =
    {
      Scenario.default_params with
      n = 6;
      seed = 42;
      range = 150.0;
      topology = Scenario.Chain { spacing = 100.0 };
    }
  in
  let s = Scenario.create params in
  let engine = Scenario.engine s in
  (* R = node 2 bootstraps first and registers "printer". *)
  Manetsec.Dad.start (Scenario.node s 2).Scenario.dad ~dn:"printer"
    ~on_complete:(fun _ -> ())
    ();
  Scenario.run s ~until:10.0;
  (* S = node 5 is forced into both collisions. *)
  Scenario.duplicate_address s ~joiner:5 ~owner:2;
  Trace.enable (Engine.trace engine);
  Manetsec.Dad.start (Scenario.node s 5).Scenario.dad ~dn:"printer"
    ~on_complete:(fun _ -> ())
    ();
  Scenario.run s ~until:30.0;
  Trace.disable (Engine.trace engine);
  print_string (Trace.render (Engine.trace engine));
  let st = Scenario.stats s in
  Printf.printf
    "  [checks] duplicate detected: %b, warning reached the DNS: %b, name conflict (DREP): %b\n"
    (Stats.get st "dad.duplicate_detected" >= 1)
    (Stats.get st "dns.warning_stashed" + Stats.get st "dns.registration_cancelled" >= 1)
    (Stats.get st "dad.name_conflict" >= 1)

(* --- Figure 3 ---------------------------------------------------------- *)

(* The Figure 3 scenario: S discovers a route to D with a signed RREQ
   flood and a signed RREP; then S', another host, requests the same
   destination and is answered from S's cache with a CREP carrying both
   signed halves. *)
let fig3 () =
  Util.heading "Figure 3 -- secure route discovery, reply and cached reply";
  let params =
    {
      Scenario.default_params with
      n = 6;
      seed = 42;
      range = 150.0;
      topology = Scenario.Chain { spacing = 100.0 };
    }
  in
  let s = Scenario.create params in
  let engine = Scenario.engine s in
  Trace.enable (Engine.trace engine);
  let log_event detail = Engine.log engine ~node:(-1) ~event:"note" ~detail in
  log_event "S = node 1 discovers D = node 5";
  let r1 = ref None in
  Scenario.discover s ~src:1 ~dst:5 (fun r -> r1 := Some r);
  Scenario.run s ~until:10.0;
  (match !r1 with
  | Some (Some route) ->
      log_event
        (Printf.sprintf "S got verified route via %d intermediates" (List.length route))
  | _ -> log_event "discovery FAILED");
  log_event "S' = node 0 requests the same destination";
  let r2 = ref None in
  Scenario.discover s ~src:0 ~dst:5 (fun r -> r2 := Some r);
  Scenario.run s ~until:20.0;
  (match !r2 with
  | Some (Some route) ->
      log_event
        (Printf.sprintf "S' got verified route via %d intermediates" (List.length route))
  | _ -> log_event "cached discovery FAILED");
  Trace.disable (Engine.trace engine);
  (* The interesting lines are the sends and the notes. *)
  let entries = Trace.entries (Engine.trace engine) in
  List.iter
    (fun e ->
      if
        e.Trace.event = "note"
        || String.length e.Trace.event >= 3 && String.sub e.Trace.event 0 3 = "tx."
      then Format.printf "%a@." Trace.pp_entry e)
    entries;
  let st = Scenario.stats s in
  Printf.printf "  [checks] RREP answered: %b, CREP answered: %b, nothing rejected: %b\n"
    (Stats.get st "route.replies" >= 1)
    (Stats.get st "route.cache_replies" >= 1)
    (Stats.get st "secure.rrep_rejected" = 0 && Stats.get st "secure.crep_rejected" = 0)

let run () =
  fig1 ();
  fig2 ();
  fig3 ()
