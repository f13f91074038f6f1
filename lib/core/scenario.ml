module Address = Manet_ipv6.Address
module Prng = Manet_crypto.Prng
module Suite = Manet_crypto.Suite
module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Topology = Manet_sim.Topology
module Mobility = Manet_sim.Mobility
module Net = Manet_sim.Net
module Messages = Manet_proto.Messages
module Ctx = Manet_proto.Node_ctx
module Directory = Manet_proto.Directory
module Identity = Manet_proto.Identity
module Dad = Manet_dad.Dad
module Dns = Manet_dns.Dns
module Dns_client = Manet_dns.Client
module Dsr = Manet_dsr.Dsr
module Secure = Manet_secure.Secure_routing
module Srp = Manet_secure.Srp
module Aodv = Manet_aodv.Aodv
module Adversary = Manet_attacks.Adversary
module Faults = Manet_faults.Faults
module Obs = Manet_obs.Obs
module Perf = Manet_obs.Perf
module Timeline = Manet_obs.Timeline
module Flood = Manet_obs.Flood
module Detector = Manet_obs.Detector

type topology_spec =
  | Chain of { spacing : float }
  | Grid of { cols : int; spacing : float }
  | Random of { width : float; height : float }
  | Explicit of { width : float; height : float; positions : (float * float) list }

type suite_spec = Mock_suite | Rsa_suite of int
type protocol = Plain_dsr | Secure | Srp_protocol | Aodv | Saodv

type params = {
  n : int;
  seed : int;
  range : float;
  loss : float;
  promiscuous : bool;
  topology : topology_spec;
  mobility : Mobility.model;
  protocol : protocol;
  suite : suite_spec;
  with_dns : bool;
  adversaries : (int * Adversary.behavior) list;
  dsr_config : Dsr.config;
  secure_config : Secure.config;
  dad_config : Dad.config;
}

let default_params =
  {
    n = 20;
    seed = 1;
    range = 250.0;
    loss = 0.0;
    promiscuous = false;
    topology = Random { width = 1000.0; height = 1000.0 };
    mobility = Mobility.Static;
    protocol = Secure;
    suite = Mock_suite;
    with_dns = true;
    adversaries = [];
    dsr_config = Dsr.default_config;
    secure_config = Secure.default_config;
    dad_config = Dad.default_config;
  }

type routing_agent =
  | Dsr_agent of Dsr.t
  | Secure_agent of Secure.t
  | Srp_agent of Srp.t
  | Aodv_agent of Aodv.t

type node = {
  index : int;
  identity : Identity.t;
  ctx : Ctx.t;
  dad : Dad.t;
  dns_client : Dns_client.t;
  routing : routing_agent;
  adversary : Adversary.t option;
}

type t = {
  params : params;
  engine : Engine.t;
  topo : Topology.t;
  net : Messages.t Net.t;
  directory : Directory.t;
  suite : Suite.t;
  nodes : node array;
  dns : Dns.t option;
  mobility : Mobility.t;
  obs : Obs.t;
  detector : Detector.t;
  mutable started : bool;
}

let build_topology params g =
  match params.topology with
  | Chain { spacing } -> Topology.chain ~n:params.n ~spacing
  | Grid { cols; spacing } ->
      let rows = (params.n + cols - 1) / cols in
      let t = Topology.grid ~rows ~cols ~spacing in
      (* grid may overshoot n; rebuild exactly n by truncation *)
      let exact = Topology.create ~n:params.n ~width:(Topology.width t) ~height:(Topology.height t) in
      for i = 0 to params.n - 1 do
        Topology.set_position exact i (Topology.position t i)
      done;
      exact
  | Random { width; height } ->
      Topology.random_connected g ~n:params.n ~width ~height ~range:params.range
  | Explicit { width; height; positions } ->
      if List.length positions <> params.n then
        invalid_arg "Scenario.create: explicit topology must place every node";
      let t = Topology.create ~n:params.n ~width ~height in
      List.iteri (fun i p -> Topology.set_position t i p) positions;
      t

let create params =
  if params.n < 2 then invalid_arg "Scenario.create: need at least 2 nodes";
  List.iter
    (fun (i, _) ->
      if i <= 0 && params.with_dns then
        invalid_arg "Scenario.create: node 0 hosts the DNS and must stay honest";
      if i < 0 || i >= params.n then invalid_arg "Scenario.create: adversary index")
    params.adversaries;
  (match params.protocol with
  | (Aodv | Saodv) when params.promiscuous ->
      invalid_arg "Scenario.create: AODV names no next hop, so it needs a non-promiscuous radio"
  | Aodv | Saodv | Plain_dsr | Secure | Srp_protocol -> ());
  let engine = Engine.create ~seed:params.seed () in
  let root = Engine.rng engine in
  let topo_rng = Prng.split root in
  let suite_rng = Prng.split root in
  let id_rng = Prng.split root in
  let topo = build_topology params topo_rng in
  let net_config =
    {
      Net.default_config with
      range = params.range;
      loss = params.loss;
      promiscuous = params.promiscuous;
    }
  in
  let net = Net.create ~config:net_config engine topo in
  let directory = Directory.create () in
  let suite =
    match params.suite with
    | Mock_suite -> Suite.mock suite_rng
    | Rsa_suite bits -> Suite.rsa ~bits suite_rng
  in
  let identities =
    Array.init params.n (fun i ->
        if i = 0 && params.with_dns then
          Identity.create ~address:Address.dns_server_1 ~name:"dns" suite id_rng
            ~node_id:0
        else Identity.create ~name:(Printf.sprintf "node%d" i) suite id_rng ~node_id:i)
  in
  Array.iteri
    (fun i id -> Directory.register directory id.Identity.address i)
    identities;
  let dns_pk = Identity.pk_bytes identities.(0) in
  (* The modelled network-wide master secret behind SRP's pairwise
     security associations. *)
  let srp_master = Prng.bytes (Prng.split root) 32 in
  (* One shared telemetry handle for the whole scenario: spans opened on
     one node (e.g. an AREP answer) parent correctly to spans opened on
     another (the originating flood). *)
  let obs = Obs.create engine in
  (* Crypto ops feed the perf registry from day one: the subscription
     only bumps side counters, so it perturbs no event order, PRNG draw
     or export byte. *)
  Perf.subscribe (Obs.perf obs) suite;
  (* The timeline rides the engine's per-event observer: counter-pure
     bucket closes over the counters above, so it is equally
     non-perturbing and its export equally byte-deterministic. *)
  Timeline.attach (Obs.timeline obs) ~net ~suite ~perf:(Obs.perf obs)
    ~audit:(Obs.audit obs);
  Timeline.install (Obs.timeline obs);
  (* The misbehaviour detector rides the audit stream online: every
     event any node emits feeds it at emission time, so verdicts are
     available the moment the run stops (and are deterministic, being a
     pure fold over the deterministic stream). *)
  let detector = Detector.create () in
  Detector.attach detector (Obs.audit obs);
  let ctxs =
    Array.map
      (fun id -> Ctx.create ~obs net directory id (Prng.split root))
      identities
  in
  let dads =
    Array.map (fun ctx -> Dad.create ~config:params.dad_config ~dns_pk ctx) ctxs
  in
  let dns =
    if params.with_dns then begin
      let server = Dns.create ctxs.(0) in
      Dns.attach server dads.(0);
      Some server
    end
    else None
  in
  let clients = Array.map (fun ctx -> Dns_client.create ~dns_pk ctx) ctxs in
  let behaviors = Hashtbl.create 8 in
  List.iter (fun (i, b) -> Hashtbl.replace behaviors i b) params.adversaries;
  let nodes =
    Array.init params.n (fun i ->
        let ctx = ctxs.(i) in
        let routing =
          match params.protocol with
          | Plain_dsr -> Dsr_agent (Dsr.create ~config:params.dsr_config ctx)
          | Secure ->
              let trusted =
                if params.with_dns then [ (Address.dns_server_1, dns_pk) ] else []
              in
              Secure_agent (Secure.create ~config:params.secure_config ~trusted ctx)
          | Srp_protocol -> Srp_agent (Srp.create ~master:srp_master ctx)
          | Aodv -> Aodv_agent (Aodv.create ~secure:false ctx)
          | Saodv -> Aodv_agent (Aodv.create ~secure:true ctx)
        in
        let honest_handle ~src msg =
          match routing with
          | Dsr_agent a -> Dsr.handle a ~src msg
          | Secure_agent a -> Secure.handle a ~src msg
          | Srp_agent a -> Srp.handle a ~src msg
          | Aodv_agent a -> Aodv.handle a ~src msg
        in
        let adversary =
          match Hashtbl.find_opt behaviors i with
          | None -> None
          | Some behavior ->
              Some
                (Adversary.create ~behavior
                   ~secure:(params.protocol = Secure)
                   ctx ~delegate:honest_handle)
        in
        {
          index = i;
          identity = identities.(i);
          ctx;
          dad = dads.(i);
          dns_client = clients.(i);
          routing;
          adversary;
        })
  in
  (* Per-node reception dispatch, built once per node here.  The installed
     handler is the one place that knows both the receiving node and the
     message kind, so it carries the perf registry's crypto attribution:
     every sign/verify/hash the handlers perform below is charged to
     (kind, node), and a delivery allocates nothing for it. *)
  let perf = Obs.perf obs in
  Array.iter
    (fun node ->
      let i = node.index in
      let dispatch_i ~src msg =
        match msg with
        | Messages.Areq _ | Messages.Arep _ | Messages.Drep _ ->
            Dad.handle node.dad ~src msg
        | Messages.Name_query _ | Messages.Ip_change_request _
        | Messages.Ip_change_proof _ -> (
            match (i, dns) with
            | 0, Some server -> Dns.handle server ~src msg
            | _ -> Ctx.forward_transit node.ctx ~src msg)
        | Messages.Name_reply _ | Messages.Ip_change_challenge _
        | Messages.Ip_change_ack _ ->
            Dns_client.handle node.dns_client ~src msg
        | _ -> (
            match node.adversary with
            | Some adv -> Adversary.handle adv ~src msg
            | None -> (
                match node.routing with
                | Dsr_agent a -> Dsr.handle a ~src msg
                | Secure_agent a -> Secure.handle a ~src msg
                | Srp_agent a -> Srp.handle a ~src msg
                | Aodv_agent a -> Aodv.handle a ~src msg))
      in
      Net.set_handler net i (fun ~src msg ->
          Perf.dispatch perf ~kind:(Messages.tag msg) ~node:i dispatch_i ~src
            msg))
    nodes;
  let mobility = Mobility.create engine topo (Prng.split root) params.mobility in
  {
    params;
    engine;
    topo;
    net;
    directory;
    suite;
    nodes;
    dns;
    mobility;
    obs;
    detector;
    started = false;
  }

let engine t = t.engine
let obs t = t.obs
let detector t = t.detector

let adversary_ids t =
  List.sort_uniq Int.compare (List.map fst t.params.adversaries)
let net t = t.net
let stats t = Engine.stats t.engine
let params t = t.params
let node t i = t.nodes.(i)
let nodes t = t.nodes
let dns_server t = t.dns
let suite t = t.suite
let address_of t i = t.nodes.(i).identity.Identity.address

let duplicate_address t ~joiner ~owner =
  let valid i = i >= 0 && i < t.params.n in
  if joiner = owner || not (valid joiner && valid owner) then
    invalid_arg "Scenario.duplicate_address: joiner and owner must be two nodes";
  let taken = address_of t owner in
  Directory.unregister t.directory (address_of t joiner) joiner;
  t.nodes.(joiner).identity.Identity.address <- taken;
  Directory.register t.directory taken joiner

let start t =
  if not t.started then begin
    t.started <- true;
    Mobility.start t.mobility;
    Array.iter
      (fun n -> Option.iter Adversary.start n.adversary)
      t.nodes
  end

let bootstrap ?(stagger = 0.5) t =
  start t;
  Array.iter
    (fun n ->
      if not (t.params.with_dns && n.index = 0) then begin
        let delay = stagger *. float_of_int n.index in
        Engine.schedule t.engine ~label:"dad" ~delay (fun () ->
            (* A fault-plan restart may have run DAD before this slot;
               that bootstrap stands. *)
            if not (Dad.is_pending n.dad || Dad.is_configured n.dad) then
              Dad.start n.dad
                ~dn:(Printf.sprintf "node%d" n.index)
                ~on_complete:(fun _ -> ())
                ())
      end)
    t.nodes;
  (* Let DAD, registration commits and warnings settle. *)
  let horizon =
    (stagger *. float_of_int t.params.n)
    +. (2.0 *. Dad.arep_wait)
    +. 10.0
  in
  Perf.phase (Obs.perf t.obs) ~engine:t.engine "bootstrap" (fun () ->
      Engine.run ~until:(Engine.now t.engine +. horizon) t.engine)

(* Node 0's DNS address is no CGA, so SAODV refuses its route messages. *)
let check_endpoints t ~src ~dst =
  match t.params.protocol with
  | Saodv when t.params.with_dns && (src = 0 || dst = 0) ->
      invalid_arg "Scenario.send: under SAODV with the DNS, node 0 can neither send nor receive"
  | Saodv | Aodv | Plain_dsr | Secure | Srp_protocol -> ()

let send t ~src ~dst ?(size = 512) () =
  check_endpoints t ~src ~dst;
  let dst_addr = address_of t dst in
  match t.nodes.(src).routing with
  | Dsr_agent a -> Dsr.send a ~dst:dst_addr ~size ()
  | Secure_agent a -> Secure.send a ~dst:dst_addr ~size ()
  | Srp_agent a -> Srp.send a ~dst:dst_addr ~size ()
  | Aodv_agent a -> Aodv.send a ~dst:dst_addr ~size ()

let start_cbr t ~flows ~interval ?(size = 512) ?start_at ~duration () =
  let t0 = match start_at with Some x -> x | None -> Engine.now t.engine in
  List.iter
    (fun (src, dst) ->
      check_endpoints t ~src ~dst;
      let rec tick at =
        if at <= t0 +. duration then
          Engine.schedule_at t.engine ~label:"traffic" ~time:at (fun () ->
              send t ~src ~dst ~size ();
              tick (at +. interval))
      in
      tick t0)
    flows

let discover t ~src ~dst on_route =
  let dst_addr = address_of t dst in
  match t.nodes.(src).routing with
  | Dsr_agent a -> Dsr.discover a ~dst:dst_addr ~on_route
  | Secure_agent a -> Secure.discover a ~dst:dst_addr ~on_route
  | Srp_agent a -> Srp.discover a ~dst:dst_addr ~on_route
  | Aodv_agent _ ->
      invalid_arg "Scenario.discover: AODV learns next hops, not routes"

let run ?until t =
  start t;
  Perf.phase (Obs.perf t.obs) ~engine:t.engine "run" (fun () ->
      match until with
      | Some limit -> Engine.run ~until:limit t.engine
      | None -> Engine.run t.engine)

(* --- fault injection ---------------------------------------------------- *)

let inject t plan =
  Faults.validate ~n:t.params.n plan;
  if t.params.with_dns then
    List.iter
      (fun { Faults.event; _ } ->
        match event with
        | Faults.Crash 0 | Faults.Restart 0 ->
            invalid_arg "Scenario.inject: node 0 hosts the DNS and cannot churn"
        | _ -> ())
      plan;
  let base = Faults.net_hooks t.net in
  let hooks =
    {
      base with
      Faults.crash =
        (fun i ->
          Net.set_down t.net i true;
          (* A crash loses volatile protocol state: any in-flight DAD
             attempt dies with the node. *)
          Dad.abort t.nodes.(i).dad);
      restart =
        (fun i ->
          Net.set_down t.net i false;
          (* Rejoining the MANET means re-running the secure bootstrap
             (§3.1).  The node keeps its identity, so its CGA address and
             domain name are unchanged and the DNS sees a benign
             re-registration rather than a conflict. *)
          let n = t.nodes.(i) in
          Dad.abort n.dad;
          let dn =
            match n.identity.Identity.domain_name with
            | Some dn -> dn
            | None -> Printf.sprintf "node%d" i
          in
          (* Parent the re-DAD bootstrap span to the outage that forced
             it, making fault -> recovery causality queryable. *)
          let parent = Obs.lookup t.obs (Faults.outage_key i) in
          Dad.start n.dad ?parent ~dn ~on_complete:(fun _ -> ()) ());
    }
  in
  Faults.schedule ~obs:t.obs t.engine hooks plan

(* --- metrics ------------------------------------------------------------ *)

let delivery_ratio t =
  let s = stats t in
  let offered = Stats.get s "data.offered" in
  if offered = 0 then 1.0
  else float_of_int (Stats.get s "data.delivered") /. float_of_int offered

let ack_ratio t =
  let s = stats t in
  let offered = Stats.get s "data.offered" in
  if offered = 0 then 1.0
  else float_of_int (Stats.get s "data.acked") /. float_of_int offered

let control_bytes t =
  let s = stats t in
  List.fold_left
    (fun acc (name, v) ->
      if
        String.length name > 8
        && String.sub name 0 8 = "txbytes."
        && name <> "txbytes.data" && name <> "txbytes.ack"
      then acc + v
      else acc)
    0 (Stats.counters s)

let control_packets t =
  let s = stats t in
  List.fold_left
    (fun acc (name, v) ->
      if
        String.length name > 3
        && String.sub name 0 3 = "tx."
        && name <> "tx.data" && name <> "tx.ack"
      then acc + v
      else acc)
    0 (Stats.counters s)

let crypto_ops t = (t.suite.Suite.sign_count, t.suite.Suite.verify_count)

let mean_latency t =
  Option.map (fun s -> s.Stats.mean) (Stats.summary (stats t) "data.latency")

(* --- perf / timeline export --------------------------------------------- *)

(* The flood-provenance summary joins the perf export's deterministic
   section: it is a pure fold over the seeded event sequence, so it
   obeys the same byte-stability contract. *)
let flood_extra t = [ ("floods", Flood.summary_json (Obs.flood t.obs)) ]

let perf_json ?meta t =
  Perf.to_json ?meta ~extra_det:(flood_extra t) (Obs.perf t.obs)
    ~engine:t.engine ~net:t.net ~suite:t.suite

let perf_det_jsonl ?meta t =
  Perf.det_jsonl ?meta ~extra_det:(flood_extra t) (Obs.perf t.obs)
    ~engine:t.engine ~net:t.net ~suite:t.suite

let timeline_jsonl ?meta t =
  Timeline.to_jsonl ?meta (Obs.timeline t.obs) ~flood:(Obs.flood t.obs)

