module Address = Manet_ipv6.Address
module Prng = Manet_crypto.Prng
module Suite = Manet_crypto.Suite
module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Topology = Manet_sim.Topology
module Net = Manet_sim.Net
module Directory = Manet_proto.Directory
module Identity = Manet_proto.Identity
module Aodv = Manet_aodv.Aodv

type params = {
  n : int;
  seed : int;
  range : float;
  loss : float;
  secure : bool;
  topology : [ `Chain of float | `Grid of int * float | `Random of float * float ];
  adversaries : (int * Aodv_adversary.behavior) list;
  config : Aodv.config;
}

let default_params =
  {
    n = 20;
    seed = 1;
    range = 250.0;
    loss = 0.0;
    secure = false;
    topology = `Random (1000.0, 1000.0);
    adversaries = [];
    config = Aodv.default_config;
  }

type t = {
  params : params;
  engine : Engine.t;
  net : Aodv.msg Net.t;
  agents : Aodv.t array;
  identities : Identity.t array;
}

let create params =
  let engine = Engine.create ~seed:params.seed () in
  let root = Engine.rng engine in
  let topo =
    match params.topology with
    | `Chain spacing -> Topology.chain ~n:params.n ~spacing
    | `Grid (cols, spacing) ->
        let rows = (params.n + cols - 1) / cols in
        Topology.grid ~rows ~cols ~spacing
    | `Random (w, h) ->
        Topology.random_connected (Prng.split root) ~n:params.n ~width:w ~height:h
          ~range:params.range
  in
  let net_config =
    { Net.default_config with range = params.range; loss = params.loss }
  in
  let net = Net.create ~config:net_config engine topo in
  let directory = Directory.create () in
  let suite = Suite.mock (Prng.split root) in
  let id_rng = Prng.split root in
  let identities =
    Array.init params.n (fun i -> Identity.create suite id_rng ~node_id:i)
  in
  Array.iteri
    (fun i id -> Directory.register directory id.Identity.address i)
    identities;
  let config = { params.config with secure = params.secure } in
  let agents =
    Array.init params.n (fun i ->
        Aodv.create ~config ~net ~directory ~identity:identities.(i)
          ~rng:(Prng.split root) ())
  in
  let behaviors = Hashtbl.create 8 in
  List.iter (fun (i, b) -> Hashtbl.replace behaviors i b) params.adversaries;
  Array.iteri
    (fun i agent ->
      match Hashtbl.find_opt behaviors i with
      | Some behavior ->
          let adv =
            Aodv_adversary.create ~behavior ~delegate:agent ~rng:(Prng.split root) ()
          in
          Net.set_handler net i (fun ~src msg -> Aodv_adversary.handle adv ~src msg)
      | None ->
          Net.set_handler net i (fun ~src msg -> Aodv.handle agent ~src msg))
    agents;
  { params; engine; net; agents; identities }

let stats t = Engine.stats t.engine
let agent t i = t.agents.(i)
let address_of t i = t.identities.(i).Identity.address

let send t ~src ~dst ?(size = 512) () =
  Aodv.send t.agents.(src) ~dst:(address_of t dst) ~size ()

let start_cbr t ~flows ~interval ?(size = 512) ~duration () =
  let t0 = Engine.now t.engine in
  List.iter
    (fun (src, dst) ->
      let rec tick at =
        if at <= t0 +. duration then
          Engine.schedule_at t.engine ~label:"traffic" ~time:at (fun () ->
              send t ~src ~dst ~size ();
              tick (at +. interval))
      in
      tick t0)
    flows

let run ?until t =
  match until with
  | Some limit -> Engine.run ~until:limit t.engine
  | None -> Engine.run t.engine

let delivery_ratio t =
  let s = stats t in
  let offered = Stats.get s "data.offered" in
  if offered = 0 then 1.0
  else float_of_int (Stats.get s "data.delivered") /. float_of_int offered
