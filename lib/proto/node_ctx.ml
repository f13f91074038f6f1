module Address = Manet_ipv6.Address
module Engine = Manet_sim.Engine
module Net = Manet_sim.Net
module Stats = Manet_sim.Stats
module Prng = Manet_crypto.Prng
module Suite = Manet_crypto.Suite
module Obs = Manet_obs.Obs
module Audit = Manet_obs.Audit
module Metrics = Manet_obs.Metrics

type t = {
  engine : Engine.t;
  net : Messages.t Net.t;
  directory : Directory.t;
  identity : Identity.t;
  rng : Prng.t;
  obs : Obs.t;
}

let create ?obs net directory identity rng =
  let engine = Net.engine net in
  let obs =
    match obs with Some o -> o | None -> Obs.create engine
  in
  { engine; net; directory; identity; rng; obs }

let address t = t.identity.Identity.address
let node_id t = t.identity.Identity.node_id
let suite t = t.identity.Identity.suite
let now t = Engine.now t.engine

let size_of _t msg = Wire.size_of msg

let stat_by t k by =
  Stats.add (Engine.stats t.engine) k by;
  Metrics.record (Obs.metrics t.obs) ~node:(node_id t) ~by k

let stat t k = stat_by t k 1

let observe t k v =
  Stats.observe (Engine.stats t.engine) k v;
  Metrics.observe (Obs.metrics t.obs) ~node:(node_id t) k v

let log t ~event ~detail = Obs.log t.obs ~node:(node_id t) ~event ~detail

let audit t ~kind ?subject ?subject_node ?(stats = []) ~cause () =
  List.iter (fun k -> stat t k) stats;
  let subject_node =
    match subject_node with
    | Some _ as s -> s
    | None -> Option.bind subject (fun a -> Directory.lookup t.directory a)
  in
  let subject_addr = Option.map (Obs.address_text t.obs) subject in
  Audit.emit (Obs.audit t.obs) ~kind ~node:(node_id t) ?subject_node
    ?subject_addr ~cause ()

let count_tx t msg size =
  stat t (Messages.tx_key msg);
  stat_by t (Messages.txbytes_key msg) size

(* Transmission details, rendered into the scenario's detail buffer with
   memoised address text. *)
let broadcast_detail t msg =
  let buf = Obs.detail_buffer t.obs in
  Buffer.add_string buf "broadcast ";
  Messages.add_to_buffer (Obs.address_writer t.obs) buf msg;
  Buffer.contents buf

let unicast_detail t next msg =
  let buf = Obs.detail_buffer t.obs in
  let addr = Obs.address_writer t.obs in
  Buffer.add_string buf "to ";
  addr buf next;
  Buffer.add_string buf ": ";
  Messages.add_to_buffer addr buf msg;
  Buffer.contents buf

let broadcast t msg =
  let size = Wire.size_of msg in
  count_tx t msg size;
  if Obs.wants_events t.obs then
    (* manetcheck: cold — the detail is rendered only while the event
       log is on; runs with it off skip it. *)
    log t ~event:(Stats.key_name (Messages.tx_key msg))
      ~detail:(broadcast_detail t msg);
  Net.broadcast t.net ~src:(node_id t) ~size msg

let rec unicast_all t ~size ~on_fail msg = function
  | [] -> ()
  | dst :: rest ->
      Net.unicast t.net ~src:(node_id t) ~dst ~size ~on_fail msg;
      unicast_all t ~size ~on_fail msg rest

let send_along t ~path ?(on_fail = fun () -> ()) msg =
  match path with
  | [] -> invalid_arg "Node_ctx.send_along: empty path"
  | next :: _ -> (
      let msg = Messages.with_remaining msg path in
      let size = Wire.size_of msg in
      count_tx t msg size;
      if Obs.wants_events t.obs then
        (* manetcheck: cold — the detail is rendered only while the event
           log is on; runs with it off skip it. *)
        log t ~event:(Stats.key_name (Messages.tx_key msg))
          ~detail:(unicast_detail t next msg);
      match Directory.lookup_all t.directory next with
      | [] ->
          (* The next-hop address resolves to nobody: the neighbour is
             gone (address changed or node left).  Behaves like a MAC
             failure after the retries' worth of time. *)
          Engine.schedule t.engine ~label:"net" ~delay:0.01 on_fail
      | claimants -> unicast_all t ~size ~on_fail msg claimants)

let rec forward_transit t ~src msg =
  deliver_up t ~src msg
    ~consume:(fun _ -> ())
    ~forward:(fun ~next m -> send_along t ~path:next m)
    ~not_mine:(fun _ -> ())

and deliver_up t ~src:_ msg ~consume ~forward ~not_mine =
  match Messages.remaining msg with
  | None -> not_mine msg
  | Some [] -> consume msg
  | Some (head :: tail) ->
      if Address.equal head (address t) then begin
        match tail with
        | [] -> consume (Messages.with_remaining msg [])
        | _ -> forward ~next:tail (Messages.with_remaining msg tail)
      end
      else not_mine msg
