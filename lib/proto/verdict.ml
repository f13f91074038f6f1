module Address = Manet_ipv6.Address
module Cga = Manet_ipv6.Cga
module Suite = Manet_crypto.Suite
module Obs = Manet_obs.Obs

type check = Cga | Sig | Unchecked
type party = Nobody | Sender | Node of Address.t

type rejection = {
  kind : Manet_obs.Audit.kind;
  cause : string;
  party : party;
  counter : Manet_sim.Stats.key;
}

type 'a t = Accepted of { checks : check list; value : 'a } | Rejected of rejection

let reject counter ?(party = Nobody) kind cause = Rejected { kind; cause; party; counter }

type failure = Bad_binding | Bad_sig

let host ?trusted ctx ~ip ~pk ~rn ~payload ~signature =
  let suite = Node_ctx.suite ctx in
  let binding =
    match match trusted with Some tbl -> Address.Tbl.find_opt tbl ip | None -> None with
    | Some known_pk -> if String.equal known_pk pk then Some Sig else None
    | None ->
        Suite.count_hash suite ~bytes:(String.length pk + 8);
        if Cga.verify ip ~pk_bytes:pk ~rn then Some Cga else None
  in
  match binding with
  | None -> Error Bad_binding
  | Some c -> if suite.Suite.verify ~pk_bytes:pk ~msg:payload ~signature then Ok c else Error Bad_sig

let audit ctx ~src r =
  let subject, subject_node =
    match r.party with Nobody -> (None, None) | Sender -> (None, Some src) | Node a -> (Some a, None)
  in
  Node_ctx.audit ctx ~kind:r.kind ?subject ?subject_node ~stats:[ r.counter ] ~cause:r.cause ()

let finish_span ctx key k v =
  let o = ctx.Node_ctx.obs in
  let outcome =
    match v with Accepted _ -> Obs.Ok | Rejected _ -> Obs.Rejected "signature check failed"
  in
  if Obs.wants_events o then Option.iter (fun sid -> Obs.finish o sid outcome) (Obs.lookup o (key k))
