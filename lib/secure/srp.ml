module Address = Manet_ipv6.Address
module Hmac = Manet_crypto.Hmac
module Messages = Manet_proto.Messages
module Codec = Manet_proto.Codec
module Ctx = Manet_proto.Node_ctx
module Verdict = Manet_proto.Verdict
module Audit = Manet_obs.Audit
module Obs = Manet_obs.Obs
module Flood = Manet_obs.Flood
module Sr = Manet_dsr.Source_route
module Stats = Manet_sim.Stats

(* Counter keys, bound once (see [Stats.key]); the shared data-plane
   keys live in [Source_route]. *)
module Key = struct
  let srp_rrep_rejected = Stats.key "srp.rrep_rejected"
  let srp_rreq_rejected = Stats.key "srp.rreq_rejected"
end

let pair_key ~master a b =
  let x = Address.to_bytes a and y = Address.to_bytes b in
  let lo, hi = if String.compare x y <= 0 then (x, y) else (y, x) in
  Hmac.hmac_sha256 ~key:master (lo ^ hi)

let rreq_mac ~key ~sip ~dip ~seq =
  Hmac.hmac_sha256 ~key ("SRPQ|" ^ Codec.addr sip ^ Codec.addr dip ^ Codec.u32 seq)

let rrep_mac ~key ~sip ~seq ~rr =
  Hmac.hmac_sha256 ~key ("SRPP|" ^ Codec.addr sip ^ Codec.u32 seq ^ Codec.route rr)

(* The agent's own state is the network-wide master secret the pair
   keys derive from. *)
type t = (string, unit) Sr.t

let address = Sr.address
let key_with (t : t) other = pair_key ~master:t.Sr.ext (address t) other

(* The end-to-end MAC rides in the message's signature field; no key
   material travels (both ends already share the association). *)
let rreq t ~dst ~seq ~superseded:_ =
  let sip = address t in
  let mac = rreq_mac ~key:(key_with t dst) ~sip ~dip:dst ~seq in
  Messages.Rreq { sip; dip = dst; seq; srr = []; sig_ = mac; spk = ""; srn = 0L }

(* SRP has no association with intermediates: the error report is
   necessarily unauthenticated (designated unsigned site). *)
let rerr t ~broken_next ~dst ~remaining =
  Messages.Rerr
    { reporter = address t; broken_next; dst; remaining;
      (* manetcheck: allow placeholder-sig — the error report
         is necessarily unsigned: SRP has no association with
         intermediates (designated unsigned site, see above). *)
      sig_ = ""; pk = ""; rn = 0L }

(* SRP never salvages, and a failed first hop costs only the route that
   was used. *)
let create ~master ctx =
  Sr.create ctx ~ext:master
    ~hooks:
      {
        Sr.label = "srp";
        score = Sr.shortest_first;
        rreq;
        on_ack_timeout = Sr.no_ack_timeout;
        on_ack = Sr.no_ack;
        rerr;
        first_hop_purge = Sr.Purge_route;
        use_acks = true;
        salvage = false;
      }

let send = Sr.send
let discover = Sr.discover
let cached_routes = Sr.cached_routes

(* --- route requests --------------------------------------------------------- *)

(* End-to-end verification only: the pair MAC proves the request's
   origin; the collected hops are taken on faith — SRP's deliberate
   trade-off. *)
let accept_rreq t flood (r : Messages.rreq) =
  Flood.verified (Obs.flood t.Sr.ctx.Ctx.obs) flood ~node:(Ctx.node_id t.Sr.ctx);
  String.equal r.sig_ (rreq_mac ~key:(key_with t r.sip) ~sip:r.sip ~dip:r.dip ~seq:r.seq)
  || begin
       Ctx.audit t.Sr.ctx ~kind:Audit.Sig_verify_fail
         ~stats:[ Key.srp_rreq_rejected ]
         ~cause:"rreq end-to-end MAC" ();
       false
     end

(* The destination MACs the collected route under the pair key. *)
let endorse t (r : Messages.rreq) ~rr =
  (rrep_mac ~key:(key_with t r.sip) ~sip:r.sip ~seq:r.seq ~rr, "", 0L)

(* SRP relays never answer from their cache. *)
let no_crep _ _ ~rr:_ ~back:_ = None

(* The copy keeps the source's MAC; no key material travels. *)
let relay t (r : Messages.rreq) =
  ( { r with spk = ""; srn = 0L },
    { Messages.ip = address t;
      (* manetcheck: allow placeholder-sig — relay with a bare address
         record: intermediates neither sign nor verify anything under
         SRP — this is a designated unsigned site, not a forgotten
         signature. *)
      sig_ = ""; pk = ""; rn = 0L } )

(* An RREP must carry the destination's pair MAC over our latest
   discovery's seq and the route; one no discovery of ours asked for,
   or a cache reply (SRP relays never send one), is unsolicited. *)
let check_reply t reply =
  let reject = Verdict.reject Key.srp_rrep_rejected in
  match reply with
  | Sr.Rrep { dip; rr; sig_; _ } -> (
      match Address.Tbl.find_opt t.Sr.pending dip with
      | Some d ->
          if String.equal sig_ (rrep_mac ~key:(key_with t dip) ~sip:(address t) ~seq:d.Sr.d_seq ~rr)
          then Verdict.Accepted { checks = [ Verdict.Sig ]; value = () }
          else reject Audit.Sig_verify_fail "rrep end-to-end MAC"
      | None -> reject Audit.Replay_rejected "unsolicited rrep")
  | Sr.Crep _ -> reject Audit.Replay_rejected "unsolicited crep"

let handle t ~src msg =
  match msg with
  | Messages.Rreq r -> Sr.handle_rreq t ~src r ~accept:accept_rreq ~endorse ~crep:no_crep ~relay
  | Messages.Rrep _ -> Sr.deliver t ~src msg ~consume:(Sr.consume_reply t ~src ~check:check_reply)
  | Messages.Data _ -> Sr.deliver_data t ~src msg ~overheard:(fun _ -> ())
  | Messages.Ack _ -> Sr.deliver_ack t ~src msg
  | Messages.Rerr _ ->
      Sr.deliver t ~src msg
        ~consume:(Sr.consume_rerr t ~src ~check:Sr.unchecked ~credit:(fun _ _ ~removed:_ -> ()))
  (* SRP is routing-plane only: DAD/DNS traffic is transit to relay,
     enumerated so a new Messages constructor forces a decision here. *)
  | Messages.Areq _ | Messages.Arep _ | Messages.Drep _ | Messages.Crep _
  | Messages.Probe _ | Messages.Probe_reply _ | Messages.Name_query _
  | Messages.Name_reply _ | Messages.Ip_change_request _
  | Messages.Ip_change_challenge _ | Messages.Ip_change_proof _
  | Messages.Ip_change_ack _ ->
      Ctx.forward_transit t.Sr.ctx ~src msg
  | Messages.Aodv _ -> ()
