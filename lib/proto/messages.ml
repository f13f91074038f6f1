(* manethot: allow-file hot-alloc — messages are immutable values, so
   [with_remaining] builds the forwarded copy of a source-routed message
   on every send; that copy is the transmission itself.  Everything else
   this file puts on the send path returns constants. *)

module Address = Manet_ipv6.Address

type srr_entry = { ip : Address.t; sig_ : string; pk : string; rn : int64 }

type t =
  | Areq of {
      sip : Address.t;
      seq : int;
      dn : string option;
      ch : int64;
      rr : Address.t list;
    }
  | Arep of {
      sip : Address.t;
      rr : Address.t list;
      remaining : Address.t list;
      sig_ : string;
      pk : string;
      rn : int64;
    }
  | Drep of {
      sip : Address.t;
      dn : string;
      rr : Address.t list;
      remaining : Address.t list;
      sig_ : string;
    }
  | Rreq of {
      sip : Address.t;
      dip : Address.t;
      seq : int;
      srr : srr_entry list;
      sig_ : string;
      spk : string;
      srn : int64;
    }
  | Rrep of {
      sip : Address.t;
      dip : Address.t;
      rr : Address.t list;
      remaining : Address.t list;
      sig_ : string;
      dpk : string;
      drn : int64;
    }
  | Crep of {
      requester : Address.t;
      cacher : Address.t;
      dip : Address.t;
      requester_seq : int;
      cacher_seq : int;
      rr_to_cacher : Address.t list;
      rr_to_dest : Address.t list;
      remaining : Address.t list;
      sig_cacher : string;
      cacher_pk : string;
      cacher_rn : int64;
      sig_dest : string;
      dest_pk : string;
      dest_rn : int64;
    }
  | Rerr of {
      reporter : Address.t;
      broken_next : Address.t;
      dst : Address.t;
      remaining : Address.t list;
      sig_ : string;
      pk : string;
      rn : int64;
    }
  | Data of {
      src : Address.t;
      dst : Address.t;
      seq : int;
      route : Address.t list;
      remaining : Address.t list;
      payload_size : int;
      sent_at : float;
    }
  | Ack of {
      src : Address.t;
      dst : Address.t;
      data_seq : int;
      route : Address.t list;
      remaining : Address.t list;
      sent_at : float;
    }
  | Probe of {
      origin : Address.t;
      target : Address.t;
      seq : int;
      route : Address.t list;
      remaining : Address.t list;
    }
  | Probe_reply of {
      responder : Address.t;
      origin : Address.t;
      seq : int;
      remaining : Address.t list;
      sig_ : string;
      pk : string;
      rn : int64;
    }
  | Name_query of {
      requester : Address.t;
      name : string;
      ch : int64;
      route : Address.t list;  (** intermediates requester to DNS *)
      remaining : Address.t list;
    }
  | Name_reply of {
      requester : Address.t;
      name : string;
      result : Address.t option;
      ch : int64;
      remaining : Address.t list;
      sig_ : string;
    }
  | Ip_change_request of {
      old_ip : Address.t;
      new_ip : Address.t;
      route : Address.t list;  (** intermediates requester to DNS *)
      remaining : Address.t list;
    }
  | Ip_change_challenge of {
      old_ip : Address.t;
      new_ip : Address.t;
      ch : int64;
      remaining : Address.t list;
    }
  | Ip_change_proof of {
      old_ip : Address.t;
      new_ip : Address.t;
      old_rn : int64;
      new_rn : int64;
      pk : string;
      sig_ : string;
      route : Address.t list;
      remaining : Address.t list;
    }
  | Ip_change_ack of {
      old_ip : Address.t;
      new_ip : Address.t;
      accepted : bool;
      remaining : Address.t list;
    }

let tag = function
  | Areq _ -> "areq"
  | Arep _ -> "arep"
  | Drep _ -> "drep"
  | Rreq _ -> "rreq"
  | Rrep _ -> "rrep"
  | Crep _ -> "crep"
  | Rerr _ -> "rerr"
  | Data _ -> "data"
  | Ack _ -> "ack"
  | Probe _ -> "probe"
  | Probe_reply _ -> "probe_reply"
  | Name_query _ -> "name_query"
  | Name_reply _ -> "name_reply"
  | Ip_change_request _ -> "ip_change_request"
  | Ip_change_challenge _ -> "ip_change_challenge"
  | Ip_change_proof _ -> "ip_change_proof"
  | Ip_change_ack _ -> "ip_change_ack"

(* Counter keys, one constant per constructor, so a send bumps its
   counters without building a string. *)
let tx_key = function
  | Areq _ -> "tx.areq"
  | Arep _ -> "tx.arep"
  | Drep _ -> "tx.drep"
  | Rreq _ -> "tx.rreq"
  | Rrep _ -> "tx.rrep"
  | Crep _ -> "tx.crep"
  | Rerr _ -> "tx.rerr"
  | Data _ -> "tx.data"
  | Ack _ -> "tx.ack"
  | Probe _ -> "tx.probe"
  | Probe_reply _ -> "tx.probe_reply"
  | Name_query _ -> "tx.name_query"
  | Name_reply _ -> "tx.name_reply"
  | Ip_change_request _ -> "tx.ip_change_request"
  | Ip_change_challenge _ -> "tx.ip_change_challenge"
  | Ip_change_proof _ -> "tx.ip_change_proof"
  | Ip_change_ack _ -> "tx.ip_change_ack"

let txbytes_key = function
  | Areq _ -> "txbytes.areq"
  | Arep _ -> "txbytes.arep"
  | Drep _ -> "txbytes.drep"
  | Rreq _ -> "txbytes.rreq"
  | Rrep _ -> "txbytes.rrep"
  | Crep _ -> "txbytes.crep"
  | Rerr _ -> "txbytes.rerr"
  | Data _ -> "txbytes.data"
  | Ack _ -> "txbytes.ack"
  | Probe _ -> "txbytes.probe"
  | Probe_reply _ -> "txbytes.probe_reply"
  | Name_query _ -> "txbytes.name_query"
  | Name_reply _ -> "txbytes.name_reply"
  | Ip_change_request _ -> "txbytes.ip_change_request"
  | Ip_change_challenge _ -> "txbytes.ip_change_challenge"
  | Ip_change_proof _ -> "txbytes.ip_change_proof"
  | Ip_change_ack _ -> "txbytes.ip_change_ack"

let remaining = function
  | Areq _ -> None
  | Arep m -> Some m.remaining
  | Drep m -> Some m.remaining
  | Rreq _ -> None
  | Rrep m -> Some m.remaining
  | Crep m -> Some m.remaining
  | Rerr m -> Some m.remaining
  | Data m -> Some m.remaining
  | Ack m -> Some m.remaining
  | Probe m -> Some m.remaining
  | Probe_reply m -> Some m.remaining
  | Name_query m -> Some m.remaining
  | Name_reply m -> Some m.remaining
  | Ip_change_request m -> Some m.remaining
  | Ip_change_challenge m -> Some m.remaining
  | Ip_change_proof m -> Some m.remaining
  | Ip_change_ack m -> Some m.remaining

let with_remaining msg hops =
  match msg with
  | Areq _ -> msg
  | Arep m -> Arep { m with remaining = hops }
  | Drep m -> Drep { m with remaining = hops }
  | Rreq _ -> msg
  | Rrep m -> Rrep { m with remaining = hops }
  | Crep m -> Crep { m with remaining = hops }
  | Rerr m -> Rerr { m with remaining = hops }
  | Data m -> Data { m with remaining = hops }
  | Ack m -> Ack { m with remaining = hops }
  | Probe m -> Probe { m with remaining = hops }
  | Probe_reply m -> Probe_reply { m with remaining = hops }
  | Name_query m -> Name_query { m with remaining = hops }
  | Name_reply m -> Name_reply { m with remaining = hops }
  | Ip_change_request m -> Ip_change_request { m with remaining = hops }
  | Ip_change_challenge m -> Ip_change_challenge { m with remaining = hops }
  | Ip_change_proof m -> Ip_change_proof { m with remaining = hops }
  | Ip_change_ack m -> Ip_change_ack { m with remaining = hops }

let pp_route fmt route =
  Format.fprintf fmt "[%s]" (String.concat ";" (List.map Address.to_string route))

let pp fmt msg =
  match msg with
  | Areq m ->
      Format.fprintf fmt "AREQ(sip=%a, seq=%d, dn=%s, rr=%a)" Address.pp m.sip
        m.seq
        (Option.value ~default:"-" m.dn)
        pp_route m.rr
  | Arep m -> Format.fprintf fmt "AREP(sip=%a, rr=%a)" Address.pp m.sip pp_route m.rr
  | Drep m -> Format.fprintf fmt "DREP(sip=%a, dn=%s)" Address.pp m.sip m.dn
  | Rreq m ->
      Format.fprintf fmt "RREQ(sip=%a, dip=%a, seq=%d, hops=%d)" Address.pp m.sip
        Address.pp m.dip m.seq (List.length m.srr)
  | Rrep m ->
      Format.fprintf fmt "RREP(sip=%a, dip=%a, rr=%a)" Address.pp m.sip Address.pp
        m.dip pp_route m.rr
  | Crep m ->
      Format.fprintf fmt "CREP(req=%a, cacher=%a, dip=%a)" Address.pp m.requester
        Address.pp m.cacher Address.pp m.dip
  | Rerr m ->
      Format.fprintf fmt "RERR(reporter=%a, broken=%a, dst=%a)" Address.pp
        m.reporter Address.pp m.broken_next Address.pp m.dst
  | Data m ->
      Format.fprintf fmt "DATA(src=%a, dst=%a, seq=%d)" Address.pp m.src Address.pp
        m.dst m.seq
  | Ack m ->
      Format.fprintf fmt "ACK(src=%a, dst=%a, seq=%d)" Address.pp m.src Address.pp
        m.dst m.data_seq
  | Probe m ->
      Format.fprintf fmt "PROBE(origin=%a, target=%a, seq=%d)" Address.pp m.origin
        Address.pp m.target m.seq
  | Probe_reply m ->
      Format.fprintf fmt "PROBE_REPLY(responder=%a, seq=%d)" Address.pp m.responder
        m.seq
  | Name_query m -> Format.fprintf fmt "NAME_QUERY(name=%s)" m.name
  | Name_reply m ->
      Format.fprintf fmt "NAME_REPLY(name=%s, result=%s)" m.name
        (match m.result with Some a -> Address.to_string a | None -> "-")
  | Ip_change_request m ->
      Format.fprintf fmt "IP_CHANGE_REQUEST(old=%a, new=%a)" Address.pp m.old_ip
        Address.pp m.new_ip
  | Ip_change_challenge m ->
      Format.fprintf fmt "IP_CHANGE_CHALLENGE(old=%a)" Address.pp m.old_ip
  | Ip_change_proof m ->
      Format.fprintf fmt "IP_CHANGE_PROOF(old=%a, new=%a)" Address.pp m.old_ip
        Address.pp m.new_ip
  | Ip_change_ack m ->
      Format.fprintf fmt "IP_CHANGE_ACK(accepted=%b)" m.accepted
