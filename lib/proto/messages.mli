(** Protocol messages.

    The control messages are exactly Table 1 of the paper (AREQ, AREP,
    DREP, RREQ, RREP, CREP, RERR), with their parameters as typed fields.
    The remaining variants are the data plane and DNS service traffic the
    simulation needs: source-routed data and end-to-end acknowledgements,
    the §3.4 black-hole probes, and the §3.2 secure name lookup and
    IP-change exchanges.

    Source-routed messages carry a [remaining] hop list: the addresses
    still to visit {e after} the current receiver.  A node holding a
    message with [remaining = []] is its final destination; otherwise it
    forwards to the head with the tail.  Messages are immutable —
    forwarding builds a new value. *)

module Address = Manet_ipv6.Address

type srr_entry = {
  ip : Address.t;  (** the intermediate node's claimed address *)
  sig_ : string;  (** [\[IIP, seq\]_ISK] *)
  pk : string;  (** the node's public key bytes *)
  rn : int64;  (** the CGA modifier for [ip] *)
}
(** One hop of the secure route record of §3.3. *)

(** AODV's messages ({!Manet_aodv.Aodv}): hop-by-hop routing, so none
    carries a route.  Under plain AODV the SAODV fields (signature, key,
    modifier and hash chain) are empty. *)
type aodv =
  | Aodv_rreq of {
      origin : Address.t;  (** the requester *)
      origin_seq : int;
      bcast_id : int;  (** with [origin], the flood's dedup key *)
      dst : Address.t;
      dst_seq_known : int;  (** 0 = unknown *)
      hop_count : int;
      sig_ : string;  (** SAODV: the origin's signature over the immutable fields *)
      spk : string;
      srn : int64;
      hash : string;  (** SAODV hash-chain element *)
      top_hash : string;
      max_hops : int;
    }
  | Aodv_rrep of {
      requester : Address.t;  (** the node the reply travels to *)
      dst : Address.t;  (** the destination being reported *)
      dst_seq : int;
      hop_count : int;
      sig_ : string;  (** SAODV: [dst]'s signature over the immutable fields *)
      dpk : string;
      drn : int64;
      hash : string;
      top_hash : string;
      max_hops : int;
    }
  | Aodv_rerr of { unreachable : (Address.t * int) list  (** (dst, seq) pairs *) }
  | Aodv_data of {
      src : Address.t;
      dst : Address.t;
      seq : int;
      payload_size : int;
      sent_at : float;  (** simulation metadata for latency; not on the wire *)
    }
  | Aodv_ack of {
      src : Address.t;  (** the data's destination *)
      dst : Address.t;  (** the data's source *)
      data_seq : int;
      sent_at : float;  (** when the acknowledged data left its source *)
    }

type t =
  | Areq of {
      sip : Address.t;  (** tentative address under test *)
      seq : int;
      dn : string option;  (** domain name to register, if any *)
      ch : int64;  (** challenge *)
      rr : Address.t list;  (** route record, visit order *)
    }
  | Arep of {
      sip : Address.t;  (** the duplicate address *)
      rr : Address.t list;  (** the AREQ's route record *)
      remaining : Address.t list;
      sig_ : string;  (** [\[SIP, ch\]_RSK] *)
      pk : string;
      rn : int64;
    }
  | Drep of {
      sip : Address.t;
      dn : string;  (** the conflicting domain name *)
      rr : Address.t list;
      remaining : Address.t list;
      sig_ : string;  (** [\[DN, ch\]_NSK] *)
    }
  | Rreq of {
      sip : Address.t;
      dip : Address.t;
      seq : int;
      srr : srr_entry list;  (** secure route record, hop order *)
      sig_ : string;  (** [\[SIP, seq\]_SSK] *)
      spk : string;
      srn : int64;
    }
  | Rrep of {
      sip : Address.t;
      dip : Address.t;
      rr : Address.t list;  (** intermediate addresses, S to D order *)
      remaining : Address.t list;
      sig_ : string;  (** [\[SIP, seq, RR\]_DSK] *)
      dpk : string;
      drn : int64;
    }
  | Crep of {
      requester : Address.t;  (** S' *)
      cacher : Address.t;  (** S, the cache owner *)
      dip : Address.t;  (** D *)
      requester_seq : int;  (** seq', initiated by S' *)
      cacher_seq : int;  (** seq of S's original discovery *)
      rr_to_cacher : Address.t list;  (** intermediates S' to S *)
      rr_to_dest : Address.t list;  (** intermediates S to D *)
      remaining : Address.t list;
      sig_cacher : string;  (** [\[S'IP, seq', RR_{S'->S}\]_SSK] *)
      cacher_pk : string;
      cacher_rn : int64;
      sig_dest : string;  (** [\[SIP, seq, RR_{S->D}\]_DSK], replayed from S's cache *)
      dest_pk : string;
      dest_rn : int64;
    }
  | Rerr of {
      reporter : Address.t;  (** I, the node that saw the break *)
      broken_next : Address.t;  (** I', the unreachable next hop *)
      dst : Address.t;  (** S, the source being informed *)
      remaining : Address.t list;
      sig_ : string;  (** [\[IIP, I'IP\]_ISK] *)
      pk : string;
      rn : int64;
    }
  | Data of {
      src : Address.t;
      dst : Address.t;
      seq : int;
      route : Address.t list;  (** full intermediate route, for RERR context *)
      remaining : Address.t list;
      payload_size : int;
      sent_at : float;  (** simulation metadata for latency; not on the wire *)
    }
  | Ack of {
      src : Address.t;  (** D *)
      dst : Address.t;  (** S *)
      data_seq : int;
      route : Address.t list;  (** intermediates D to S order *)
      remaining : Address.t list;
      sent_at : float;  (** when the acknowledged data left its source *)
    }
  | Probe of {
      origin : Address.t;
      target : Address.t;  (** the hop under test *)
      seq : int;
      route : Address.t list;  (** intermediates origin to target *)
      remaining : Address.t list;
    }
  | Probe_reply of {
      responder : Address.t;
      origin : Address.t;
      seq : int;
      remaining : Address.t list;
      sig_ : string;  (** [\[responder, origin, seq\]_RSK] *)
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
      result : Address.t option;  (** [None]: name unknown *)
      ch : int64;
      remaining : Address.t list;
      sig_ : string;  (** [\[name, result, ch\]_NSK] *)
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
      sig_ : string;  (** [\[old, new, ch\]_XSK] *)
      route : Address.t list;  (** intermediates requester to DNS *)
      remaining : Address.t list;
    }
  | Ip_change_ack of {
      old_ip : Address.t;
      new_ip : Address.t;
      accepted : bool;
      remaining : Address.t list;
    }
  | Aodv of aodv  (** the AODV/SAODV comparison protocol's traffic *)

val tag : t -> string
(** Short lowercase tag ("areq", "rrep", "aodv_rreq", ...) for stats and
    traces.  AODV data and acks share ["data"] and ["ack"] with the
    source-routed ones. *)

val tx_key : t -> Manet_sim.Stats.key
(** The key of counter ["tx." ^ tag m], a per-constructor constant made
    at module initialisation: the transmission counter. *)

val txbytes_key : t -> Manet_sim.Stats.key
(** The key of counter ["txbytes." ^ tag m], a per-constructor constant:
    the transmitted byte counter. *)

val remaining : t -> Address.t list option
(** The source-route hops left, or [None] for flooded messages (AREQ,
    RREQ) and for AODV's hop-by-hop messages. *)

val with_remaining : t -> Address.t list -> t
(** Replace the [remaining] field (identity where {!remaining} is
    [None]). *)

val add_to_buffer : (Buffer.t -> Address.t -> unit) -> Buffer.t -> t -> unit
(** [add_to_buffer addr buf m] appends the one-line summary used in
    trace and capture details, e.g. [DATA(src=fec0::1, dst=fec0::2,
    seq=3)]; source routes render as [[a;b;c]].  Every address is
    written by [addr], which must append {!Address.to_string}'s text:
    transmission details pass the memoised writer of
    {!Manet_obs.Obs.address_writer}.  Integers are written by
    {!Manet_obs.Json.add_int}, with no intermediate string. *)
