(** Protocol messages, and the one description of their wire layout.

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
    forwarding builds a new value.

    Each constructor is described once, by a {!desc}: its wire tag,
    counter tag, render label and summary fields, its ordered field list
    (name, {!codec}, getter) and a curried constructor.  Everything that
    walks a message field by field — {!Binary}'s encode, size, decode
    and equality, and {!tag}, {!remaining}, {!with_remaining} and
    {!add_to_buffer} here — interprets that table; a new message is one
    new entry. *)

module Address = Manet_ipv6.Address

type srr_entry = {
  ip : Address.t;  (** the intermediate node's claimed address *)
  sig_ : string;  (** [\[IIP, seq\]_ISK] *)
  pk : string;  (** the node's public key bytes *)
  rn : int64;  (** the CGA modifier for [ip] *)
}
(** One hop of the secure route record of §3.3. *)

(** {1 Messages}

    One named record per constructor, so the description's getters are
    typed. *)

type areq = {
  sip : Address.t;  (** tentative address under test *)
  seq : int;
  dn : string option;  (** domain name to register, if any *)
  ch : int64;  (** challenge *)
  rr : Address.t list;  (** route record, visit order *)
}

type arep = {
  sip : Address.t;  (** the duplicate address *)
  rr : Address.t list;  (** the AREQ's route record *)
  remaining : Address.t list;
  sig_ : string;  (** [\[SIP, ch\]_RSK] *)
  pk : string;
  rn : int64;
}

type drep = {
  sip : Address.t;
  dn : string;  (** the conflicting domain name *)
  rr : Address.t list;
  remaining : Address.t list;
  sig_ : string;  (** [\[DN, ch\]_NSK] *)
}

type rreq = {
  sip : Address.t;
  dip : Address.t;
  seq : int;
  srr : srr_entry list;  (** secure route record, hop order *)
  sig_ : string;  (** [\[SIP, seq\]_SSK] *)
  spk : string;
  srn : int64;
}

type rrep = {
  sip : Address.t;
  dip : Address.t;
  rr : Address.t list;  (** intermediate addresses, S to D order *)
  remaining : Address.t list;
  sig_ : string;  (** [\[SIP, seq, RR\]_DSK] *)
  dpk : string;
  drn : int64;
}

type crep = {
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

type rerr = {
  reporter : Address.t;  (** I, the node that saw the break *)
  broken_next : Address.t;  (** I', the unreachable next hop *)
  dst : Address.t;  (** S, the source being informed *)
  remaining : Address.t list;
  sig_ : string;  (** [\[IIP, I'IP\]_ISK] *)
  pk : string;
  rn : int64;
}

type data = {
  src : Address.t;
  dst : Address.t;
  seq : int;
  route : Address.t list;  (** full intermediate route, for RERR context *)
  remaining : Address.t list;
  payload_size : int;
  sent_at : float;  (** simulation metadata for latency; not charged on the wire *)
}

type ack = {
  src : Address.t;  (** D *)
  dst : Address.t;  (** S *)
  data_seq : int;
  route : Address.t list;  (** intermediates D to S order *)
  remaining : Address.t list;
  sent_at : float;  (** when the acknowledged data left its source *)
}

type probe = {
  origin : Address.t;
  target : Address.t;  (** the hop under test *)
  seq : int;
  route : Address.t list;  (** intermediates origin to target *)
  remaining : Address.t list;
}

type probe_reply = {
  responder : Address.t;
  origin : Address.t;
  seq : int;
  remaining : Address.t list;
  sig_ : string;  (** [\[responder, origin, seq\]_RSK] *)
  pk : string;
  rn : int64;
}

type name_query = {
  requester : Address.t;
  name : string;
  ch : int64;
  route : Address.t list;  (** intermediates requester to DNS *)
  remaining : Address.t list;
}

type name_reply = {
  requester : Address.t;
  name : string;
  result : Address.t option;  (** [None]: name unknown *)
  ch : int64;
  remaining : Address.t list;
  sig_ : string;  (** [\[name, result, ch\]_NSK] *)
}

type ip_change_request = {
  old_ip : Address.t;
  new_ip : Address.t;
  route : Address.t list;  (** intermediates requester to DNS *)
  remaining : Address.t list;
}

type ip_change_challenge = {
  old_ip : Address.t;
  new_ip : Address.t;
  ch : int64;
  remaining : Address.t list;
}

type ip_change_proof = {
  old_ip : Address.t;
  new_ip : Address.t;
  old_rn : int64;
  new_rn : int64;
  pk : string;
  sig_ : string;  (** [\[old, new, ch\]_XSK] *)
  route : Address.t list;  (** intermediates requester to DNS *)
  remaining : Address.t list;
}

type ip_change_ack = {
  old_ip : Address.t;
  new_ip : Address.t;
  accepted : bool;
  remaining : Address.t list;
}

(** AODV's messages ({!Manet_aodv.Aodv}): hop-by-hop routing, so none
    carries a route.  Under plain AODV the SAODV fields (signature, key,
    modifier and hash chain) are empty. *)

type aodv_rreq = {
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

type aodv_rrep = {
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

type aodv_rerr = { unreachable : (Address.t * int) list  (** (dst, seq) pairs *) }

type aodv_data = {
  src : Address.t;
  dst : Address.t;
  seq : int;
  payload_size : int;
  sent_at : float;  (** simulation metadata for latency; not charged on the wire *)
}

type aodv_ack = {
  src : Address.t;  (** the data's destination *)
  dst : Address.t;  (** the data's source *)
  data_seq : int;
  sent_at : float;  (** when the acknowledged data left its source *)
}

type aodv =
  | Aodv_rreq of aodv_rreq
  | Aodv_rrep of aodv_rrep
  | Aodv_rerr of aodv_rerr
  | Aodv_data of aodv_data
  | Aodv_ack of aodv_ack

type t =
  | Areq of areq
  | Arep of arep
  | Drep of drep
  | Rreq of rreq
  | Rrep of rrep
  | Crep of crep
  | Rerr of rerr
  | Data of data
  | Ack of ack
  | Probe of probe
  | Probe_reply of probe_reply
  | Name_query of name_query
  | Name_reply of name_reply
  | Ip_change_request of ip_change_request
  | Ip_change_challenge of ip_change_challenge
  | Ip_change_proof of ip_change_proof
  | Ip_change_ack of ip_change_ack
  | Aodv of aodv  (** the AODV/SAODV comparison protocol's traffic *)

(** {1 Readers} *)

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
(** [with_remaining m hops] replaces the [remaining] field: a copy, or
    [m] itself where {!remaining} is [None] or already the very list
    [hops] (a relay sending on the tail it was handed). *)

val add_to_buffer : (Buffer.t -> Address.t -> unit) -> Buffer.t -> t -> unit
(** [add_to_buffer addr buf m] appends the one-line summary used in
    trace and capture details, e.g. [DATA(src=fec0::1, dst=fec0::2,
    seq=3)]: the entry's label, then its summary fields.  Source routes
    render as [[a;b;c]], a secure route record as its hop count, an
    absent option as [-].  Every address is written by [addr], which
    must append {!Address.to_string}'s text: transmission details pass
    the memoised writer of {!Manet_obs.Obs.address_writer}.  Integers
    are written by {!Manet_obs.Json.add_int}, with no intermediate
    string. *)

(** {1 The description} *)

(** A field's wire codec: how {!Binary} writes, sizes, reads and
    compares it. *)
type _ codec =
  | U8 : int codec  (** one byte; AODV hop counts and bounds *)
  | U32 : int codec  (** big-endian; sequence numbers and sizes *)
  | U64 : int64 codec  (** big-endian; challenges and CGA modifiers *)
  | Bool : bool codec  (** one byte, 0 or 1 *)
  | Addr : Address.t codec  (** 16 network-order bytes *)
  | Str : string codec  (** u16 length, then the bytes *)
  | Opt : 'a codec -> 'a option codec  (** presence byte, then the value *)
  | List : 'a codec -> 'a list codec  (** u16 count, then the elements *)
  | Srr : srr_entry codec  (** address, signature, key, modifier *)
  | Addr_u32 : (Address.t * int) codec  (** address, then a u32 *)
  | Sent_at : float codec
      (** IEEE-754 bits as a u64, so decode is the exact inverse of
          encode; encoded but not charged on the wire ({!Wire}) *)

val width : 'a codec -> int
(** The encoded width of a fixed-width codec; 0 for the variable-width
    ones ({!Str}, {!Opt}, {!List}, {!Srr}). *)

type message = t

(** An ordered field list: each field is its name, codec and getter on
    the constructor's record ['r].  ['k] is the type of the curried
    constructor that takes the fields in that order. *)
module Fields : sig
  type ('r, 'k) t =
    | [] : ('r, message) t
    | ( :: ) : (string * 'a codec * ('r -> 'a)) * ('r, 'k) t -> ('r, 'a -> 'k) t
end

type 'r layout = Layout : ('r, 'k) Fields.t * 'k -> 'r layout
(** A field list with its curried constructor, which decode applies to
    the values it reads. *)

type 'r field = Field : { name : string; codec : 'a codec; get : 'r -> 'a } -> 'r field

type kind = { tag : string; tx : Manet_sim.Stats.key; txbytes : Manet_sim.Stats.key }
(** A counter tag and its two transmission counters' keys. *)

type 'r routed = {
  get_remaining : 'r -> Address.t list;
  set_remaining : 'r -> Address.t list -> t;  (** a copy with new hops *)
}
(** The [remaining] field of a source-routed message. *)

type 'r desc = private {
  wire : int;  (** the tag byte, unique per entry *)
  kind : kind;
  show : (string * 'r field) list;
      (** the summary: each field after its rendered prefix (["AREQ(sip="],
          [", seq="], ...) *)
  layout : 'r layout;
  fields : 'r field list;  (** the layout's fields, in wire order *)
  fixed : int;  (** the tag byte plus every fixed-width field's width *)
  var : 'r field list;  (** the variable-width fields, in wire order *)
  uncharged : int;  (** the bytes of its {!Sent_at} fields *)
  routed : 'r routed option;  (** [None]: flooded or hop-by-hop *)
  id : 'r Type.Id.t;  (** proves two entries describe the same record type *)
}
(** One constructor's entry. *)

type entry = Entry : 'r desc -> entry

val entries : entry list
(** Every constructor's entry, in wire-tag order. *)

type ('x, 'y, 'a) visitor = { run : 'r. 'r desc -> 'r -> 'x -> 'y -> 'a }

val view : ('x, 'y, 'a) visitor -> 'x -> 'y -> t -> 'a
(** [view v x y m] is [v.run d r x y] for [m]'s entry [d] and record
    [r]: the one match over the constructors.  It allocates nothing. *)
