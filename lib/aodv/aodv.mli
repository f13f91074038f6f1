(** AODV and an SAODV-style secured variant — the paper's "translating to
    other routing protocols" future work, built out so the loss of
    tracking capability can be measured.

    AODV (Perkins-Royer) is hop-by-hop distance-vector routing on
    demand: a flooded RREQ installs reverse-route entries as it travels;
    the destination (or a node with a fresh-enough route) answers with an
    RREP that installs forward routes on its way back; data follows the
    routing tables one hop at a time; a broken link triggers RERRs that
    invalidate routes through it.  No node ever learns the full path.

    With [secure = true] the agent applies SAODV's two mechanisms
    (Zapata's draft, reviewed in the paper's §2.1): the immutable fields
    of RREQ/RREP are signed by their originator, and the mutable hop
    count is protected by a hash chain — the originator draws a seed,
    publishes [top_hash = H^max_hops(seed)], and each relay checks
    [H^(max_hops - hop_count)(hash) = top_hash] before advancing the
    chain, so a relay can inflate but never shrink the distance.

    What SAODV {e cannot} do — and the reason the paper sticks with
    source routing — is identify intermediate nodes: the route is a
    distributed set of next-hop pointers, relays add no verifiable
    identity, so a silent dropper on the path can be neither named nor
    routed around by identity.  Experiment E7 measures exactly this. *)

module Address = Manet_ipv6.Address

(** AODV's own wire messages (it does not share the DSR message set). *)
type msg =
  | Rreq of {
      src : Address.t;
      src_seq : int;
      bcast_id : int;
      dst : Address.t;
      dst_seq_known : int;  (** 0 = unknown *)
      hop_count : int;
      sig_ : string;  (** SAODV: originator's signature over immutables *)
      spk : string;
      srn : int64;
      hash : string;  (** SAODV hash-chain element *)
      top_hash : string;
      max_hops : int;
    }
  | Rrep of {
      rep_src : Address.t;  (** the requester the reply travels to *)
      rep_dst : Address.t;  (** the destination being reported *)
      dst_seq : int;
      hop_count : int;
      sig_ : string;
      dpk : string;
      drn : int64;
      hash : string;
      top_hash : string;
      max_hops : int;
    }
  | Rerr of { unreachable : (Address.t * int) list  (** (dst, seq) pairs *) }
  | Data of {
      d_src : Address.t;
      d_dst : Address.t;
      d_seq : int;
      payload_size : int;
      sent_at : float;
    }
  | Ack of { a_src : Address.t; a_dst : Address.t; data_seq : int; sent_at : float }

val msg_size : sig_size:int -> pk_size:int -> msg -> int
(** Wire-size model, same conventions as {!Manet_proto.Wire}. *)

type config = {
  secure : bool;  (** SAODV signatures + hash chains *)
  discovery_timeout : float;
  max_discovery_attempts : int;
  route_lifetime : float;  (** entries expire without use *)
  ack_timeout : float;
  max_send_retries : int;
  flood_jitter : float;
  max_hops : int;  (** hash-chain length bound *)
}

val default_config : config

type t

val create :
  ?config:config ->
  net:msg Manet_sim.Net.t ->
  directory:Manet_proto.Directory.t ->
  identity:Manet_proto.Identity.t ->
  rng:Manet_crypto.Prng.t ->
  unit ->
  t

val handle : t -> src:int -> msg -> unit

val send : t -> dst:Address.t -> ?size:int -> unit -> unit
(** Offer a data packet; discovery runs if no valid route exists. *)

val address : t -> Address.t
val node_id : t -> int
val net : t -> msg Manet_sim.Net.t

(** Stats (shared engine registry): [data.offered], [data.delivered],
    [data.acked], [data.dropped], [route.discoveries], plus
    [aodv.rrep_rejected] (SAODV verification failures),
    [aodv.hash_chain_rejected], and [tx.aodv_*] counters. *)

module Hash_chain : sig
  (** SAODV hop-count protection, exposed for tests. *)

  val generate : Manet_crypto.Prng.t -> max_hops:int -> string * string
  (** [(seed, top_hash)] with [top_hash = H^max_hops(seed)]. *)

  val advance : string -> string
  (** One application of [H] — what each relay does. *)

  val check : hash:string -> top_hash:string -> max_hops:int -> hop_count:int -> bool
  (** Does [H^(max_hops - hop_count)(hash) = top_hash] hold? *)
end
