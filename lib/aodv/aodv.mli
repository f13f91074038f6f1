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

val max_hops : int
(** The hop bound every RREQ and RREP carries (16): the SAODV hash
    chain's length.  A relay drops an RREQ or RREP whose hop count would
    reach it, which also ends an RREP caught in a loop of routes. *)

type t

val create : secure:bool -> Manet_proto.Node_ctx.t -> t
(** One node's agent.  [secure] applies SAODV's signatures and hash
    chains.  Sends, counters and randomness go through the node
    context. *)

val handle : t -> src:int -> Manet_proto.Messages.t -> unit
(** Process a received message; only {!Manet_proto.Messages.Aodv}
    traffic concerns the agent. *)

val send : t -> dst:Address.t -> ?size:int -> unit -> unit
(** Offer a data packet; discovery runs if no valid route exists. *)

(** Stats: [data.offered], [data.delivered], [data.acked],
    [data.dropped], [data.forwarded], [route.discoveries],
    [rerr.sent], plus [aodv.rreq_rejected]/[aodv.rrep_rejected] (SAODV
    signature failures) and [aodv.hash_chain_rejected], each also an
    audit [Sig_verify_fail].  Transmissions count under
    [tx.aodv_rreq], [tx.aodv_rrep], [tx.aodv_rerr], [tx.data] and
    [tx.ack]. *)

module Hash_chain : sig
  (** SAODV hop-count protection, exposed for tests. *)

  (* manetcheck: allow test-only-export — test_aodv.ml's three hash
     chain tests start their chains here. *)
  val generate : Manet_crypto.Prng.t -> max_hops:int -> string * string
  (** [(seed, top_hash)] with [top_hash = H^max_hops(seed)]. *)

  (* manetcheck: allow test-only-export — test_aodv.ml's hash chain
     tests advance a relay's hash through it. *)
  val advance : string -> string
  (** One application of [H] — what each relay does. *)

  (* manetcheck: allow test-only-export — test_aodv.ml's hash chain
     tests pin that an honest advance verifies and a shrunk hop count
     or a forged hash does not. *)
  val check : hash:string -> top_hash:string -> max_hops:int -> hop_count:int -> bool
  (** Does [H^(max_hops - hop_count)(hash) = top_hash] hold? *)
end
