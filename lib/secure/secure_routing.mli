(** Secure route discovery, reply, maintenance and credit-driven route
    selection — §3.3 and §3.4, the paper's primary contribution.

    Derived from DSR, with every host's identity verifiable along the
    route:

    - A source floods
      [RREQ(SIP, DIP, seq, SRR, \[SIP, seq\]_SSK, SPK, Srn)]; every relay
      appends [(\[IIP, seq\]_ISK, IPK, Irn)] to the secure route record.
    - The destination checks, for the source and each recorded hop, that
      (i) the address hashes from the attached key and modifier (CGA
      rule) and (ii) the signature over [(IP, seq)] verifies — then
      answers [RREP(SIP, DIP, \[SIP, seq, RR\]_DSK, DPK, Drn)], which the
      source verifies symmetrically.
    - A cache owner may answer with
      [CREP]: it signs the half it vouches for (requester to itself,
      under the requester's fresh [seq']) and replays the destination's
      original endorsement for the cached half.
    - Route errors carry [\[IIP, I'IP\]_ISK]: a RERR is accepted only
      from a verified identity naming a link the source actually uses.
    - Credits (§3.4, {!Credit}): acked deliveries reward every host on
      the route; implausible or high-frequency error reporting and failed
      integrity probes slash.  Under [use_credits] the source picks the
      cached route with the highest minimum member credit.
    - Black-hole localization: when an acked route goes silent, the
      source probes each prefix of the route; the first hop that fails
      to return a signed [Probe_reply] is slashed and routed around.

    The [verify_at_destination] switch exists for the BSAR ablation
    (E4): with it off, the destination checks only the source's
    identity, as BSAR does, and intermediate impersonation goes
    undetected. *)

module Address = Manet_ipv6.Address
module Messages = Manet_proto.Messages

type config = {
  discovery_timeout : float;
  max_discovery_attempts : int;
  use_cache_replies : bool;
  ack_timeout : float;
  max_send_retries : int;
  cache_capacity_per_dst : int;
  flood_jitter : float;
  use_credits : bool;  (** §3.4 credit-weighted route selection *)
  probe_on_timeout : bool;  (** §3.4 black-hole probing *)
  probe_timeout : float;
  verify_at_destination : bool;  (** false = BSAR-style source-only check *)
  salvage : bool;  (** DSR-style packet salvaging at intermediates *)
  credit : Credit.config;
}

val default_config : config

type t

val create :
  ?config:config ->
  ?trusted:(Address.t * string) list ->
  Manet_proto.Node_ctx.t ->
  t
(** [trusted] lists pre-distributed (address, public key) bindings that
    are verified by key equality instead of the CGA rule — the paper's
    DNS server, whose well-known address is not a CGA but whose public
    key every host received before joining. *)

val handle : t -> src:int -> Messages.t -> unit

val send : t -> dst:Address.t -> ?size:int -> unit -> unit

val discover :
  t -> dst:Address.t -> on_route:(Address.t list option -> unit) -> unit

val cached_routes : t -> dst:Address.t -> Address.t list list
(** Every cached route for [dst] (inspection).  {!send} picks the one
    with the highest minimum credit under [use_credits], the shortest
    otherwise. *)

val credits : t -> Credit.t

(** Statistics share the baseline's keys (see {!Manet_dsr.Dsr}) plus:
    counters [secure.rreq_rejected], [secure.rrep_rejected],
    [secure.crep_rejected], [secure.rerr_rejected],
    [secure.rerr_implausible], [secure.replayed_rreq],
    [secure.hostile_suspected], [probe.sent], [probe.replied],
    [probe.suspect_found]. *)
