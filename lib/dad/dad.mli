(** Secure duplicate address detection — §3.1 of the paper.

    The agent integrates extended DAD (AREQ flooded through the MANET,
    AREP returned by any node owning the contested address) with CGA
    ownership proofs and 6DNAR domain-name registration:

    - To join, a host broadcasts [AREQ(SIP, seq, DN, ch, RR)] with its
      tentative CGA; every host rebroadcasts once, appending its own
      address to the route record [RR].
    - A host [R] owning [SIP] answers with
      [AREP(SIP, RR, \[SIP, ch\]_RSK, RPK, Rrn)] unicast back along the
      reverse of [RR]; the initiator verifies the CGA binding
      ([SIP = fec0::H(RPK, Rrn)]) and the challenge signature, then picks
      a fresh [rn] and retries.
    - [R] also warns the DNS server with the same signed AREP so the
      pending name registration is cancelled.  The paper leaves the
      transport of this warning unspecified (R need not have a route to
      the DNS yet); we flood it addressed to the well-known DNS address,
      with duplicate suppression — see DESIGN.md §4.
    - If the DNS server sees a conflicting domain name it answers
      [DREP(SIP, RR, \[DN, ch\]_NSK)], which the initiator verifies under
      the pre-distributed DNS public key.
    - Silence for [arep_wait] seconds means the address (and name) are
      unique and usable.

    The agent handles AREQ/AREP/DREP for both roles (initiator and
    responder/relay).  DNS-server-side registration bookkeeping lives in
    [Manet_dns]; it observes AREQs and consumes warning AREPs through the
    two hooks below. *)

module Address = Manet_ipv6.Address
module Messages = Manet_proto.Messages

type config = {
  arep_wait : float;  (** seconds of silence that mean success *)
  flood_jitter : float;  (** max extra delay before rebroadcasting an AREQ *)
  max_attempts : int;  (** address regenerations before giving up *)
  auto_rename : bool;  (** derive "name-2" etc. on a DN conflict *)
}

val default_config : config

type outcome =
  | Configured of { address : Address.t; name : string option }
  | Failed of string

type t

val create :
  ?config:config ->
  ?dns_address:Address.t ->
  dns_pk:string ->
  Manet_proto.Node_ctx.t ->
  t
(** [dns_pk] is the DNS server's public key, which §3 assumes every host
    received before entering the MANET. *)

val start :
  t -> ?dn:string -> ?parent:int -> on_complete:(outcome -> unit) -> unit -> unit
(** Begin DAD for this node's current tentative address.  The tentative
    address is entered in the directory immediately (standing in for the
    footnote-2 last-hop broadcast: a node without a legal address can
    still hear its own AREP).

    Opens a [dad.bootstrap] telemetry span covering the whole exchange,
    with one [dad.flood] child per attempt.  [parent] links the span to
    a cause on another layer — a restart after an outage passes the
    [fault.outage] span id so re-DAD convergence is measurable
    separately from cold-start convergence. *)

val abort : t -> unit
(** Cancel any in-flight DAD attempt without firing its completion
    callback.  No-op when nothing is pending.  Used when a node crashes
    mid-bootstrap so that a later restart can call {!start} again. *)

val handle : t -> src:int -> Messages.t -> unit
(** Feed AREQ, AREP and DREP messages received by this node.  Other
    message kinds are ignored. *)

val is_configured : t -> bool

val is_pending : t -> bool
(** An attempt is in flight: {!start} would raise until it resolves or
    is {!abort}ed. *)

val set_areq_observer : t -> (Messages.t -> unit) -> unit
(** DNS-server hook: called once per fresh (deduplicated) AREQ this node
    receives, before relaying. *)

val set_warning_sink : t -> (Messages.t -> unit) -> unit
(** DNS-server hook: called when an AREP terminates at this node but no
    local DAD is pending — i.e. this node is the DNS and the AREP is a
    duplicate warning. *)

(** {1 Telemetry correlation keys}

    Shared vocabulary for the {!Manet_obs.Obs} correlation registry, so
    responder- and DNS-side spans can attach to the initiating flood's
    span.  A flood attempt is identified by (sip, ch) — the 64-bit
    challenge is fresh per attempt — and AREP/DREP replies by their
    signature bytes. *)

val flood_key : sip:Address.t -> ch:int64 -> string
val drep_corr : string -> string
