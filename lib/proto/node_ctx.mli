(** Per-node protocol context: the bundle every protocol agent (DAD, DNS,
    DSR, secure routing) needs — the engine, the shared radio, the
    address directory, this node's identity, and a private PRNG stream —
    plus the source-route transmission helpers.

    Source-route convention: a message's [remaining] field lists the hops
    still to visit {e including the next receiver}: a node transmitting
    along path [\[a; b; c\]] unicasts to [a] a message with
    [remaining = \[a; b; c\]]; [a] finds itself at the head, pops it, and
    either consumes the message ([tail = \[\]]) or forwards it to [b].
    Delivery to a contested address reaches every claimant (see
    {!Directory}). *)

module Address = Manet_ipv6.Address
module Engine = Manet_sim.Engine
module Net = Manet_sim.Net
module Prng = Manet_crypto.Prng
module Suite = Manet_crypto.Suite
module Obs = Manet_obs.Obs
module Audit = Manet_obs.Audit

type t = {
  engine : Engine.t;
  net : Messages.t Net.t;
  directory : Directory.t;
  identity : Identity.t;
  rng : Prng.t;
  obs : Obs.t;
      (** Telemetry handle, shared by every node of a scenario so spans
          started on one node can parent spans started on another. *)
}

val create :
  ?obs:Obs.t -> Messages.t Net.t -> Directory.t -> Identity.t -> Prng.t -> t
(** [obs] defaults to a fresh private handle — fine for unit tests, but
    a scenario must pass one shared handle to every node or cross-node
    span correlation silently degrades to per-node trees. *)

val address : t -> Address.t
val node_id : t -> int
val suite : t -> Suite.t
val now : t -> float

val size_of : t -> Messages.t -> int
(** Wire size of the message (see {!Wire.size_of}): exactly what the
    binary codec would put on the air — empty signature fields cost only
    their length prefixes, so the baseline is charged honestly. *)

val stat : t -> Manet_sim.Stats.key -> unit
(** Increment [k]'s counter in the engine's stats, and — when the
    scenario's windowed {!Manet_obs.Metrics} are enabled — in this
    node's current metric window.

    Cost: callers bind the key once, at module initialisation
    ([let k_forwarded = Stats.key "data.forwarded"]), so a call hashes
    and compares no characters: one {!Manet_sim.Stats.Keyed} probe for
    the run total, one field test with metrics off, and with metrics on
    one more keyed probe plus two array reads for the node's and the
    global cell of the current window.  Once the counter's cells exist
    it allocates nothing, with metrics on or off; about 24 ns with
    metrics off and 49 ns with them on (48 and 132 ns when the tables
    hashed the name). *)

val observe : t -> Manet_sim.Stats.key -> float -> unit
(** One sample of [k]'s summary in the engine's stats and, when
    enabled, of this node's windowed series. *)

val log : t -> event:string -> detail:string -> unit
(** Telemetry event for this node, fanned out through {!Obs.log} (ring
    trace always; JSONL sink when capture is on).  The caller has
    already built [detail]; a per-packet caller should build it only
    when {!Obs.wants_events} is true, as {!broadcast} and {!send_along}
    do. *)

val audit :
  t ->
  kind:Audit.kind ->
  ?subject:Address.t ->
  ?subject_node:int ->
  ?stats:Manet_sim.Stats.key list ->
  cause:string ->
  unit ->
  unit
(** Emit one security audit event from this node at the current
    simulated time.  [stats] are the keys of legacy counters bumped
    atomically with the event, so converted call sites keep their exact
    historical counter semantics.  The subject's address text comes
    from the scenario's memo ({!Manet_obs.Obs.address_text}).  When only [subject] is given, the accused node
    is resolved through the shared {!Directory} (first claimant); pass
    [subject_node] when the protocol already knows the node (e.g. the
    radio-level transmitter). *)

val broadcast : t -> Messages.t -> unit
(** One radio broadcast from this node, size-accounted under
    [tx.<tag>] and [txbytes.<tag>] through {!Messages.tx_key} and
    {!Messages.txbytes_key}.  The [tx.<tag>] event and its detail (the
    message summary) are formatted only when {!Obs.wants_events} is
    true, with every address written through the scenario's memo
    ({!Manet_obs.Obs.address_writer}). *)

val send_along :
  t -> path:Address.t list -> ?on_fail:(unit -> unit) -> Messages.t -> unit
(** Transmit toward the head of [path] with [remaining = path].  The
    head must resolve in the directory; if it does not (stale route),
    [on_fail] fires after a MAC-timeout's worth of delay.  Delivery goes
    to every claimant of the head address.  Counted like {!broadcast};
    the [tx.<tag>] detail is likewise formatted only when
    {!Obs.wants_events} is true. *)

val forward_transit : t -> src:int -> Messages.t -> unit
(** Pure transit behaviour: pop this node from the source route and pass
    the message to the next hop; consume and overheard traffic are
    dropped.  Used for message kinds a node relays but does not
    interpret. *)

val deliver_up :
  t ->
  src:int ->
  Messages.t ->
  consume:(Messages.t -> unit) ->
  forward:(next:Address.t list -> Messages.t -> unit) ->
  not_mine:(Messages.t -> unit) ->
  unit
(** Source-route reception step.  Pops this node's address from the head
    of [remaining] and dispatches: [consume] when this node is the final
    destination, [forward ~next] when hops remain ([next] includes the
    new next hop at its head), and [not_mine] when the head is not this
    node's address (overheard or flood-relayed traffic). *)
