(** Causal telemetry: typed spans over the simulated protocol stack.

    A {e span} is a named interval of simulated time attributed to one
    node — an AREQ flood attempt, a whole route discovery, a node
    outage.  Spans form a tree through their [parent] field, and the
    {e correlation registry} lets a span started on one node become the
    parent of a span started on another (the responder of an AREQ flood
    parents its AREP span to the initiator's flood span by looking up
    the flood's correlation key).  The result is a queryable causal
    tree: every AREP/RREP/CREP/DREP traces back to the flood that
    caused it, with hop notes and a typed outcome.

    One [Obs.t] is shared by every node of a scenario (it lives in
    [Node_ctx]).  All recorded data is a function of the deterministic
    sim domain — simulated clock, seeded PRNG — so {!to_jsonl} is
    byte-identical across replays of the same seed.  Wall-clock
    profiling data deliberately lives elsewhere ({!Manet_sim.Engine}
    profile) and never enters this export.

    {b The event-log switch.}  One switch, the engine's
    {!Manet_sim.Trace} log ({!set_capture}, [Trace.enable]; read with
    {!wants_events}), governs every per-event telemetry store: event
    lines, transmission details, flood propagation trees
    ({!Flood.tree}), and spans, span notes and the correlation
    registry.  While it is off {!start} only issues the next id,
    {!note}, {!finish} and {!correlate} store nothing, {!lookup}
    answers [None], and callers build no detail text, note text or
    correlation key (they test {!wants_events} first), so a run that
    no export reads spans from keeps none and allocates nothing for
    them.  A span opened while the log was on stays kept: it can be
    noted and finished by id after the log is switched off. *)

module Engine = Manet_sim.Engine

val schema : string
val schema_version : int
(** Schema identifier and version stamped into the JSONL header line.
    The version bumps on any change to line shapes or field meanings;
    consumers must check it (see DESIGN.md "Observability"). *)

type outcome = Ok | Timeout | Rejected of string | Failed of string

val outcome_label : outcome -> string
(** ["ok"] / ["timeout"] / ["rejected"] / ["failed"]. *)

val outcome_reason : outcome -> string option

type span = {
  id : int;  (** dense, starting at 1, in start order *)
  parent : int option;
  kind : string;  (** e.g. ["dad.flood"], ["route.discovery"] *)
  node : int;  (** owning node, -1 for global *)
  detail : string;
  start_time : float;
  mutable end_time : float option;  (** [None] while open *)
  mutable outcome : outcome option;
  mutable notes : (float * int * string) list;
      (** newest first; [(time, node, text)] *)
}

type event = { time : float; node : int; name : string; detail : string }

type t

val create : ?event_capacity:int -> Engine.t -> t
(** One per scenario, shared by all nodes.  [event_capacity] caps the
    event capture (oldest dropped first).  The capture is the engine's
    {!Manet_sim.Trace} log, so every [t] on one engine shares its
    events, switch and capacity: the capacity starts at 200_000, and
    only an explicit [event_capacity] changes it (dropping the oldest
    captured events down to it).  Also
    creates the scenario's {!Audit} stream and windowed {!Metrics}
    engine and wires every audit event into the metrics (under
    ["audit.<kind>"] for the emitter, ["accused.<kind>"] for the
    subject, through keys made once at module initialisation). *)

val audit : t -> Audit.t
(** The scenario-wide security audit stream. *)

val metrics : t -> Metrics.t
(** The scenario-wide windowed metrics engine (disabled by default). *)

val perf : t -> Perf.t
(** The scenario-wide performance telemetry registry (always
    collecting; its deterministic counters perturb nothing). *)

val timeline : t -> Timeline.t
(** The scenario-wide time-resolved telemetry registry.  Created
    enabled; it records nothing until the scenario installs it as the
    engine's per-event observer and attaches its counter sources. *)

val flood : t -> Flood.t
(** The scenario-wide flood-provenance registry (always collecting;
    counter-pure like {!perf}). *)

(** {1 Spans} *)

val start :
  t -> ?parent:int -> kind:string -> node:int -> ?detail:string -> unit -> int
(** Open a span at the current simulated time; returns its id.  Ids are
    issued in start order whether or not the event log is on, so
    {!span_count} does not depend on the switch; the span itself is
    kept only while the log is on (the module preamble), and with it
    off the call allocates nothing. *)

val finish : t -> int -> outcome -> unit
(** Close a span with its outcome.  Idempotent: only the first call
    takes effect, so a discovery resolved by a reply can safely race its
    own timeout closure.  An id that was never kept (unknown, or
    issued while the event log was off) is ignored. *)

val note : t -> int -> node:int -> string -> unit
(** Attach a timestamped annotation (e.g. a relay hop) to an open or
    closed span.  An id that was never kept is ignored; callers build
    the text only when {!wants_events} is true. *)

val span_count : t -> int
(** How many ids {!start} has issued, kept or not. *)

val spans : t -> span list
(** The kept spans in id (= start) order: those opened while the event
    log was on, so [[]] for a run that never turned it on. *)

(** {1 Correlation registry} *)

val correlate : t -> string -> int -> unit
(** Bind a protocol-level key (flood id, discovery id, outage id) to a
    span so other nodes can parent to it.  Rebinding replaces.  Stores
    nothing while the event log is off; callers build the key only
    when {!wants_events} is true. *)

val lookup : t -> string -> int option
(** The span bound to a key.  [None], without hashing the key, while
    the event log is off, even for a key bound while it was on. *)

(** {1 Event sink} *)

val log : t -> node:int -> event:string -> detail:string -> unit
(** Record one telemetry event at the current simulated time in the
    engine's {!Manet_sim.Trace} log, which {!Manet_sim.Engine.log} also
    writes: four words plus the caller's strings while capture is on,
    and nothing at all while it is off. *)

val set_capture : t -> bool -> unit
(** Event capture; default off.  It is the engine trace's one switch,
    so [Trace.enable] and [Trace.disable] set it too, and it also
    governs spans and the correlation registry (the module preamble).
    Turning it off keeps the events and spans captured so far. *)

val wants_events : t -> bool
(** Whether a {!log} call would be recorded, and a span or correlation
    key kept: capture is on.  Per-packet callers test it before
    formatting an event's detail, a span's detail or note, or a
    correlation key, so a run with capture off builds none of them. *)

val detail_buffer : t -> Buffer.t
(** The scenario's one scratch buffer for rendering an event detail,
    cleared.  Its contents are valid until the next call, so a caller
    takes [Buffer.contents] before logging. *)

val address_text : t -> Manet_ipv6.Address.t -> string
(** [Address.to_string a], memoised per scenario: the first call for an
    address renders it, later calls return the same string.  A hit
    costs one {!Manet_ipv6.Address.Tbl} probe and allocates nothing
    (about 25 ns, against about 155 ns and a fresh string for
    [Address.to_string]).  The text is
    a pure function of the address, so the memo never goes stale; it is
    emptied when it holds 4,096 addresses, so addresses an adversary
    makes up cannot grow it without limit. *)

val address_writer : t -> Buffer.t -> Manet_ipv6.Address.t -> unit
(** Appends {!address_text}'s text to a buffer: the address writer
    transmission details pass to {!Manet_proto.Messages.add_to_buffer}.
    The closure is made once per [t], so passing it allocates
    nothing. *)

val events : t -> event list
(** The captured events, oldest first. *)

val events_dropped : t -> int
(** How many oldest captured events were discarded at [event_capacity]. *)

(** {1 Export} *)

val to_jsonl : ?meta:(string * Json.t) list -> t -> string
(** Schema-versioned JSONL: one header object (extended with [meta],
    e.g. the run seed), then one line per kept span in id order, then
    one line per captured event in log order.  The header's ["spans"]
    counts the span lines written: {!span_count} when the event log
    was on from the start, fewer when it was switched on mid-run.  Byte-identical across
    replays of the same seed and plan.  A length pass computes every
    line's byte count first, so the result is written into a string of
    exactly its size and the export allocates nothing else of that
    size. *)
