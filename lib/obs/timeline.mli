(** Time-resolved run telemetry: sim-time-bucketed windowed series over
    the always-on cumulative counters.

    Once {!install}ed, the engine fires the per-event hook (via
    {!Engine.set_on_event}) with the event's timestamp.  When the
    timestamp crosses a bucket boundary the open bucket closes: the
    registry snapshots deltas of the cumulative counters it was
    {!attach}ed to — processed events (total and per label), scheduler
    queue depth, net deliveries/transmissions/unicast drops, suite
    sign/verify/SHA-256-block totals (total and per message kind via
    {!Perf.kind_totals}), audit events — and records them against the
    closed window.  Buckets are half-open [ [i*w, (i+1)*w) ] windows of
    sim time; windows with no activity materialise nothing (renderers
    fill gaps with zero).

    Everything recorded is a pure function of the seeded event
    sequence: the hook reads no clock and draws no randomness, so the
    {!to_jsonl} export is byte-identical across same-seed replays and
    sweep domain counts (CI-gated), and recording perturbs nothing.
    The per-event fast path is an option match, one float divide and
    two compares — no allocation (clean under manetcheck's hot-path
    rules).

    The one deliberately wall-clock feature is the {!enable_progress}
    heartbeat for minutes-long large-N runs: every [check_every] events
    it samples {!Manet_sim.Mono_clock} and, when [interval] wall seconds
    have passed, emits one throughput/ETA/stall line through a
    caller-supplied sink (bin/ wires stderr).  It shares the tick but
    writes into no export, so determinism is untouched. *)

module Engine = Manet_sim.Engine
module Net = Manet_sim.Net
module Suite = Manet_crypto.Suite

val schema : string

type t

val create : ?width:float -> Engine.t -> t
(** Fresh timeline with bucket width [width] sim seconds (default
    1.0).  Raises [Invalid_argument] on a non-positive width.
    Recording is enabled by default. *)

val set_enabled : t -> bool -> unit
(** Disable to freeze bucket recording; the heartbeat still runs.
    Recording never perturbs the run, so the deterministic perf export
    and every counter are the same either way. *)

val attach :
  t -> net:_ Net.t -> suite:Suite.t -> perf:Perf.t -> audit:Audit.t -> unit
(** Connect the cumulative counter sources diffed at bucket close.
    Without sources only engine-derived series are recorded. *)

val install : t -> unit
(** Install the per-event hook as the engine's per-event observer. *)

val enable_progress :
  ?horizon:float ->
  ?interval:float ->
  ?check_every:int ->
  t ->
  emit:(string -> unit) ->
  unit ->
  unit
(** Turn on the wall-clock heartbeat: every [check_every] events
    (default 4096) sample the monotonic clock and, when [interval]
    (default 2.0) wall seconds elapsed, emit one progress line —
    events/sec, sim-seconds per wall-second, queue depth, ETA against
    [horizon] when given, or a STALL warning when sim time has not
    advanced since the last line. *)

val to_jsonl : ?meta:(string * Json.t) list -> t -> flood:Flood.t -> string
(** The schema-versioned export: a header line (schema, version,
    width), one ["bucket"] line per materialised window oldest-first,
    then the flood provenance tail ({!Flood.append_jsonl}).  Closes the
    trailing partial bucket first, idempotently: a second export with
    no new activity is byte-identical.  Byte-identical across
    same-seed replays and domain counts; the ["timeline"] stream
    {!Merge.stream_jsonl} folds across sweep runs. *)
