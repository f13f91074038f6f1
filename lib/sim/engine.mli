(** The discrete-event simulation engine.

    Time is a float in seconds.  Events are closures ordered by firing
    time (FIFO among equal times).  The engine owns the run's PRNG root,
    the {!Stats} registry and the {!Trace} buffer so every protocol
    module can reach them through the one engine value.

    Every event takes a sequence number when it is scheduled, and the
    queue orders events by (time, sequence number).  A fan-out frame
    ({!schedule_frame}) is one event per receiver: it takes a block of
    consecutive numbers, in receiver order, and so runs its receivers
    exactly where scheduling each on its own would have run them, but
    it sits in the queue as one entry keyed at its next undelivered
    receiver.  Counts of events, {!pending} included, are per
    receiver. *)

type t

val create : seed:int -> unit -> t
(** Fresh engine at time 0 with a PRNG derived from [seed]. *)

val now : t -> float
val rng : t -> Manet_crypto.Prng.t
(** The engine's own stream; subsystems should {!Manet_crypto.Prng.split}
    it rather than share it. *)

val stats : t -> Stats.t
val trace : t -> Trace.t

val schedule : t -> ?label:string -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    Raises [Invalid_argument] on a negative or NaN delay.  [label]
    names the event class for the per-label counts and the wall-clock
    profiler (default ["other"]); it has no effect on event ordering.
    Each engine interns its labels to small ints, so processing an
    event touches no string; pass a string literal, which the intern
    table finds by physical equality.  Labels equal as strings are one
    label, however they were built. *)

val schedule_at : t -> ?label:string -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; [time] must not be in the past or NaN. *)

val schedule_frame :
  t -> ?label:string -> int -> int array -> float array -> (int -> unit) -> unit
(** [schedule_frame t k rcvs delays f] schedules [k] events, one per
    receiver: the [i]-th runs [f rcvs.(i)] at [now t +. delays.(i)],
    for [i < k].  The events run in the order [k] calls of {!schedule}
    in index order would give them, and each is counted, labelled,
    observed and profiled as its own event; only the queue holds them
    as one entry, so a frame allocates nothing per receiver.  The
    engine copies what it needs, so the caller may reuse both arrays
    at once.  [f] is released after the last receiver runs.  Does
    nothing when [k] is 0.  Raises [Invalid_argument] on a negative or
    NaN delay, scheduling none of the receivers. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Process events in order until the queue is empty, simulated time
    would pass [until], or [max_events] have fired.  Events scheduled
    beyond [until] remain queued, so [run] can be called again.  When
    events remain past [until], the clock advances to [until]; it never
    moves backwards, so a horizon earlier than {!now} leaves it
    unchanged. *)

val pending : t -> int
(** Number of queued events: every undelivered receiver of a frame
    counts as one. *)

val events_processed : t -> int

(** {1 Deterministic perf accounting}

    Always-on counters consumed by the perf registry
    ([lib/obs/perf.ml]).  They are pure functions of the event sequence
    — no clock reads, no PRNG draws — so they are byte-identical across
    replays of the same seed and across domain counts, and keeping them
    on perturbs nothing. *)

val label_counts : t -> (string * int) list
(** Processed events per schedule label, sorted by label.  Only labels
    with at least one processed event appear; interning changes
    nothing here. *)

val occupancy : t -> (int * int) list
(** The sampled scheduler occupancy series, oldest first:
    [(processed_index, pending_after_pop)] taken every
    {!occupancy_stride} events.  The series decimates itself (stride
    doubles) to stay within a fixed capacity, deterministically. *)

val occupancy_stride : t -> int
(** Current sampling stride (starts at 1, doubles on decimation). *)

val max_pending : t -> int
(** High-water mark of {!pending}. *)

val set_on_event : t -> (float -> unit) option -> unit
(** Install (or clear) a per-event observer.  The hook fires once per
    processed event with the event's timestamp, after the clock advances
    and before the event is counted or its closure runs — so an observer
    closing a time bucket at event [e] sees counter state that excludes
    [e] entirely.  The hook must be a pure function of the event
    sequence if its output feeds a deterministic export, and must not
    allocate per event (it sits on the manetcheck hot path).  The timeline
    layer ([lib/obs/timeline.ml]) is the intended client. *)

(** {1 Wall-clock profiling}

    Opt-in accounting of host time spent per event class.  The samples
    come from {!Mono_clock} and are stored in a side table: turning
    profiling on or off changes no event order, PRNG draw, stat counter
    or trace byte, so replay determinism is untouched.  Profile data
    surfaces only in the JSON run report (which is not byte-stable),
    never in the deterministic JSONL trace. *)

type profile_entry = { p_count : int; p_wall_s : float }

val set_profiling : t -> bool -> unit
(** Default off.  While off, {!run} samples no clock at all. *)

val profiling : t -> bool

val profile : t -> (string * profile_entry) list
(** Per-label event count and accumulated wall seconds, sorted by
    label, for the labels that processed an event while profiling.
    Empty unless profiling was on during a {!run}. *)

val wall_in_run : t -> float
(** Total wall seconds spent inside {!run} while profiling was on. *)

val events_per_sec : t -> float
(** Profiled events divided by {!wall_in_run}; 0 when nothing was
    profiled. *)

val log : t -> node:int -> event:string -> detail:string -> unit
(** Convenience: trace at the current simulated time. *)
