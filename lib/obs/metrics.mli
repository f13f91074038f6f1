(** Windowed time-series metrics over simulated time.

    Counters and float series, bucketed into fixed-length windows of the
    simulated clock and attributed per node (with a [-1] pseudo-node
    aggregating the global view).  The engine is layered {e over} the
    existing flat {!Manet_sim.Stats} (which stays the source of truth
    for run totals) and over the {!Audit} stream (every audit event
    counts under ["audit.<kind>"] for the emitter and
    ["accused.<kind>"] for the subject — wired in {!Obs.create}).

    Windows are derived lazily from [Engine.now] at record time; nothing
    is ever scheduled on the engine, so enabling metrics cannot perturb
    a simulation.  Recording is {e off} by default: the per-call cost
    with metrics disabled is one field test.

    Both exports are sorted and rendered through the canonical
    {!Json.float_str} formatter, and both rely on the documented
    sorted-output guarantee of {!Manet_sim.Stats.counters} and
    {!Manet_sim.Stats.summaries} for their run-total sections — so they
    are byte-identical across replays of the same seed. *)

module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats

type t

val create : ?window:float -> Engine.t -> t
(** [window] is the bucket length in simulated seconds (default 1.0).
    Raises [Invalid_argument] if [window <= 0]. *)

val set_enabled : t -> bool -> unit
(** Recording switch; off by default. *)

(** {1 Recording} *)

val record : t -> node:int -> by:int -> Stats.key -> unit
(** Add [by] to [k]'s counter for [node] (and the global aggregate,
    exported as pseudo-node [-1]) in
    the window containing the current simulated time.  No-op while
    disabled.

    Cost: the metric is found by its {!Stats.key} (see {!Stats.Keyed}),
    with no string hash or compare; the node's and the global cell of
    the current window are then read from a per-metric array (an
    int-keyed probe only for a cell's first record in a window).  No
    allocation once both cells exist.  Disabled, the call is one field
    test. *)

val observe : t -> node:int -> Stats.key -> float -> unit
(** Add one float sample to [k]'s series (count/sum/min/max per
    window, per node and global).  No-op while disabled.  Found like
    {!record}. *)

(** {1 Export} *)

val to_csv : ?stats:Stats.t -> t -> string
(** Deterministic CSV, one row per (window, node, metric) cell, sorted
    by kind, name, node, window.  With [stats], run totals from the
    flat stats table are appended as [stat_counter] / [stat_summary]
    rows (relying on their sorted-output guarantee). *)

val to_prom : ?stats:Stats.t -> t -> string
(** Prometheus-style text exposition of the same data: windowed cells
    as [manetsim_counter] / [manetsim_series_*] samples labelled by
    name, node and window start, plus optional [manetsim_stat_*] run
    totals.  Deterministic byte output. *)
