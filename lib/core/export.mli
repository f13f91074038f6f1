(** The export kinds of a run: what each one is called on disk, which
    sinks it needs switched on before the run, and how it is rendered —
    for one run and, where a merged form exists, for a sweep.

    Every path to an export goes through this module: a flag-built
    [manetsim run] or [dad], a scenario file's [(exports ...)] field,
    [run --scenario] and [sweep].  The keyword that names each kind in
    a scenario file and on the command line is {!Manet_scenario}'s
    [Schema.exports]. *)

type kind =
  | Stats_csv  (** counters, two-column CSV *)
  | Audit_jsonl  (** the security audit stream ({!Manet_obs.Audit.to_jsonl}) *)
  | Trace_jsonl  (** spans and captured events ({!Manet_obs.Obs.to_jsonl}) *)
  | Metrics_csv  (** windowed metrics ({!Manet_obs.Metrics.to_csv}) *)
  | Metrics_prom  (** the same in Prometheus format *)
  | Report_json  (** {!Manet_obs.Report.run_report}; holds wall time *)
  | Perf_json  (** {!Scenario.perf_json} *)
  | Timeline_jsonl  (** {!Scenario.timeline_jsonl} *)

val file : name:string -> kind -> string
(** [<name>.<suffix>], e.g. [run.trace.jsonl] or
    [blackhole_e1.metrics.prom]. *)

val prepare : kind list -> Scenario.t -> unit
(** Switch on the sinks the kinds read: event capture only for
    [Trace_jsonl] (it stores a detail string per transmission), the
    metrics engine only for [Metrics_csv] and [Metrics_prom].  Call it
    before any engine event fires; every other kind reads sinks that
    are always on. *)

val render : meta:(string * Manet_obs.Json.t) list -> Scenario.t -> kind -> string
(** The export's contents.  [meta] is the provenance (seed, scenario
    name, ...) written into the header of every kind that has one; the
    metrics kinds carry none. *)

(** {1 Sweeps} *)

val mergeable : kind -> bool
(** Whether a sweep can merge the kind across runs: [Stats_csv],
    [Audit_jsonl], [Trace_jsonl], [Perf_json] (its deterministic
    section) and [Timeline_jsonl].  The metrics and report kinds have
    no merged form. *)

val check_mergeable : kind list -> unit
(** Raises [Invalid_argument] on the first kind that is not
    {!mergeable}. *)

val merge_run : key:(string * Manet_obs.Json.t) list -> kind list -> Scenario.t -> Manet_obs.Merge.run
(** One finished run as a {!Manet_obs.Merge.run}: its counters plus one
    stream per requested stream kind, each rendered with [key] as meta
    (the counters need no stream; check the kinds with
    {!check_mergeable} first). *)

val merged : name:string -> kind list -> Manet_obs.Merge.run list -> (string * string) list
(** [(file, contents)] of the merged export of every kind, in list
    order: [<name>.stats.csv] and [<name>.<stream>.jsonl] for the
    streams [audit], [trace], [perf] and [timeline].  Raises
    [Invalid_argument] on a kind that is not {!mergeable}. *)
