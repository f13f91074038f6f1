(** The performance telemetry registry: where time, allocation and
    protocol cost go inside a run.

    One [Perf.t] rides alongside each scenario's {!Obs.t}.  It
    aggregates, per run:

    - per-event-label counts (from the engine's always-on accounting)
      and the sampled scheduler-occupancy series;
    - net-layer cost: neighbour-scan lengths per transmission (the
      candidates the radio's neighbour index examined, which follow
      node degree), delivery fan-out and MAC retry counts (from
      {!Manet_sim.Net});
    - crypto-op cost: sign/verify counts and SHA-256 compression blocks,
      attributed per message kind and per node via {!dispatch}
      around the reception dispatch and a {!Manet_crypto.Suite.set_on_op}
      subscription;
    - GC/alloc telemetry: [Gc.quick_stat] deltas per named phase.

    Exports split in two, following the Audit/Metrics precedent:

    - the {e deterministic} section (the ["deterministic"] member of
      {!to_json}, and {!det_jsonl}) holds only pure functions of the
      sim domain — counts, scan lengths, queue depths, per-phase event
      counts.  It is byte-identical across replays of the same seed
      and across sweep domain counts, and is gated by the CI
      determinism cmp.
    - the {e wall-clock} section (the ["wall_clock"] member) holds host
      timings and every [Gc.quick_stat]-derived quantity (allocation
      words, collection counts, promotion volumes, heap sizes) and is
      explicitly excluded from determinism gates.

    Allocation volume ([minor_words] deltas) lives in the wall-clock
    section even though OCaml counts words {e allocated}: empirically
    the counter drifts by a few words between same-seed replays on the
    multicore runtime, because the runtime's own internal allocations
    (GC bookkeeping, domain machinery) are charged to it too.  Only the
    per-phase event counts — a pure function of the event sequence —
    stay deterministic. *)

module Engine = Manet_sim.Engine
module Net = Manet_sim.Net
module Hist = Manet_sim.Hist
module Suite = Manet_crypto.Suite

val schema : string
val schema_version : int

type t

val create : unit -> t

(** {1 Crypto attribution} *)

val dispatch :
  t -> kind:string -> node:int -> (src:int -> 'm -> unit) -> src:int -> 'm -> unit
(** [dispatch t ~kind ~node handler ~src msg] runs [handler ~src msg]
    with crypto ops attributed to message kind [kind] on node [node],
    then restores the previous attribution, also when [handler] raises.
    Ops outside any dispatch (node-initiated sends, timer work) are
    charged to the ["none"] kind.
    It allocates nothing.  The scenario routes every delivery through
    it, with a per-node handler built once at set-up. *)

val subscribe : t -> Suite.t -> unit
(** Install this registry as the suite's per-operation subscriber: each
    operation is recorded under the current attribution. *)

val kind_totals : t -> (string * (int * int * int)) list
(** Per message kind [(signs, verifies, hash_blocks)] totals, sorted by
    kind.  Deterministic; the timeline layer diffs these at bucket
    boundaries to resolve crypto cost over sim time. *)

(** {1 GC phase accounting} *)

val phase : t -> engine:Engine.t -> string -> (unit -> 'a) -> 'a
(** [phase t ~engine name f] runs [f] and charges the [Gc.quick_stat]
    and processed-event deltas to phase [name] (accumulating across
    repeated calls; exception-safe). *)

(** {1 Export} *)

val to_json :
  ?meta:(string * Json.t) list ->
  ?extra_det:(string * Json.t) list ->
  t -> engine:Engine.t -> net:_ Net.t -> suite:Suite.t -> Json.t
(** The full schema-versioned export: header fields, [meta], then
    ["deterministic"] and ["wall_clock"] members.  The deterministic
    member is byte-identical across same-seed replays and domain
    counts; [extra_det] members (e.g. the flood-provenance summary) are
    appended to it verbatim and must obey the same purity contract.
    The wall-clock member holds host timings and GC scheduling
    artefacts; it is never byte-stable and never determinism-gated. *)

val det_jsonl :
  ?meta:(string * Json.t) list ->
  ?extra_det:(string * Json.t) list ->
  t -> engine:Engine.t -> net:_ Net.t -> suite:Suite.t -> string
(** The sweep-mergeable form: one schema header line, then one record
    line carrying only the deterministic section — the ["perf"] stream
    {!Merge.stream_jsonl} folds across runs. *)
