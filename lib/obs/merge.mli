(** Deterministic merging of per-run exports from a sweep.

    A sweep runs many independent simulations (scenario files × seeds),
    possibly across several domains, and each run produces its own
    exports: counter snapshots, an audit JSONL stream, a telemetry trace
    JSONL stream.  This module folds those
    per-run artefacts into single documents whose bytes depend only on
    the set of runs — {e never} on the domain count, spawn order or
    completion order of the workers that produced them.

    Determinism contract: {!sorted} orders runs by their key fields
    (element-wise: ints and floats numerically, strings lexically),
    every merged document is generated from that canonical order, JSON
    is rendered by the canonical {!Json} printer, and each run's stream
    lines are copied verbatim.  Two sweeps over the same files with the
    same seeds therefore produce byte-identical merged exports at any
    [--domains] value. *)

type run = {
  key : (string * Json.t) list;
      (** Identifying coordinates in canonical comparison order, e.g.
          [("scenario", String "blackhole_e1"); ("seed", Int 3)].
          Every run in one merge must use the same field names in the
          same order. *)
  stats : (string * int) list;  (** Counter snapshot (name, value). *)
  streams : (string * string) list;
      (** Named JSONL exports, e.g. [("audit", Audit.to_jsonl ...)].
          Each export is a header object line followed by record
          lines. *)
}

val sorted : run list -> run list
(** Runs in canonical key order (stable for equal keys). *)

val stream_jsonl : name:string -> run list -> string
(** One merged JSONL document for stream [name]: a sweep header object
    [{"schema":"manetsim-sweep",...,"stream":name,"runs":N}], then per
    run (in {!sorted} order) a run-header object carrying ["run"] (its
    canonical index), the run's key fields and the original per-run
    header under ["source"], followed by that run's record lines
    verbatim.  Raises [Invalid_argument] if a run lacks [name] — a
    partial merge would silently misrepresent the sweep. *)

val stats_csv : run list -> string
(** Counters as CSV: header [<key field names>,counter,value], one row
    per (run, counter) in {!sorted} run order, counters in each run's
    own (already sorted) snapshot order. *)
