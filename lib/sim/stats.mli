(** Metric collection for simulation runs.

    Two kinds of metrics: named integer counters (packets sent, signatures
    checked, ...) and named summaries of float observations (latencies,
    hop counts, ...) maintained with Welford's online algorithm so no
    sample buffer is needed. *)

type t

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

val create : unit -> t

(** {1 Keys}

    Counters and summaries are recorded by {e key}: a name bound once,
    at the call site's module initialisation, to its precomputed hash.
    Recording through a key hashes and compares no characters: a hit is
    one table probe on the precomputed hash and one pointer compare, and
    allocates nothing ({!incr} takes about 10–15 ns on a shared 2-vCPU
    host, against 35–40 ns for the string-hashed lookup it replaced).  Two keys made separately from the same name
    share one cell; the second joins the first on its first use, the one
    time its name's characters are compared.  Readers ({!get},
    {!counters}, {!summary}, ...) stay by name. *)

type key

val key : string -> key
(** [key name] binds [name] to its hash.  Make it once, at module
    initialisation, not per record. *)

val key_name : key -> string

(** Tables from keys to one value per name: the lookup {!incr} and
    {!observe} use, shared with the windowed metrics. *)
module Keyed : sig
  type 'a t

  val create : int -> 'a t

  val find : 'a t -> key -> 'a
  (** The value of the key's name.  Raises [Not_found] when the name
      has none yet.  Allocation-free once this key has been found
      before. *)

  val add : 'a t -> key -> 'a -> unit
  (** Binds the key's name, which must have no value yet. *)

  val find_name : 'a t -> string -> 'a option
  (** By name, for readers: a walk over the names. *)

  val sorted : 'a t -> (string * 'a) list
  (** Every name with its value, sorted by name ([String.compare]). *)

  val reset : 'a t -> unit
end

val incr : t -> key -> unit
(** [incr t k] adds 1 to [k]'s counter, creating it at zero first if
    needed. *)

val add : t -> key -> int -> unit
(** [add t k by] adds [by] to [k]'s counter, creating it at zero first
    if needed.  [add t k 0] creates a zero counter. *)

val get : t -> string -> int
(** Counter value; 0 when never incremented. *)

val counters : t -> (string * int) list
(** All counters, sorted by name ([String.compare], i.e. byte order).
    The sort is a {e determinism contract}, not a courtesy: exports
    built on this list (run reports, metrics CSV/Prometheus text) claim
    byte-identical output across replays of a seed, which would not
    survive iteration in [Hashtbl] bucket order — bucket order depends
    on insertion history and the unspecified [Hashtbl.hash].  Tested in
    [test_sim.ml]. *)

type snapshot = (string * int) list
(** A point-in-time copy of every counter, sorted by name — the raw
    material for windowed metrics (delivery ratio before/during/after a
    fault, per-phase overhead, ...). *)

val snapshot : t -> snapshot

val snapshot_get : snapshot -> string -> int
(** Counter value in a snapshot; 0 when absent. *)

val delta : before:snapshot -> after:snapshot -> snapshot
(** Per-counter difference [after - before], omitting zero entries. *)

val observe : t -> key -> float -> unit
(** Add one sample to [k]'s summary. *)

val summary : t -> string -> summary option
(** [None] when no sample was ever observed under [name]. *)

val summaries : t -> (string * summary) list
(** All summaries, sorted by name — same byte-order determinism
    contract as {!counters}, for the same exporters. *)

val percentile : t -> string -> float -> float option
(** [percentile t name q] estimates the [q]-quantile ([0..1]) of the
    samples observed under [name].  [None] when nothing was observed;
    raises [Invalid_argument] when [q] is outside [0, 1].

    Estimator: samples are kept in a 1024-slot reservoir.  While at most
    1024 samples have been observed the reservoir holds every one of
    them and the result is {e exact} — the nearest-rank order statistic
    [sorted.(round (q * (n - 1)))].  Beyond the cap the reservoir is a
    uniform random sample maintained with Vitter's Algorithm R, and the
    result is the same order statistic over that sample — an unbiased
    estimate whose error shrinks with the reservoir size.

    Replacement decisions come from a private LCG seeded with the FNV-1a
    hash of [name] (the key's precomputed hash) (not from the run PRNG and not from [Hashtbl.hash],
    whose value is unspecified across OCaml versions), so for a fixed
    observation sequence the estimate is bit-for-bit reproducible
    everywhere. *)

val clear : t -> unit
