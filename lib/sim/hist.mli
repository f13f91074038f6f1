(** Log₂-bucketed histogram of non-negative integer samples.

    The bucket table is fixed: bucket 0 holds exactly the value 0 and
    bucket [k >= 1] holds the range [2^(k-1) .. 2^k - 1], so every
    possible sample has one home bucket and exports are byte-stable —
    the same multiset of samples renders identically regardless of
    arrival order or how a sweep was split across domains.

    Used by the perf registry (lib/obs/perf.ml) for neighbour-scan
    lengths, delivery fan-out and per-node crypto-op distributions.
    Lives in [lib/sim] so the engine and net layers can feed it without
    depending on the observability library above them. *)

type t

val create : unit -> t
(** Empty histogram; all buckets zero. *)

val add : t -> int -> unit
(** Record one sample.  Raises [Invalid_argument] on a negative value. *)

val count : t -> int
(** Total samples recorded. *)

val sum : t -> int
val min_value : t -> int option
val max_value : t -> int option

val mean : t -> float option
(** [None] when empty. *)

val percentile : t -> float -> int option
(** [percentile t q] estimates the [q]-quantile ([0.0 .. 1.0]) by
    nearest rank over the bucket table, interpolating linearly inside
    the crossing bucket.  Integer arithmetic only, so the estimate is
    byte-stable across replays and arrival orders.  [None] when empty;
    raises [Invalid_argument] when [q] is outside [0, 1]. *)

val nonzero_buckets : t -> (int * int * int) list
(** [(lo, hi, count)] for every non-empty bucket, in ascending value
    order — the stable wire form the exports render. *)
