(** Deterministic pseudo-random number generation for simulations.

    The generator is xoshiro256** seeded through splitmix64, which gives
    high-quality 64-bit output streams that are reproducible from a single
    integer seed.  Determinism matters here: every experiment in the
    benchmark harness is replayable from its seed, and independent
    subsystems (topology, mobility, traffic, crypto) draw from streams
    {!split} off a common root so that changing one subsystem's consumption
    pattern does not perturb the others. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator whose entire future output is a
    function of [seed]. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator statistically
    independent of [g]'s subsequent output.  Used to give each subsystem
    its own stream. *)

val bits64 : t -> int64
(** [bits64 g] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bytes : t -> int -> string
(** [bytes g n] is an [n]-byte uniformly random string. *)

val shuffle : t -> 'a array -> unit
(** [shuffle g a] permutes [a] in place (Fisher-Yates). *)

val exponential : t -> mean:float -> float
(** [exponential g ~mean] samples an exponential distribution; used for
    Poisson traffic inter-arrival times. *)
