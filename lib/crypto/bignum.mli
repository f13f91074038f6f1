(** Arbitrary-precision signed integers.

    The sealed container has no [zarith], so the RSA substrate is built on
    this from-scratch implementation: sign-magnitude representation over
    26-bit limbs (products of two limbs fit comfortably in OCaml's 63-bit
    native ints), schoolbook and Karatsuba multiplication, Knuth
    algorithm-D division, and the number-theoretic operations RSA needs
    (modular exponentiation, inverse, Miller-Rabin primality, prime
    generation). *)

type t
(** An immutable arbitrary-precision integer. *)

val zero : t
val one : t
val two : t

val of_int : int -> t
val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits in a native int. *)

val of_string : string -> t
(** [of_string s] parses an optionally-signed decimal literal.
    Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string
(** Decimal rendering, with a leading ['-'] when negative. *)

val of_bytes_be : string -> t
(** [of_bytes_be s] interprets [s] as an unsigned big-endian integer. *)

val to_bytes_be : ?pad:int -> t -> string
(** [to_bytes_be ?pad n] is the big-endian byte encoding of the absolute
    value of [n], left-padded with zero bytes to at least [pad] bytes. *)

val of_hex : string -> t
(** [of_hex s] parses an unsigned hexadecimal literal (no ["0x"] prefix). *)

val to_hex : t -> string
(** Lower-case hexadecimal rendering of the absolute value. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
(** [-1], [0] or [1]. *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is truncating division: quotient rounded toward zero,
    remainder carrying the sign of [a].  Raises [Division_by_zero]. *)

val mod_ : t -> t -> t
(** [mod_ a m] is the least non-negative residue of [a] modulo [m];
    [m] must be positive. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift of the magnitude; sign preserved. *)

val testbit : t -> int -> bool
(** [testbit n i] is bit [i] of the magnitude of [n]. *)

val numbits : t -> int
(** Number of significant bits of the magnitude; [numbits zero = 0]. *)

val gcd : t -> t -> t
val egcd : t -> t -> t * t * t
(** [egcd a b] for non-negative [a], [b] is [(g, x, y)] with
    [a*x + b*y = g = gcd a b]. *)

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1], for positive [m]. *)

val mod_pow : t -> t -> t -> t
(** [mod_pow b e m] is [b^e mod m] for non-negative [e] and positive [m].
    Odd moduli of 2 to 500 limbs (the RSA case) take a Montgomery path: a
    left-to-right sliding window of width 4 over a table of odd powers,
    with product-scanning Montgomery multiplication and a dedicated
    squaring that write into per-call scratch buffers.  Everything else
    uses square-and-multiply with division. *)

type mod_ctx
(** A modulus with its reduction constants precomputed, for callers that
    exponentiate modulo the same number many times (an RSA key's primes,
    a Miller-Rabin candidate). *)

val mod_ctx : t -> mod_ctx
(** [mod_ctx m] prepares the positive modulus [m]; for a Montgomery
    modulus this is one division to find [R^2 mod m].  Raises
    [Invalid_argument] when [m <= 0]. *)

val mod_pow_ctx : mod_ctx -> t -> t -> t
(** [mod_pow_ctx (mod_ctx m) b e = mod_pow b e m]. *)

val mod_pow_generic : t -> t -> t -> t
(** The division-based path, exposed so tests and benchmarks can compare
    it against the Montgomery implementation.  Same contract as
    {!mod_pow} except that the modulus checks are the caller's job. *)

val rem_int : t -> int -> int
(** [rem_int n d] is [|n| mod d] for [0 < d <= 2^36], without
    allocating. *)

val random : Prng.t -> bits:int -> t
(** Uniform non-negative integer of at most [bits] bits. *)

val random_below : Prng.t -> t -> t
(** [random_below g n] is uniform in [\[0, n)] for positive [n]. *)

val is_probable_prime : ?rounds:int -> Prng.t -> t -> bool
(** Miller-Rabin test; deterministic trial division by small primes first.
    Error probability at most [4^-rounds] (default 24 rounds). *)

val generate_prime : Prng.t -> bits:int -> t
(** A random probable prime with exactly [bits] significant bits
    (top bit set).  [bits] must be at least 2. *)

val pp : Format.formatter -> t -> unit
