(** SHA-256 (FIPS 180-4), implemented from scratch.

    This is the protocol's publicly known one-way, collision-resistant
    hash function [H]: it generates the 64-bit interface identifier of
    cryptographically generated addresses (CGAs) and compresses messages
    before signing.  The implementation processes 32-bit words in native
    ints and offers both one-shot and streaming interfaces. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
val update : ctx -> string -> unit
(** [update ctx s] absorbs the whole of [s]. *)

val finalize : ctx -> string
(** [finalize ctx] is the 32-byte digest.  The context must not be used
    afterwards. *)

val digest : string -> string
(** [digest s] is the 32-byte SHA-256 digest of [s]. *)

val digest_hex : string -> string
(** [digest_hex s] is [digest s] rendered as 64 lower-case hex digits. *)

val blocks_of_len : int -> int
(** Number of 64-byte compression blocks a one-shot digest of a
    [len]-byte message processes: [ceil ((len + 9) / 64)].  The perf
    registry uses it to account hash cost in architecture-independent
    units.  Raises [Invalid_argument] on a negative length. *)
