(** Textbook RSA, built on {!Bignum}.

    The paper writes [\[msg\]_XSK] for "the ciphertext of message [msg]
    encrypted by host X's private key" and verifies by decrypting with the
    public key and comparing.  That is exactly RSA signing with message
    recovery; we implement it as [sign msg = H(msg)^d mod n] and
    [verify] recomputes [H(msg)] and compares against [sig^e mod n].

    Keys are deliberately small by real-world standards (the default used
    by simulations is 512 bits): the protocol logic being reproduced
    depends only on the algebra, not on 2048-bit security margins, and
    small keys keep thousand-node simulations tractable. *)

type public_key = { n : Bignum.t; e : Bignum.t }
type private_key

val generate : Prng.t -> bits:int -> public_key * private_key
(** [generate g ~bits] creates a key pair with a [bits]-bit modulus.
    [bits] must be at least 32. *)

val public_key_to_bytes : public_key -> string
(** Length-prefixed big-endian encoding of [(n, e)]; this is the [PK]
    attached to protocol messages and hashed into CGA addresses. *)

val public_key_of_bytes : string -> public_key option
(** Inverse of {!public_key_to_bytes}; [None] on malformed input. *)

val sign : private_key -> string -> string
(** [sign sk msg] is [H(msg)^d mod n], padded to the modulus size.
    Computed with the Chinese Remainder Theorem (mod p and mod q
    separately, recombined with Garner's formula). *)

val sign_no_crt : private_key -> string -> string
(** The direct [m^d mod n] path, kept for testing and benchmarking the
    CRT speedup; produces identical signatures. *)

val verify : public_key -> msg:string -> signature:string -> bool
(** [verify pk ~msg ~signature] holds when [signature] is exactly
    {!modulus_bytes} long, is below [n] read as a big-endian integer, and
    raised to [e] modulo [n] equals [H(msg) mod n].  Same as
    [verify_prepared (prepare pk)]. *)

type prepared
(** A public key with what every verify under it needs worked out once:
    its modulus size and its Montgomery context (the [R^2 mod n]
    division).  Holds no per-message state, so one value serves any
    number of verifies. *)

val prepare : public_key -> prepared
(** [prepare pk] builds the verify context for [pk]. *)

val verify_prepared : prepared -> msg:string -> signature:string -> bool
(** [verify_prepared (prepare pk)] accepts exactly what [verify pk]
    accepts: every call still runs the length check, the [s < n] check,
    the modular exponentiation and the digest comparison. *)

val modulus_bytes : public_key -> int
(** Size of the modulus (and thus of signatures) in bytes. *)
