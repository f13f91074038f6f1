(** A signature suite: the bundle of cryptographic operations every
    protocol module is written against.

    Public keys travel as opaque byte strings ([pk_bytes]) because the
    protocol hashes them into CGA addresses and attaches them to messages
    verbatim; only [verify] needs to understand their structure.  The
    suite also keeps running counters of sign/verify operations, which the
    overhead experiments (E2) report as "crypto ops per delivered
    packet". *)

type keypair = {
  pk_bytes : string;  (** serialized public key, as carried on the wire *)
  sign : string -> string;  (** sign a message with the private key *)
}

type op = Sign | Verify | Hash
(** Operation classes the suite accounts: signature creation, signature
    verification, and bare hashing charged by a caller through
    {!count_hash} (e.g. the CGA binding checks, which hash but neither
    sign nor verify). *)

type t = {
  scheme_name : string;
  generate : unit -> keypair;
  verify : pk_bytes:string -> msg:string -> signature:string -> bool;
  signature_size : int;  (** wire bytes per signature *)
  public_key_size : int;  (** wire bytes per public key *)
  mutable sign_count : int;
  mutable verify_count : int;
  mutable sha256_blocks : int;
      (** 64-byte compression blocks hashed across all operations
          (message digests for sign/verify plus {!count_hash} charges) *)
  mutable signs_reused : int;
      (** signatures charged through {!reuse_sign}: counted in
          [sign_count] but served from a signer's memo, so
          [sign_count - signs_reused] private-key operations actually
          ran *)
  mutable on_op : (op:op -> bytes:int -> unit) option;
      (** subscriber notified on every operation with the input size;
          set via {!set_on_op} (the perf registry uses it to attribute
          ops to the message kind and node under dispatch) *)
}

val rsa : ?bits:int -> Prng.t -> t
(** RSA suite (default 512-bit moduli).  Key generation draws from the
    given PRNG stream, so a seeded suite is fully reproducible.

    [verify] keeps a cache, private to the returned suite, from
    [pk_bytes] to the parsed key and its {!Rsa.prepared} context (or to
    "does not parse"), so a key seen before skips the parse and the
    [R^2 mod n] division.  Only the key work is cached, never a result:
    each call still runs the full {!Rsa.verify_prepared} check.  The
    cache holds at most 256 keys and is emptied when full. *)

val mock : Prng.t -> t
(** Idealized fast suite backed by {!Mock_sig}; its registry is private to
    the returned suite value. *)

val count_hash : t -> bytes:int -> unit
(** Charge the cost of hashing [bytes] bytes outside sign/verify (a CGA
    interface-identifier recomputation, say): adds
    [Sha256.blocks_of_len bytes] to [sha256_blocks] and notifies the
    {!t.on_op} subscriber with the {!Hash} op.  No op counter moves. *)

val reuse_sign : t -> bytes:int -> unit
(** Charge a signature over [bytes] bytes that the signer already holds
    (a hit in a node identity's signature memo) exactly as a computed one:
    [sign_count], [sha256_blocks] and the {!t.on_op} notification move
    as for a fresh {!Sign}.  Also bumps [signs_reused]. *)

val set_on_op : t -> (op:op -> bytes:int -> unit) option -> unit
(** Install (or clear) the per-operation subscriber. *)
