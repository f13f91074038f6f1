(** A node's cryptographic identity.

    A host owns a key pair for the lifetime of the simulation; its
    address is a CGA derived from the public key and a modifier [rn]
    that changes whenever DAD detects a collision (or when the host
    deliberately changes address, §3.2).  The key pair never needs to
    change with the address — that is the point of the [rn] field in
    Figure 1. *)

module Address = Manet_ipv6.Address
module Suite = Manet_crypto.Suite
module Prng = Manet_crypto.Prng
module Memo : Hashtbl.S with type key = string

type t = {
  node_id : int;  (** simulator node id *)
  suite : Suite.t;
  keypair : Suite.keypair;
  mutable rn : int64;
  mutable address : Address.t;
  mutable domain_name : string option;
  memo : string Memo.t;  (** payload -> signature, see {!sign} *)
}

val create :
  ?address:Address.t -> ?name:string -> Suite.t -> Prng.t -> node_id:int -> t
(** [create suite g ~node_id] generates a key pair and an initial CGA.
    [?address] overrides the CGA (used for the DNS server's well-known
    address); [?name] sets the desired domain name. *)

val refresh_address : t -> Prng.t -> unit
(** Draw a fresh [rn] and recompute the CGA — the §3.1 response to a
    detected duplicate. *)

val sign : t -> string -> string
(** Sign with the node's private key (counts into the suite's op
    counters).

    Signatures are memoised per identity: a payload this identity has
    signed before is answered from its memo without a private-key
    operation.  A hit is charged through {!Suite.reuse_sign}, so
    [sign_count], [sha256_blocks] and the [on_op] notification move
    exactly as for a computed signature; only [signs_reused] tells the
    two apart.  The memo holds at most 64 payloads and is emptied when
    full.  Signing is deterministic and the key pair never changes, and
    an address is part of the payload bytes it names, so an entry never
    goes stale, across {!refresh_address} included. *)

val pk_bytes : t -> string
