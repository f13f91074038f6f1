(** Cryptographically generated addresses — the paper's Figure 1.

    A node's site-local address is
    [fec0 :: H(PK, rn)]: a 10-bit site-local prefix, 38 zero bits, a
    16-bit subnet ID fixed to zero in a MANET, and a 64-bit interface
    identifier equal to the leading 64 bits of [H(PK || rn)], with [H]
    SHA-256 and [rn] encoded big-endian.  Because the
    interface identifier commits to the owner's public key, a host cannot
    claim an address without exhibiting a key pair that hashes to it, and
    ownership can be challenged by demanding a signature under the
    corresponding private key. *)

val generate : pk_bytes:string -> rn:int64 -> Address.t
(** The full site-local CGA of Figure 1. *)

val fresh : Manet_crypto.Prng.t -> pk_bytes:string -> int64 * Address.t
(** [fresh g ~pk_bytes] draws a random modifier [rn] and returns
    [(rn, generate ~pk_bytes ~rn)].  A host that loses the DAD race keeps
    its key pair and calls this again for a new address. *)

val verify : Address.t -> pk_bytes:string -> rn:int64 -> bool
(** [verify addr ~pk_bytes ~rn] checks both halves of the Figure 1
    layout: the address must sit under [fec0::/10] with a zero subnet ID,
    and its interface identifier must equal [H(PK, rn)].  This is check
    (i) of every AREP/RREQ/RREP verification in §3. *)

(** {2 Global prefixes via a gateway}

    Figure 1 notes that the 16-bit subnet ID "can be replaced by the
    gateway when the node is connecting to the Internet": a gateway
    advertises a 48-bit routing prefix and a subnet, and hosts form
    global CGAs under it with the same [H(PK, rn)] interface identifier
    — the ownership proof is unchanged. *)

val global_hi : routing_prefix:Address.t -> subnet:int -> int64
(** The upper 64 bits: the top 48 bits of [routing_prefix] with the
    16-bit [subnet] in bits 16..63.  Raises [Invalid_argument] if
    [subnet] exceeds 16 bits. *)

val generate_under : hi:int64 -> pk_bytes:string -> rn:int64 -> Address.t
(** A CGA under an arbitrary upper half (site-local or
    gateway-advertised global). *)

val verify_under : hi:int64 -> Address.t -> pk_bytes:string -> rn:int64 -> bool
(** Ownership check against a specific upper half. *)
