(** 128-bit IPv6 addresses.

    Stored as two 64-bit halves.  Textual forms follow RFC 4291 syntax
    (an IPv4 dotted-quad tail is accepted on input) and RFC 5952
    canonical output: longest run of two or more zero groups compressed
    to [::], leftmost on ties, lower-case hex without leading zeros.
    Output is always eight hex groups (or fewer around [::]); an
    IPv4-mapped address prints its last 32 bits as two hex groups, never
    dotted-quad.  The
    module also carries the protocol's well-known constants: the
    [fec0::/10] site-local prefix the paper builds CGAs under and the
    three reserved DNS-discovery addresses of §2.4. *)

type t = { hi : int64; lo : int64 }
(** [hi] covers bytes 0-7 (network order), [lo] bytes 8-15. *)

val make : hi:int64 -> lo:int64 -> t
val compare : t -> t -> int
val equal : t -> t -> bool

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by an address, over {!equal} and a multiplicative hash
    of the two halves: a lookup allocates nothing and never reaches the
    polymorphic hash.  Protocol state keyed by a peer or destination
    address uses it rather than the address's byte string; {!compare}
    orders addresses exactly as [String.compare] orders their
    {!to_bytes}, so sorting a table's keys by it keeps a byte-sorted
    order. *)

type seq_key = { addr : t; seq : int }
(** An address joined to a sequence number: a data flow's [(src, seq)]
    or [(dst, seq)], a discovery's [(origin, seq)]. *)

module Seq_tbl : Hashtbl.S with type key = seq_key
(** Tables keyed by {!seq_key}, with a monomorphic, allocation-free
    equality and hash mixed like [Flood.Ktbl]'s.  Two keys share a
    binding exactly when their addresses are {!equal} and their
    sequence numbers are equal. *)

(* manetcheck: allow dead-export — RFC 4291 constant; part of the
   address-type API surface even when no current caller needs it. *)
val unspecified : t
(** [::] — the source of a host that does not yet have an address. *)

(* manetcheck: allow dead-export — RFC 4291 constant, same rationale as
   [unspecified]. *)
val loopback : t
(** [::1]. *)

val of_groups : int array -> t
(** [of_groups g] builds an address from eight 16-bit groups.
    Raises [Invalid_argument] unless [g] has length 8 with all values in
    [0, 0xffff]. *)

val to_groups : t -> int array

val of_bytes : string -> t
(** [of_bytes s] for a 16-byte network-order string. *)

val to_bytes : t -> string

val of_string : string -> (t, string) result
(** Parses RFC 4291 text (full form, [::] compression, IPv4-mapped
    dotted-quad tail).  Returns [Error reason] on malformed input. *)

val of_string_exn : string -> t
(** Like {!of_string}; raises [Invalid_argument]. *)

val to_string : t -> string
(** RFC 5952 canonical form, as described above. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s text without building an intermediate
    string; the renderer behind {!to_string} and {!pp}. *)

val pp : Format.formatter -> t -> unit

(* manetcheck: allow dead-export — the paper's Figure 1 site prefix;
   kept as the documented constant behind the default topology. *)
val site_local_prefix : t
(** [fec0::] — the 10-bit prefix of the paper's Figure 1 layout. *)

val is_site_local : t -> bool
(** True when the top 10 bits are [1111 1110 11]. *)

val matches_prefix : t -> prefix:t -> len:int -> bool
(** [matches_prefix a ~prefix ~len] checks the first [len] bits. *)

val dns_server_1 : t
(** [fec0:0:0:ffff::1], the first well-known DNS discovery address. *)

val dns_server_2 : t
val dns_server_3 : t

val interface_id : t -> int64
(** The low 64 bits — the CGA hash field of Figure 1. *)
