(** Wire-size model of every protocol message.

    The simulator never serializes messages on the hot path, but every
    transmission is charged the exact number of bytes the {!Binary} codec
    produces for that message, plus a 40-byte IPv6 header and minus the
    simulation-only metadata (the [sent_at] float of Data/Ack).  The
    codec length is derived from field lengths ({!Binary.encoded_size})
    and pinned to [String.length (Binary.encode m)] by a property test
    over every message variant.  The
    overhead experiment (E2) and the Table 1 regeneration therefore
    report precisely the bytes a deployment of this codec would put on
    the air — including the fact that protocols carrying empty signature
    fields (plain DSR, SRP's per-hop records) pay only their length
    prefixes. *)

val ipv6_header : int

(* manetcheck: allow dead-export — wire-format contract: the per-field
   sizes are the documented vocabulary behind [size_of]; exporting them
   lets experiments compute overheads without re-deriving constants. *)
val addr_size : int
(* manetcheck: allow dead-export — wire-format contract (see addr_size). *)
val seq_size : int
(* manetcheck: allow dead-export — wire-format contract (see addr_size). *)
val challenge_size : int
(* manetcheck: allow dead-export — wire-format contract (see addr_size). *)
val rn_size : int

val size_of : Messages.t -> int
(** Bytes on the wire for one transmission of the message. *)

val srr_entry_size : sig_size:int -> pk_size:int -> int
(** Bytes one intermediate hop adds to an RREQ's secure route record,
    given the signature scheme's sizes. *)
