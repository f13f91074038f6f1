(** Wire-size model of every protocol message.

    The simulator never serializes messages on the hot path, but every
    transmission is charged the exact number of bytes the {!Binary} codec
    produces for that message, plus a 40-byte IPv6 header and minus the
    simulation-only metadata (the [sent_at] float of Data/Ack).  The
    codec length is derived from field lengths ({!Binary.encoded_size})
    and pinned to [String.length (Binary.Oracle.encode m)] by a property test
    over every message variant.  The
    overhead experiment (E2) and the Table 1 regeneration therefore
    report precisely the bytes a deployment of this codec would put on
    the air — including the fact that protocols carrying empty signature
    fields (plain DSR, SRP's per-hop records) pay only their length
    prefixes. *)

val size_of : Messages.t -> int
(** Bytes on the wire for one transmission of the message.  One
    intermediate hop adds 28 bytes plus its signature and key to an
    RREQ's secure route record: a 16-byte address, two u16 length
    prefixes and an 8-byte modifier. *)
