(** Binary wire codec for {!Messages}.

    The simulator itself passes messages by value and only charges
    modelled sizes ({!Wire}) through {!encoded_size}.  The encoder and
    decoder behind it are the {!Oracle}: the property tests pin
    {!encoded_size} to the length of a real encoding, and fuzz the
    parser.

    Format: a 1-byte message tag, then the fields of the variant in
    declaration order — addresses as 16 network-order bytes, integers
    big-endian (u32 for sequence numbers and sizes, u64 for challenges
    and CGA modifiers), strings and signatures u16-length-prefixed,
    routes and SRRs u16-count-prefixed, options as a presence byte.
    [sent_at] timestamps are carried as IEEE-754 bits so decode is the
    exact inverse of encode (a field a real deployment would drop).

    The decoder never raises on malformed input: it returns
    [Error reason] on truncation, trailing garbage, unknown tags or
    out-of-range counts. *)

val encoded_size : Messages.t -> int
(** [String.length (Oracle.encode m)], summed from the field lengths
    without building the encoding, so it allocates nothing.  Raises the
    same [Invalid_argument] as {!Oracle.encode} on an over-long
    field. *)

(** The references {!encoded_size} and the wire format are tested
    against. *)
module Oracle : sig
  val encode : Messages.t -> string
  (** Raises [Invalid_argument] when a string or list is too long for
      its u16 length prefix (more than 0xFFFF bytes or elements). *)

  val decode : string -> (Messages.t, string) result

  val equal_message : Messages.t -> Messages.t -> bool
  (** Structural equality over messages (addresses compared by
      value). *)
end
