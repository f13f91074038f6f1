(** Binary wire codec for {!Messages}.

    The simulator itself passes messages by value and only charges
    modelled sizes ({!Wire}) through {!encoded_size}.  The encoder and
    decoder behind it are the {!Oracle}: the property tests pin
    {!encoded_size} to the length of a real encoding, and fuzz the
    parser.

    Nothing here names a message constructor.  Each constructor's entry in
    {!Messages}' table ({!Messages.desc}) gives its wire tag and its
    ordered fields, each with a {!Messages.codec}; encode, size, decode
    and equality are one interpreter each over those codecs and one walk
    over an entry's fields.  Decode finds the entry by its tag and feeds
    the values it reads to the entry's curried constructor, so it cannot
    disagree with encode.

    Format: the 1-byte wire tag, then the entry's fields in order —
    addresses as 16 network-order bytes, integers big-endian (u32 for
    sequence numbers and sizes, u64 for challenges and CGA modifiers,
    one byte for AODV hop counts and bounds), strings and signatures
    u16-length-prefixed, lists (routes, SRRs, AODV's unreachable pairs)
    u16-count-prefixed, options as a presence byte.  [sent_at]
    timestamps are carried as IEEE-754 bits so decode is the exact
    inverse of encode (a field a real deployment would drop).

    The decoder never raises on malformed input: it returns
    [Error reason] on truncation, trailing garbage, unknown tags, bad
    presence or boolean bytes, or a count whose elements cannot fit in
    the bytes left — checked before anything is allocated. *)

val encoded_size : Messages.t -> int
(** [String.length (Oracle.encode m)], summed from the field lengths
    without building the encoding, so it allocates nothing: each entry's
    fixed-width fields are one constant, and only its strings, options
    and lists are read.  Raises the same [Invalid_argument] as
    {!Oracle.encode} on an over-long string or list.  It does not read
    fixed-width values, so unlike {!Oracle.encode} it does not reject an
    out-of-range u8 or u32. *)

(** The references {!encoded_size} and the wire format are tested
    against. *)
module Oracle : sig
  val encode : Messages.t -> string
  (** Raises [Invalid_argument] when a string or list is too long for
      its u16 length prefix (more than 0xFFFF bytes or elements), or an
      integer is outside its u8 or u32 field's range: a value that would
      not decode to itself. *)

  val decode : string -> (Messages.t, string) result
  (** Accepts what {!encode} writes, lists of up to 0xFFFF elements
      included. *)

  val equal_message : Messages.t -> Messages.t -> bool
  (** Equality over messages, field by field through each field's codec
      (addresses compared by value, [sent_at] by {!Float.equal}) — not
      by comparing encodings, so the roundtrip property is not
      circular. *)
end
