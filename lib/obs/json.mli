(** A small, dependency-free JSON codec for the observability layer.

    The printer is {e canonical}: a given value always renders to the
    same bytes (fields keep caller order, floats go through one fixed
    formatter), which is what makes the JSONL trace export byte-stable
    across replays of the same seed.  The parser accepts standard JSON
    with the one restriction that [\u] escapes above U+00FF are
    rejected (our own exports never produce them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse} with an offset-prefixed description. *)

val to_string : t -> string
val to_buffer : Buffer.t -> t -> unit

val float_str : float -> string
(** The canonical float rendering used by the printer: integral values
    with magnitude below 1e15 print as ["<n>.0"], everything else via
    [%.12g].  Raises [Invalid_argument] on NaN or the infinities — they
    have no JSON encoding, and a canonical printer must fail loudly
    rather than emit unparseable bytes.  {!to_string} / {!to_buffer}
    inherit this behaviour for [Float] atoms. *)

val add_float : Buffer.t -> float -> unit
(** [add_float buf x] appends [float_str x] to [buf] without building
    the string.  Values with [1e-4 <= |x| < 1e11] whose 12-digit
    rounding is decided by one scaled multiply never reach [Printf];
    the rest take [Printf.sprintf "%.12g"].  The bytes are the same
    either way. *)

val float_length : float -> int
(** [float_length x] is [String.length (float_str x)], computed without
    rendering [x] whenever {!add_float} would take its fast path.
    Raises as {!float_str} does. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [string_of_int n]. *)

val int_length : int -> int
(** [int_length n] is [String.length (string_of_int n)], without the
    string. *)

val escape_to : Buffer.t -> string -> unit
(** [escape_to buf s] appends [s] as a quoted JSON string.  The double
    quote and the backslash are backslash-escaped; newline, carriage
    return and tab take their two-character escapes; other bytes below
    0x20 become [\u00XX].  Every other byte is copied as is. *)

val escaped_length : string -> int
(** The number of bytes {!escape_to} appends for a string, quotes
    included, counted without rendering it. *)

val parse : string -> t
(** Parse one complete JSON document.  Raises {!Parse_error}. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** Accepts both [Float] and [Int]. *)

val to_string_opt : t -> string option
val to_list_opt : t -> t list option
