(** Structured event traces.

    The Figure 2 / Figure 3 reproductions are *traces*: the benchmark
    harness runs the protocol scenario and prints the recorded message
    sequence so it can be compared against the paper's diagrams.  Tracing
    is off by default; experiments that need it switch it on. *)

type entry = {
  time : float;
  node : int;  (** acting node, or -1 for global events *)
  event : string;  (** short tag, e.g. ["areq.flood"] *)
  detail : string;  (** free-form context *)
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] caps the ring: it holds at most [capacity] entries, and
    logging one more drops the oldest (default 100_000).  Raises
    [Invalid_argument] unless [capacity >= 1].

    The ring is one of two bounded views over one event store; the
    other is the capture view below.  Each view has its own switch,
    capacity, drop count and clear, and an event both views take is
    stored once.  An entry costs four words of the store (its time, its
    node and the two string pointers; the strings are the caller's), in
    chunks of 1,024 entries allocated as the log grows and let go once
    both views have passed them.  A view that is off keeps its entries,
    which would keep every entry logged after them; so once the store
    spans more than twice the entries the views hold plus a chunk, the
    next chunk boundary compacts it in place.  The store therefore
    holds at most about twice the two capacities' worth of entries,
    plus two chunks. *)

val enable : t -> unit
val disable : t -> unit
val is_enabled : t -> bool

val log : t -> time:float -> node:int -> event:string -> detail:string -> unit
(** Store one event for the ring only.  No-op while disabled. *)

val entries : t -> entry list
(** Oldest first. *)

val find : t -> event:string -> entry list
(** Entries whose [event] tag equals the argument, oldest first.  A
    scan of the ring: O(n) in the retained entries. *)

val fold : t -> init:'a -> f:('a -> entry -> 'a) -> 'a
(** Single pass over all entries, oldest first, without materialising
    the {!entries} list — what report generators should use. *)

val clear : t -> unit
(** Empties the ring and resets the {!dropped} count.  The capture view
    keeps its entries. *)

val length : t -> int

val dropped : t -> int
(** How many oldest entries the ring buffer has discarded since creation
    (or the last {!clear}) because [capacity] was reached. *)

val pp_entry : Format.formatter -> entry -> unit

val render : t -> string
(** Whole trace, one line per entry, preceded by a drop-count header
    line when any entries were discarded. *)

(** {1 Capture view}

    The second view of the store: the telemetry layer's JSONL event
    capture ([Obs.set_capture] in the telemetry layer).  It starts off, with
    capacity 200_000, and drops its oldest entry beyond capacity like
    the ring. *)

val set_capture : t -> bool -> unit
val is_capturing : t -> bool

val set_capture_capacity : t -> int -> unit
(** Sets the capture view's capacity; when the view holds more entries
    than that, its oldest are dropped down to it and counted in
    {!captured_dropped}.  Raises [Invalid_argument] unless the capacity
    is at least 1. *)

val log_shared :
  t -> time:float -> node:int -> event:string -> detail:string -> unit
(** Store one event for every view that is on: the ring when enabled,
    the capture view when capturing.  No-op when both are off. *)

val fold_captured : t -> init:'a -> f:('a -> entry -> 'a) -> 'a
(** The capture view's entries, oldest first. *)

val captured_length : t -> int

val captured_dropped : t -> int
(** How many oldest entries the capture view has discarded because its
    capacity was reached. *)
