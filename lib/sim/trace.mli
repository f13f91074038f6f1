(** Structured event traces.

    The Figure 2 / Figure 3 reproductions are *traces*: the benchmark
    harness runs the protocol scenario and prints the recorded message
    sequence so it can be compared against the paper's diagrams.  The
    same log is the telemetry layer's event sink: [Obs.log] and
    [Engine.log] write to it, and the trace-jsonl export reads it.
    Tracing is off by default; experiments and exports that need it
    switch it on. *)

type entry = {
  time : float;
  node : int;  (** acting node, or -1 for global events *)
  event : string;  (** short tag, e.g. ["areq.flood"] *)
  detail : string;  (** free-form context *)
}

type t

val create : ?capacity:int -> unit -> t
(** An empty log that is off.  [capacity] bounds it: it holds at most
    [capacity] entries, and logging one more drops the oldest (default
    200_000).  Raises [Invalid_argument] unless [capacity >= 1].

    An entry costs four words (its time, its node and the two string
    pointers; the strings are the caller's), in chunks of 1,024 entries
    allocated as the log grows and let go once every entry in them has
    been dropped, so the log holds at most [capacity] entries plus two
    chunks. *)

val set_capacity : t -> int -> unit
(** Sets the capacity; when the log holds more entries than that, its
    oldest are dropped down to it and counted in {!dropped}.  Raises
    [Invalid_argument] unless the capacity is at least 1. *)

val enable : t -> unit

val disable : t -> unit
(** Stops logging; the entries logged so far are kept. *)

val is_enabled : t -> bool

val log : t -> time:float -> node:int -> event:string -> detail:string -> unit
(** Store one event.  No-op while disabled. *)

val fold : t -> init:'a -> f:('a -> entry -> 'a) -> 'a
(** Oldest first. *)

val entries : t -> entry list
(** Oldest first. *)

val length : t -> int

val dropped : t -> int
(** How many oldest entries the log has discarded because its capacity
    was reached, since creation or the last {!clear}. *)

val clear : t -> unit
(** Empties the log and resets its drop count. *)

val pp_entry : Format.formatter -> entry -> unit

val render : t -> string
(** Whole trace, one line per entry, oldest first, preceded by a
    drop-count header line when the log has discarded oldest entries
    at capacity since creation or the last {!clear}. *)
