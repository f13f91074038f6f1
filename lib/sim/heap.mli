(** A binary min-heap keyed by float priority, structure-of-arrays.

    The event queue of the discrete-event engine.  Entries with equal
    priority pop in insertion order (a monotone sequence number breaks
    ties), which keeps simulations deterministic.

    The layout is slot-indexed.  The heap order is kept in three
    unboxed arrays indexed by heap position — priority, sequence
    number and payload slot — and the sifts move only those.  Each
    entry's two payload halves (for the engine, the label id and the
    event closure) sit in arrays indexed by its slot: {!push} writes
    them once into a recycled slot and the pop reads them once, so
    neither {!push} nor {!drop_min} allocates or stores a pointer
    while sifting.  {!drop_min} overwrites the freed slot with the
    first payload ever pushed, so popped payloads are not kept alive.
    The minimum entry is read field by field ({!min_prio},
    {!min_fst}, {!min_snd}) and removed with {!drop_min}; callers
    check {!is_empty} first, and the accessors raise
    [Invalid_argument] on an empty heap. *)

type ('a, 'b) t

val create : unit -> ('a, 'b) t
val is_empty : ('a, 'b) t -> bool
val size : ('a, 'b) t -> int

val push : ('a, 'b) t -> float -> 'a -> 'b -> unit
(** [push h p a b] inserts the entry [(a, b)] with priority [p]. *)

val min_prio : ('a, 'b) t -> float
(** Smallest priority.  Raises [Invalid_argument] if empty. *)

val min_fst : ('a, 'b) t -> 'a
(** First payload half of the minimum entry. *)

val min_snd : ('a, 'b) t -> 'b
(** Second payload half of the minimum entry. *)

val drop_min : ('a, 'b) t -> unit
(** Remove the minimum entry.  Raises [Invalid_argument] if empty. *)
