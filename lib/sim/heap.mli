(** A binary min-heap keyed by (float priority, int sequence number),
    structure-of-arrays.

    The event queue of the discrete-event engine.  Entries are ordered
    by priority, then by the sequence number the caller supplies, so a
    caller that hands out increasing numbers gets FIFO order among
    equal priorities, which keeps simulations deterministic.  The
    engine numbers every event it schedules, and reserves a block of
    consecutive numbers for the receivers of a fan-out frame, whose
    one entry it re-keys with {!replace_min} as each receiver is
    delivered.  Two live entries should not share a key.

    The layout is slot-indexed.  The heap order is kept in three
    unboxed arrays indexed by heap position — priority, sequence
    number and payload slot — and the sifts move only those.  Each
    entry's two payload halves (for the engine, the label id and the
    event closure) sit in arrays indexed by its slot: {!push} writes
    them once into a recycled slot and the pop reads them once, so
    neither {!push}, {!replace_min} nor {!drop_min} allocates or
    stores a pointer while sifting.  {!drop_min} overwrites the freed
    slot with the first payload ever pushed, so popped payloads are
    not kept alive.  The minimum entry is read field by field
    ({!min_prio}, {!min_fst}, {!min_snd}); callers check {!is_empty}
    first, and the accessors raise [Invalid_argument] on an empty
    heap. *)

type ('a, 'b) t

val create : unit -> ('a, 'b) t
val is_empty : ('a, 'b) t -> bool

val push : ('a, 'b) t -> float -> int -> 'a -> 'b -> unit
(** [push h p seq a b] inserts the entry [(a, b)] with key [(p, seq)]. *)

val min_prio : ('a, 'b) t -> float
(** Smallest priority.  Raises [Invalid_argument] if empty. *)

val min_fst : ('a, 'b) t -> 'a
(** First payload half of the minimum entry. *)

val min_snd : ('a, 'b) t -> 'b
(** Second payload half of the minimum entry. *)

val drop_min : ('a, 'b) t -> unit
(** Remove the minimum entry.  Raises [Invalid_argument] if empty. *)

val replace_min : ('a, 'b) t -> float -> int -> unit
(** [replace_min h p seq] gives the minimum entry the key [(p, seq)]
    and restores the heap order; its payload stays.  Raises
    [Invalid_argument] if the heap is empty or the new key is smaller
    than the old one (or [p] is NaN). *)
