(** Flood provenance: per-flood propagation accounting for AREQ and
    RREQ broadcasts.

    Every flood origin (a DAD address request or a route request, plain
    or secured) registers under the protocol's own dedup key, a typed
    {!key} record — AREQ: (sip, seq, ch), RREQ: (sip, seq) with
    [ch = 0L] — whose [kind] keeps the two key spaces apart, and is
    assigned a dense id in first-origination order.  Both the key and
    the order are pure functions of the seeded event sequence, so ids,
    counters and the exports below are byte-identical across same-seed
    replays and sweep domain counts without any wire-format change.

    Registration ({!handle}) returns the flood's {!handle}; the four
    recording points ({!sent}, {!received}, {!duplicate}, {!verified})
    take it, so a protocol that keeps the handle in its own seen-table
    records a duplicate copy without a second registry lookup, and no
    recording point builds a string.

    Per flood the registry accounts the propagation tree: copies sent
    (origin + rebroadcasts), copies received, duplicates suppressed by
    the protocols' seen-tables, verification events (secure RREQ copies
    cryptographically checked, per node), distinct nodes reached with
    first-seen time / parent / hop distance, hop radius, and completion
    (last-activity) time.

    {b Cost model.}  The tree is always kept; there is no switch.  Per
    flood it is two arrays indexed by node id: a flat float array of
    first-seen times and one packed int per node (parent, hop distance,
    verify count), 0 for a node not reached — two words per (flood,
    node) slot, against about a dozen for a boxed cell in a per-flood hash
    table.  A flood's arrays are created as wide as the largest node id
    any flood has recorded, so on a bootstrap of N nodes every flood
    but the first costs 2N words plus its fixed record; a flood that
    reaches few nodes of a wide network pays the same 2N.  Node ids and
    parents are limited to [0 .. 2{^21} - 2], hop distances to
    [2{^20} - 2] and per-node verify counts to [2{^21} - 1]; recording
    past a limit raises [Invalid_argument].

    Two derived metrics are first-class because ROADMAP item 3's
    verification cache is driven by them:

    - [duplicate_verifies_per_flood]: mean verifications per flood
      beyond one per verifying node — the redundant crypto work a
      (PK, rn, digest)-keyed cache would eliminate;
    - [flood_redundancy_ratio]: copies received per distinct node
      reached — the broadcast-storm factor items 1 and 5 chart.

    All recording is counter-pure (no clock reads, no PRNG draws, no
    event scheduling): keeping it on perturbs nothing. *)

module Engine = Manet_sim.Engine

type t

type kind = Areq | Rreq

val kind_str : kind -> string

type key = { kind : kind; hi : int64; lo : int64; seq : int; ch : int64 }
(** A flood's dedup key: the source address's two halves ([hi], [lo]),
    its sequence number and, for an AREQ, the attempt's challenge
    (RREQ keys use [ch = 0L]).  Keys of different kinds never compare
    equal. *)

module Ktbl : Hashtbl.S with type key = key
(** Tables over flood keys with a monomorphic, allocation-free equality
    and hash, for state that stores a value per flood (the protocols'
    per-request reply counts). *)

val create : Engine.t -> t
(** Fresh registry; sim times are read from the engine's clock. *)

(** {1 Recording} *)

type handle
(** One registered flood. *)

val handle : t -> key:key -> origin:int -> handle
(** The flood registered under [key], registering it first — with
    [origin] as its origin node and the current sim time as its start —
    when the key is new.  The originator calls it before the first copy
    is sent; a receiver of a copy of an unknown flood passes the sender,
    so accounting never raises. *)

val sent : t -> handle -> unit
(** One copy broadcast (origination or rebroadcast). *)

val received : t -> handle -> node:int -> src:int -> hops:int -> unit
(** One copy delivered to [node] from [src] at hop distance [hops],
    counted before any dedup decision.  The first copy per node records
    the propagation-tree edge (first-seen time, parent, hops). *)

val duplicate : t -> handle -> unit
(** The protocol's seen-table suppressed a received copy. *)

val verified : t -> handle -> node:int -> unit
(** [node] cryptographically verified one received copy. *)

(** {1 Seen sets} *)

(** A protocol's per-node dedup state: the set of floods this node has
    seen.  Open-addressed over one int array (the key's hash above the
    flood id), at most 3/4 full, so an entry costs at most 8/3 words
    right after a doubling; a lookup allocates nothing.  The set lives
    in the protocol's node state, so a node that is rebuilt starts with
    an empty one. *)
module Seen : sig
  type registry := t
  type t

  val create : unit -> t

  val add : t -> handle -> unit
  (** Idempotent. *)

  val mem : t -> handle -> bool

  val find : registry -> t -> key -> handle
  (** The member flood registered under [key] in [registry] (which must
      be the registry that returned every member's handle).  Raises
      [Not_found] when no member has that key. *)
end

(** {1 Read side} *)

type summary = {
  id : int;
  kind : kind;
  origin : int;
  start : float;
  last : float;
  sent : int;
  received : int;
  duplicates : int;
  verifies : int;
  verify_nodes : int;
  reached : int;
  hop_radius : int;
}

val summaries : t -> summary list
(** All floods in id order. *)

val tree : t -> id:int -> (int * (float * int * int * int)) list
(** Propagation-tree cells of one flood, sorted by node:
    [(node, (first_seen, parent, hops, verifies))].  [parent = -1] when
    the sender was unknown. *)

val flood_count : t -> int
val duplicate_verifies_per_flood : t -> float
val flood_redundancy_ratio : t -> float

val summary_json : t -> Json.t
(** Aggregate object (counts, totals, the two derived metrics) —
    appended into the perf export's deterministic section as the
    ["floods"] member. *)

val append_jsonl : Buffer.t -> t -> unit
(** One ["flood"] record line per flood in id order, then one
    ["flood_summary"] line — the flood tail of the timeline JSONL. *)
