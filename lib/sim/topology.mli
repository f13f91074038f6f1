(** Node placement on a 2-D plane.

    Positions are mutable (mobility models update them); neighbourhood is
    the unit-disk model: two nodes hear each other iff their distance is
    at most the radio range.  Neighbour queries go through a uniform
    grid of range-sized cells (see {!candidates}), so they cost
    O(degree), not O(N). *)

type t

val create : n:int -> width:float -> height:float -> t
(** [n] nodes, all at the origin, on a [width] x [height] field. *)

val chain : n:int -> spacing:float -> t
(** Nodes in a line at [spacing] intervals: node [i] at [(i*spacing, 0)].
    With range in [(spacing, 2*spacing)) this forces an [n-1]-hop path. *)

val grid : rows:int -> cols:int -> spacing:float -> t
(** Row-major grid placement; node [r*cols + c] at [(c*s, r*s)]. *)

val size : t -> int
val width : t -> float
val height : t -> float

val position : t -> int -> float * float
val set_position : t -> int -> float * float -> unit

val neighbors : t -> range:float -> int -> int list
(** Nodes within [range] of the given node (excluding itself), in
    ascending id order.  Allocates the list; the per-frame radio path
    uses {!candidates} instead. *)

val in_range : t -> range:float -> int -> int -> bool
(** [in_range t ~range i j]: [i <> j] and the Euclidean distance
    between the two positions is at most [range], computed without
    allocating. *)

val candidates : t -> range:float -> int -> int array -> int
(** [candidates t ~range src buf] writes into [buf] every node of the
    3x3 block of neighbour-index cells around [src] ([src] included),
    in ascending id order, and returns how many it wrote.  Every node
    within [range] of [src] is among them, so filtering them through
    {!in_range} yields exactly {!neighbors}, in the same order.  [buf]
    needs room for {!size} entries.  Cells are at least [range] wide;
    the index is built at the first query and rebuilt at the first
    query after {!set_position} or a change of [range], so the call
    costs O(nodes in the block) and allocates nothing between
    rebuilds.  A negative or NaN [range] yields no candidates. *)

exception
  No_connected_placement of { n : int; range : float; attempts : int }
(** Raised by {!random_connected} when no connected placement was found:
    the requested node count / radio range / field size make connectivity
    overwhelmingly unlikely.  Carries the node count, the radio range,
    and how many placements were tried. *)

val random_connected :
  Manet_crypto.Prng.t -> n:int -> width:float -> height:float -> range:float -> t
(** Resamples uniformly random placements until the unit-disk graph
    over all nodes is a single component.  Raises
    {!No_connected_placement} after 1,000 failed placements. *)
