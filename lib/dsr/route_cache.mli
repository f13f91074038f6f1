(** DSR route cache.

    Maps a destination to the source routes discovered for it.  A route
    is the list of {e intermediate} addresses (excluding the owner and the
    destination).  Entries carry caller-defined metadata ['a]: the plain
    DSR baseline stores nothing, the secure protocol stores the
    destination's signed endorsement so cached-route replies (CREP) can
    prove provenance.

    Invalidation follows DSR route maintenance: a RERR for link
    [(a, b)] purges every entry whose expanded path (owner, route,
    destination) traverses that link, and a node blamed by the credit
    system can be purged from all routes at once. *)

module Address = Manet_ipv6.Address

type 'a entry = {
  route : Address.t list;  (** intermediates, owner to destination order *)
  meta : 'a;
  added_at : float;
  mutable last_used : float;
}

type 'a t

val create : ?capacity_per_dst:int -> unit -> 'a t
(** [capacity_per_dst] bounds routes kept per destination (default 4);
    the oldest-used entry is evicted first, where "used" means inserted
    or refreshed by {!insert} ({!best} does not touch [last_used]). *)

val insert :
  'a t -> dst:Address.t -> route:Address.t list -> meta:'a -> now:float -> unit
(** Add a route; an identical route to the same destination refreshes the
    existing entry's [last_used] instead of duplicating it. *)

val entries : 'a t -> dst:Address.t -> 'a entry list
(** Current routes for [dst], most recently used first. *)

val best :
  'a t -> dst:Address.t -> score:('a entry -> float) -> 'a entry option
(** Highest-scoring entry, [None] when the cache holds no route for
    [dst].  Ties go to the larger [last_used], then to the entry first in
    {!entries}' order — the entry a strict-[>] left fold over {!entries}
    picks.  Scores are compared with [>] and [=], so they must not be
    NaN.  [best] does not mark the entry used: only {!insert} refreshes
    [last_used]. *)

val remove_link :
  'a t -> owner:Address.t -> a:Address.t -> b:Address.t -> int
(** Purge every entry whose expanded path (owner, route, destination)
    contains [a] immediately followed by [b].  Returns how many entries
    were removed. *)

val remove_containing : 'a t -> Address.t -> int
(** Purge every entry whose route (or destination) includes the node —
    used when the credit system blames a host.  Returns removals. *)

val remove_route : 'a t -> dst:Address.t -> route:Address.t list -> unit
(** Drop one specific route (e.g. after an end-to-end ack timeout). *)

val size : 'a t -> int
