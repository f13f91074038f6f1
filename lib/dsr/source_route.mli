(** The source-route data plane and the route-request, reply and
    route-error receive paths shared by plain DSR ({!Dsr}), the paper's
    secure routing and SRP ([Manet_secure]).

    The three protocols verify and choose routes differently, but data
    follows a source route the same way in all of them (as in RFC 4728,
    where the send buffer and route maintenance sit apart from
    discovery), and route requests, replies and errors are handled by
    one procedure around each protocol's own checks (§3.3–§3.4).  This
    module owns that one copy:

    - the send buffer (packets queued behind a discovery), the in-flight
      table, the end-to-end ack timer and the bounded retry;
    - the discovery record: attempts, timeout, telemetry spans, waiters,
      and the RREQ flood's bookkeeping (the protocol builds the RREQ);
    - the RREQ receive path ({!handle_rreq}): flood accounting, the
      duplicate and loop tests, the destination's reply bound, the
      choice between a cache reply and a relay, the route-record append
      and the jittered rebroadcast;
    - the relay side: forwarding, the link-break RERR back to the
      source, salvaging, and delivery with its ack;
    - acting on a judged reply or RERR ({!consume_reply},
      {!consume_rerr});
    - the shared [data.*], [route.*] and [rerr.*] statistics, with one
      function that gives a packet up ([data.dropped]).

    A protocol supplies the rest through one {!hooks} record built once
    per node, and keeps its own state in the [ext] slot; its checks,
    replies and route-record entry are arguments of the receive
    paths.
    The timings are constants: a discovery waits 1.0 s per attempt over
    3 attempts, a packet waits 1.5 s for its ack over 2 resends, the
    cache keeps 4 routes per destination, and a relay delays its RREQ
    rebroadcast by a random 0 to 0.01 s.  DESIGN.md ("Source-route data
    plane") lists what each protocol supplies and which differences
    between them this module keeps. *)

module Address = Manet_ipv6.Address
module Messages = Manet_proto.Messages

type packet = private {
  p_dst : Address.t;
  p_size : int;
  p_seq : int;
  p_first_sent : float;
  mutable p_retries : int;
}

type pending_discovery = private {
  d_dst : Address.t;
  mutable d_seq : int;  (** seq of the current attempt; binds the reply *)
  mutable d_attempts : int;
  mutable d_resolved : bool;
  d_started : float;
  d_span : int;
  mutable d_flood : int option;
}
(** A destination's latest discovery.  Resolved records are kept, so a
    sibling reply of the same discovery still finds its seq. *)

(** What a failed first hop purges from the source's cache. *)
type purge =
  | Purge_link  (** every route over the link to the unreachable hop *)
  | Purge_route  (** only the route that was used *)

type ('x, 'm) t = private {
  ctx : Manet_proto.Node_ctx.t;
  hooks : ('x, 'm) hooks;
  ext : 'x;  (** the protocol's own state *)
  cache : 'm Route_cache.t;
  mutable rreq_seq : int;
  mutable data_seq : int;
  pending : pending_discovery Address.Tbl.t;
  queue : packet Queue.t Address.Tbl.t;
  waiters : (Address.t list option -> unit) list ref Address.Tbl.t;
  seen_rreq : Manet_obs.Flood.Seen.t;
  reply_counts : int Manet_obs.Flood.Ktbl.t;
  in_flight : packet Address.Seq_tbl.t;
  seen_data : unit Address.Seq_tbl.t;
}
(** One node's routing agent: the data plane's state, the protocol's
    hooks and its [ext] state, and a route cache with ['m] metadata. *)

and ('x, 'm) hooks = {
  label : string;  (** engine label of every timer the agent schedules *)
  score : 'm Route_cache.entry -> float;
      (** route choice: the highest-scoring cached route is used *)
  rreq : ('x, 'm) t -> dst:Address.t -> seq:int -> superseded:int -> Messages.t;
      (** the RREQ for a new attempt [seq]; [superseded] is the seq it
          replaces (0 for none).  The data plane floods it. *)
  on_ack_timeout : ('x, 'm) t -> packet -> Address.t list -> bool;
      (** after the timed-out route is purged: [true] when the protocol
          takes the packet over (it calls {!retry} later), [false] to
          retry at once *)
  on_ack : ('x, 'm) t -> Address.t list -> unit;
      (** an ack matched an in-flight packet sent over this route *)
  rerr :
    ('x, 'm) t ->
    broken_next:Address.t ->
    dst:Address.t ->
    remaining:Address.t list ->
    Messages.t;  (** the link-break report a relay sends to the source *)
  first_hop_purge : purge;
  use_acks : bool;  (** send acks and arm the ack timer *)
  salvage : bool;  (** relays re-route a stuck packet over their own cache *)
}

val create : hooks:('x, 'm) hooks -> ext:'x -> Manet_proto.Node_ctx.t -> ('x, 'm) t

val address : ('x, 'm) t -> Address.t
val now : ('x, 'm) t -> float

val no_ack_timeout : ('x, 'm) t -> packet -> Address.t list -> bool
(** The [on_ack_timeout] of a protocol with nothing to add: retry. *)

val no_ack : ('x, 'm) t -> Address.t list -> unit
(** The [on_ack] of a protocol with nothing to add. *)

val shortest_first : 'm Route_cache.entry -> float
(** The DSR route score: fewer hops is better. *)

val send : ('x, 'm) t -> dst:Address.t -> ?size:int -> unit -> unit
(** Offer one data packet of [size] payload bytes (default 512): it is
    sent at once over a cached route, or queued behind a discovery. *)

val discover :
  ('x, 'm) t -> dst:Address.t -> on_route:(Address.t list option -> unit) -> unit
(** Explicit route discovery.  [on_route] fires with the intermediate
    hops ([Some []] for a direct neighbour) or [None] when every attempt
    timed out.  If a route is already cached it fires at once. *)

val retry : ('x, 'm) t -> packet -> unit
(** Resend a packet whose ack timed out, or give it up once its resends
    are spent. *)

val cached_entry : ('x, 'm) t -> dst:Address.t -> 'm Route_cache.entry option
(** The cached route the agent would use for [dst]. *)

val cached_route : ('x, 'm) t -> dst:Address.t -> Address.t list option

val cached_routes : ('x, 'm) t -> dst:Address.t -> Address.t list list
(** Every cached route for [dst] (inspection; most recently used first). *)

val split_route_at : Address.t list -> Address.t -> (Address.t list * Address.t list) option
(** [split_route_at route me] is the hops before and after [me] in an
    intermediate list, [None] when [me] is not on it. *)

(** {1 Reception} *)

val relay : ('x, 'm) t -> next:Address.t list -> Messages.t -> unit
(** Pass a source-routed message on along [next]. *)

val deliver : ('x, 'm) t -> src:int -> Messages.t -> consume:(Messages.t -> unit) -> unit
(** Receive a source-routed message: [consume] it here, {!relay} it, or
    ignore a copy meant for another node. *)

val deliver_data :
  ('x, 'm) t -> src:int -> Messages.t -> overheard:(Messages.t -> unit) -> unit
(** Receive a data packet: deliver and ack it here, or forward it (a
    broken next hop sends the protocol's RERR and, under [salvage],
    re-routes the packet); [overheard] sees copies meant for another
    node. *)

val deliver_ack : ('x, 'm) t -> src:int -> Messages.t -> unit

(** {1 Route requests} *)

val handle_rreq :
  ('x, 'm) t ->
  src:int ->
  Messages.rreq ->
  accept:(('x, 'm) t -> Manet_obs.Flood.handle -> Messages.rreq -> bool) ->
  endorse:(('x, 'm) t -> Messages.rreq -> rr:Address.t list -> string * string * int64) ->
  crep:
    (('x, 'm) t ->
    Messages.rreq ->
    rr:Address.t list ->
    back:Address.t list ->
    Messages.t option) ->
  relay:(('x, 'm) t -> Messages.rreq -> Messages.rreq * Messages.srr_entry) ->
  unit
(** Receive one copy of an RREQ flood (§3.3).  Every copy is counted in
    the flood's provenance; a relay drops all but the first copy, and
    any node drops a copy it sent or whose record already names it.
    The protocol supplies what differs, with [rr] the addresses on the
    copy's route record and [back] the path to its source:

    - [accept t flood r] checks a copy at the destination while fewer
      than 3 copies of the flood have been answered; an accepted copy
      is answered with an RREP back along the record, carrying
      [endorse t r ~rr]: the destination's signature, public key and
      CGA modifier (see {!answer});
    - [crep t r ~rr ~back] is the relay's answer from its cache, [None]
      when no cached route may answer (see {!avoids});
    - otherwise [relay t r] gives the copy's fields as the protocol
      forwards them and the route-record entry it appends, and the
      extended copy is rebroadcast after a random delay of up to
      0.01 s. *)

val avoids : Messages.rreq -> rr:Address.t list -> Address.t list -> bool
(** [avoids r ~rr route]: the cached [route] leads neither back to the
    request's source nor through a hop on its record [rr], so it may
    answer the request. *)

(** {1 Replies and route errors}

    A protocol's check judges a reply or route error and changes no
    state; these functions act on its {!Manet_proto.Verdict.t} the same
    way for every protocol. *)

(** A reply to a discovery. *)
type reply = Rrep of Messages.rrep | Crep of Messages.crep

val answer : ('x, 'm) t -> seq:int -> reply -> Messages.t
(** [answer t ~seq reply] is [reply] as the message that answers request
    [seq].  It opens the responder's span (["route.rrep"] or
    ["route.crep"]) under the request's flood span, filed under the
    fields both ends see: a route reply's [sip], [dip] and [rr], a cache
    reply's cacher and request seq.  The key is built only while the
    event log is on. *)

val consume_reply :
  ('x, 'm) t ->
  src:int ->
  Messages.t ->
  check:(('x, 'm) t -> reply -> 'm Manet_proto.Verdict.t) ->
  unit
(** [consume_reply t ~src msg ~check] acts on an RREP or CREP that ended
    here, radioed by [src]: the verdict of [check] finishes the
    responder's span; an accepted reply's route is cached with the
    verdict's value as metadata (the discovery resolves, queued packets
    are sent, the waiters told); a rejected one is audited. *)

val consume_rerr :
  ('x, 'm) t ->
  src:int ->
  Messages.t ->
  check:(('x, 'm) t -> Messages.rerr -> unit Manet_proto.Verdict.t) ->
  credit:(('x, 'm) t -> Messages.rerr -> removed:int -> unit) ->
  unit
(** [consume_rerr t ~src msg ~check ~credit] acts on a RERR that ended
    here, counted under [rerr.received]: an accepted report drops every
    cached route over the reported link and [credit] is told how many;
    an unchecked one is also audited as [Unverified_accept]; a rejected
    one is audited. *)

val unchecked : ('x, 'm) t -> 'a -> unit Manet_proto.Verdict.t
(** The check of an unauthenticated protocol: accepted, unchecked. *)
