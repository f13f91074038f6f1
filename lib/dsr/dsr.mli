(** Plain DSR (Johnson-Maltz dynamic source routing) — the insecure
    baseline the paper's protocol is derived from and measured against.

    On-demand route discovery: a source floods [RREQ]; relays append
    their address to the route record; the destination (or any node with
    a cached route, when cache replies are enabled) returns the recorded
    route.  Data is source-routed; a node that cannot reach its next hop
    reports a [RERR] back to the source, which purges matching cache
    entries, and salvages the packet over its own cache.  End-to-end
    acknowledgements drive bounded retransmission and give the
    delivery/latency metrics the experiments report.

    Nothing is authenticated: any node can claim any route, reply from a
    fabricated cache, or report errors for links it never carried — the
    attack surface the secure protocol closes.

    The data plane (send buffer, acks and retries, discovery timing,
    forwarding, RERR and salvaging) and the reply and RERR acceptance
    path are {!Source_route}'s, shared with the secure protocol and SRP;
    DESIGN.md ("Source-route data plane") lists what DSR supplies. *)

module Address = Manet_ipv6.Address
module Messages = Manet_proto.Messages

type config = {
  use_cache_replies : bool;  (** answer RREQs from the route cache (CREP) *)
  use_acks : bool;
      (** classical DSR has no end-to-end acknowledgements; enable them
          for like-for-like comparison with the secure protocol, disable
          them to reproduce the undefended baseline the attack
          experiments measure *)
  route_shortening : bool;
      (** DSR automatic route shortening: a node overhearing (on a
          promiscuous radio) a data frame that will reach it in several
          more hops sends a gratuitous route reply with the shortcut.
          Note this relies on unauthenticated gratuitous replies, which
          is exactly what the secure protocol cannot accept — the secure
          agent deliberately has no such option (DESIGN.md §4a). *)
}

val default_config : config

type t

val create : ?config:config -> Manet_proto.Node_ctx.t -> t

val handle : t -> src:int -> Messages.t -> unit
(** Feed RREQ/RREP/CREP/RERR/Data/Ack.  Probe traffic and DNS messages
    are transit-forwarded. *)

val send : t -> dst:Address.t -> ?size:int -> unit -> unit
(** Offer one data packet of [size] payload bytes (default 512) to the
    routing layer: it is sent immediately over a cached route or queued
    behind a route discovery. *)

val discover :
  t -> dst:Address.t -> on_route:(Address.t list option -> unit) -> unit
(** Explicit route discovery.  [on_route] fires with the intermediate
    hops ([Some []] for a direct neighbour) or [None] when every attempt
    timed out.  If a route is already cached it fires immediately. *)

val cached_routes : t -> dst:Address.t -> Address.t list list
(** Every cached route for [dst] (inspection; most recently used first). *)

(** Statistics written to the engine's {!Manet_sim.Stats} registry, all
    under these keys (shared with the secure protocol so experiments
    compare like for like):
    - counters: [data.offered], [data.delivered], [data.acked],
      [data.dropped], [data.forwarded], [data.salvaged],
      [route.discoveries], [route.replies], [route.cache_replies],
      [route.shortened], [rerr.sent], [rerr.received]
    - summaries: [data.latency] (one-way, seconds), [data.rtt],
      [route.discovery_time], [route.hops] *)
