(** Plain DSR (Johnson-Maltz dynamic source routing) — the insecure
    baseline the paper's protocol is derived from and measured against.

    On-demand route discovery: a source floods [RREQ]; relays append
    their address to the route record; the destination (or any node with
    a cached route, when cache replies are enabled) returns the recorded
    route.  Data is source-routed; a node that cannot reach its next hop
    reports a [RERR] back to the source, which purges matching cache
    entries.  End-to-end acknowledgements drive bounded retransmission
    and give the delivery/latency metrics the experiments report.

    Nothing is authenticated: any node can claim any route, reply from a
    fabricated cache, or report errors for links it never carried — the
    attack surface the secure protocol closes. *)

module Address = Manet_ipv6.Address
module Messages = Manet_proto.Messages

type config = {
  discovery_timeout : float;  (** seconds to wait for a RREP per attempt *)
  max_discovery_attempts : int;
  use_cache_replies : bool;  (** answer RREQs from the route cache (CREP) *)
  ack_timeout : float;  (** end-to-end ack wait before resending *)
  max_send_retries : int;  (** resends per data packet *)
  cache_capacity_per_dst : int;
  flood_jitter : float;
  use_acks : bool;
      (** classical DSR has no end-to-end acknowledgements; enable them
          for like-for-like comparison with the secure protocol, disable
          them to reproduce the undefended baseline the attack
          experiments measure *)
  salvage : bool;
      (** DSR packet salvaging: an intermediate that cannot reach its
          next hop re-routes the packet over its own cache (the RERR is
          still reported) *)
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

val cached_route : t -> dst:Address.t -> Address.t list option
(** Best cached route (intermediates) without triggering discovery. *)

val cached_routes : t -> dst:Address.t -> Address.t list list
(** Every cached route for [dst] (inspection; most recently used first). *)

(* manetcheck: allow dead-export — uniform agent accessor; every protocol
   agent (Dad, Dsr, Srp, Secure_routing) exposes [address]. *)
val address : t -> Address.t

(** Statistics written to the engine's {!Manet_sim.Stats} registry, all
    under these keys (shared with the secure protocol so experiments
    compare like for like):
    - counters: [data.offered], [data.delivered], [data.acked],
      [data.dropped], [data.forwarded], [route.discoveries],
      [route.replies], [route.cache_replies], [rerr.sent],
      [rerr.received]
    - summaries: [data.latency] (one-way, seconds), [data.rtt],
      [route.discovery_time], [route.hops] *)

(** {1 Telemetry correlation keys}

    Shared vocabulary for the {!Manet_obs.Obs} correlation registry —
    [Manet_secure] uses the same keys so responder-side reply spans can
    attach to the initiating flood span regardless of which protocol
    variant runs.  A flood attempt is identified by (source, seq);
    replies by the fields both the responder and the consumer can see. *)

val rreq_corr : sip:Address.t -> seq:int -> string
val rrep_corr : sip:Address.t -> dip:Address.t -> rr:Address.t list -> string
val crep_corr : cacher:Address.t -> seq:int -> string

val rreq_key : Address.t -> int -> Manet_obs.Flood.key
(** [rreq_key sip seq] is the RREQ dedup key, shared by every routing
    agent's seen-table and by the flood-provenance registry. *)
