(** An SRP-style comparison protocol (Papadimitratos-Haas, reviewed in
    the paper's §2.1).

    SRP assumes a pre-established {e security association} — a shared key
    — between every communicating source/destination pair, and protects
    route discovery end to end: the source MACs its request under the
    pair key, the destination verifies it and MACs the collected route in
    its reply, and intermediate nodes do nothing cryptographic at all.
    Fabricated or replayed route replies are rejected, with none of
    secure-DSR's per-hop cost.

    What it inherits from that design (and what the paper's protocol
    fixes) is exercised by the tests and the E4 matrix:
    - intermediate nodes are unverified, so impersonating a relay in the
      route record goes unnoticed;
    - route errors cannot be authenticated (no association with
      intermediates), so RERR forgery works as well as against plain DSR;
    - the pairwise key setup is exactly the pre-configuration burden the
      paper's DNS-only bootstrap avoids.

    The pairwise associations are modelled by key derivation from a
    network-wide master secret ([k_sd = HMAC(master, a || b)] with the
    address pair sorted), standing in for the out-of-band establishment
    SRP presupposes. *)

module Address = Manet_ipv6.Address
module Messages = Manet_proto.Messages

type config = {
  discovery_timeout : float;
  max_discovery_attempts : int;
  ack_timeout : float;
  max_send_retries : int;
  cache_capacity_per_dst : int;
  flood_jitter : float;
}

type t

val create :
  ?config:config -> master:string -> Manet_proto.Node_ctx.t -> t

val handle : t -> src:int -> Messages.t -> unit
val send : t -> dst:Address.t -> ?size:int -> unit -> unit

val discover :
  t -> dst:Address.t -> on_route:(Address.t list option -> unit) -> unit

val cached_routes : t -> dst:Address.t -> Address.t list list
(** Stats: the shared [data.*]/[route.*]/[rerr.*] keys plus
    [srp.rreq_rejected] and [srp.rrep_rejected]. *)
