(** Scenario orchestration: build a whole simulated MANET in one call.

    A scenario wires together everything the lower layers provide — the
    event engine, a topology with optional mobility, the lossy radio, one
    identity per node, the DAD bootstrapping agents, the DNS server on
    node 0, a routing agent per node (plain DSR, the paper's secure
    protocol, SRP, AODV or SAODV), and any adversaries — and exposes the traffic generators
    and metric readers the experiments and examples need.

    Typical use:
    {[
      let s = Scenario.create { Scenario.default_params with n = 50 } in
      Scenario.bootstrap s;                     (* secure DAD for all   *)
      Scenario.start_cbr s ~flows:[ (3, 17) ] ~interval:0.25 ~duration:60.0 ();
      Scenario.run s ~until:120.0;
      Printf.printf "delivery %.2f\n" (Scenario.delivery_ratio s)
    ]} *)

module Address = Manet_ipv6.Address
module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Mobility = Manet_sim.Mobility
module Identity = Manet_proto.Identity

type topology_spec =
  | Chain of { spacing : float }
  | Grid of { cols : int; spacing : float }
  | Random of { width : float; height : float }
      (** resampled until connected at the configured radio range *)
  | Explicit of { width : float; height : float; positions : (float * float) list }
      (** one position per node, in node order; {!create} raises
          [Invalid_argument] unless exactly [n] positions are given *)

type suite_spec =
  | Mock_suite  (** idealized signatures; large sweeps *)
  | Rsa_suite of int  (** real RSA with the given modulus bits *)

type protocol =
  | Plain_dsr
  | Secure
  | Srp_protocol
      (** SRP-style comparison: end-to-end MACs under pre-established
          pairwise associations, no per-hop verification *)
  | Aodv  (** hop-by-hop distance-vector comparison ({!Manet_aodv.Aodv}) *)
  | Saodv
      (** AODV with SAODV's origin signatures and hop-count hash chains.
          Node 0's well-known DNS address is no CGA, so its route
          messages fail SAODV's check: {!send} and {!start_cbr} raise
          [Invalid_argument] for a flow to or from node 0 unless
          [with_dns = false]. *)

type params = {
  n : int;  (** node count, including the DNS server at node 0 *)
  seed : int;
  range : float;
  loss : float;
  promiscuous : bool;  (** radios overhear unicasts (route shortening) *)
  topology : topology_spec;
  mobility : Mobility.model;
  protocol : protocol;
  suite : suite_spec;
  with_dns : bool;  (** host the DNS server on node 0 *)
  adversaries : (int * Manet_attacks.Adversary.behavior) list;
      (** node index to behaviour; indices must not be 0 when [with_dns] *)
  dsr_config : Manet_dsr.Dsr.config;
  secure_config : Manet_secure.Secure_routing.config;
  dad_config : Manet_dad.Dad.config;
}

val default_params : params
(** 20 nodes, seed 1, 250 range, no loss, random 1000x1000 field, static,
    secure protocol, mock suite, DNS on node 0, no adversaries. *)

type routing_agent =
  | Dsr_agent of Manet_dsr.Dsr.t
  | Secure_agent of Manet_secure.Secure_routing.t
  | Srp_agent of Manet_secure.Srp.t
  | Aodv_agent of Manet_aodv.Aodv.t  (** [Aodv] and [Saodv] *)

type node = {
  index : int;
  identity : Identity.t;
  ctx : Manet_proto.Node_ctx.t;
  dad : Manet_dad.Dad.t;
  dns_client : Manet_dns.Client.t;
  routing : routing_agent;
  adversary : Manet_attacks.Adversary.t option;
}

type t

val create : params -> t
(** Build the network.  Raises [Invalid_argument] on fewer than two
    nodes, on an adversary at a bad index or on the DNS node, and on a promiscuous radio under
    [Aodv] or [Saodv]: AODV messages name no next hop, so every
    neighbour that overheard a unicast would act on it. *)

val engine : t -> Engine.t
val net : t -> Manet_proto.Messages.t Manet_sim.Net.t
(** The shared radio — exposed for failure injection (downing nodes) in
    tests and experiments. *)

val stats : t -> Stats.t

val obs : t -> Manet_obs.Obs.t
(** The scenario-wide telemetry handle.  One shared handle is passed to
    every node context, so causal spans cross node boundaries: an AREP
    answered on node [j] parents to the AREQ flood opened on node [i],
    and a re-DAD after {!inject}ed churn parents to the outage span that
    forced it.  Use {!Manet_obs.Obs.to_jsonl} or
    {!Manet_obs.Report.run_report} to export it. *)

val params : t -> params
val node : t -> int -> node
val nodes : t -> node array
val dns_server : t -> Manet_dns.Dns.t option
(* Public API: exposes the shared crypto suite so callers can read
   sign/verify counters directly. *)
val suite : t -> Manet_crypto.Suite.t

val address_of : t -> int -> Address.t

val duplicate_address : t -> joiner:int -> owner:int -> unit
(** Force a §3.1 address collision: node [joiner] takes node [owner]'s
    current address (the directory moves with it), so its next DAD
    floods an AREQ for an address already in use.  Call it before the
    joiner bootstraps.  Raises [Invalid_argument] unless [joiner] and
    [owner] are two distinct nodes of the scenario. *)

val bootstrap : ?stagger:float -> t -> unit
(** Run secure DAD for every non-DNS node, started [stagger] seconds
    apart (default 0.5), then run the engine until the network is quiet.
    A node whose DAD is already pending or configured when its slot
    comes (an injected restart landed first) is skipped.  Also starts
    mobility and adversary timers. *)

val send : t -> src:int -> dst:int -> ?size:int -> unit -> unit
(** Offer one data packet from node [src] to node [dst]'s current
    address. *)

val start_cbr :
  t ->
  flows:(int * int) list ->
  interval:float ->
  ?size:int ->
  ?start_at:float ->
  duration:float ->
  unit ->
  unit
(** Constant-bit-rate flows: each (src, dst) pair offers a packet every
    [interval] seconds from [start_at] (default: now) for [duration]. *)

val discover : t -> src:int -> dst:int -> (Address.t list option -> unit) -> unit
(** Run one route discovery and pass the route found (or [None]).
    Raises [Invalid_argument] under [Aodv] and [Saodv], which learn next
    hops, not routes. *)

val run : ?until:float -> t -> unit
(** Drive the engine ([until] is absolute simulated time). *)

val inject : t -> Manet_faults.Faults.plan -> unit
(** Schedule a fault plan against this scenario.  Crashes down the radio
    and abort any in-flight DAD; restarts bring the radio back and
    re-run the secure DAD bootstrap with the node's existing identity
    (same CGA address and domain name, so the DNS sees a benign
    re-registration).  Link, partition, and channel events act on the
    shared {!net}.  Raises [Invalid_argument] if the plan names a node
    outside the scenario, or crashes/restarts node 0 while it hosts the
    DNS. *)

(* --- metric readers ---------------------------------------------------- *)

val delivery_ratio : t -> float
(** delivered / offered; 1.0 when nothing was offered. *)

val ack_ratio : t -> float

val control_bytes : t -> int
(** Bytes of all non-data, non-ack transmissions (route discovery,
    replies, errors, probes, bootstrap, DNS). *)

val control_packets : t -> int

val crypto_ops : t -> int * int
(** (signatures made, verifications performed) across all nodes. *)

val mean_latency : t -> float option
(** Mean one-way data latency in seconds. *)

(* --- perf export -------------------------------------------------------- *)

val perf_json : ?meta:(string * Manet_obs.Json.t) list -> t -> Manet_obs.Json.t
(** The scenario's full performance export
    ({!Manet_obs.Perf.to_json}): schema header, [meta], a
    byte-deterministic section (including the ["floods"] provenance
    summary) and a wall-clock section. *)

val perf_det_jsonl : ?meta:(string * Manet_obs.Json.t) list -> t -> string
(** The sweep-mergeable deterministic-only perf stream
    ({!Manet_obs.Perf.det_jsonl}), with the ["floods"] summary
    appended; byte-identical across same-seed replays and domain
    counts. *)

val timeline_jsonl : ?meta:(string * Manet_obs.Json.t) list -> t -> string
(** The scenario's time-resolved telemetry export
    ({!Manet_obs.Timeline.to_jsonl}): sim-time-bucketed series plus the
    per-flood provenance tail; byte-identical across same-seed replays
    and domain counts. *)

