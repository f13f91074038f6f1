(** A self-contained AODV / SAODV network, for the E7 comparison and the
    AODV tests.  Mirrors what {!Manetsec.Scenario} does for the DSR
    protocols: topology, radio, identities, one agent per node, optional
    black holes, CBR traffic and metric readers. *)

module Address = Manet_ipv6.Address
module Engine = Manet_sim.Engine
module Topology = Manet_sim.Topology

type params = {
  n : int;
  seed : int;
  range : float;
  loss : float;
  secure : bool;  (** SAODV on/off *)
  topology : [ `Chain of float | `Grid of int * float | `Random of float * float ];
  adversaries : (int * Aodv_adversary.behavior) list;
  config : Manet_aodv.Aodv.config;
}

val default_params : params

type t

val create : params -> t

(* manetcheck: allow dead-export — public API: engine accessor kept for
   parity with Scenario.engine. *)
val engine : t -> Engine.t
val stats : t -> Manet_sim.Stats.t
val agent : t -> int -> Manet_aodv.Aodv.t
val address_of : t -> int -> Address.t

val send : t -> src:int -> dst:int -> ?size:int -> unit -> unit

val start_cbr :
  t -> flows:(int * int) list -> interval:float -> ?size:int -> duration:float ->
  unit -> unit

val run : ?until:float -> t -> unit
val delivery_ratio : t -> float
