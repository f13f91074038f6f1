(** A self-contained AODV / SAODV network, for the E7 comparison and the
    AODV tests.  Mirrors what {!Manetsec.Scenario} does for the DSR
    protocols: topology, radio, identities, one agent per node, optional
    black holes, CBR traffic and metric readers. *)

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

(* manetcheck: allow test-only-export — test_aodv.ml reads the AODV
   counters (rerr.sent, data.dropped, the SAODV rejections) through it;
   no export of this world carries them. *)
val stats : t -> Manet_sim.Stats.t

(* manetcheck: allow test-only-export — test_aodv.ml reaches a node's
   radio through its agent to fail the node mid-run. *)
val agent : t -> int -> Manet_aodv.Aodv.t

val start_cbr :
  t -> flows:(int * int) list -> interval:float -> ?size:int -> duration:float ->
  unit -> unit

val run : ?until:float -> t -> unit
val delivery_ratio : t -> float
