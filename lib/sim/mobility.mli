(** Node mobility models.

    A mobility process updates topology positions on a fixed tick.  The
    standard MANET evaluation model is random waypoint: each node picks a
    uniform destination, travels at a uniform speed, pauses, repeats. *)

type model =
  | Static  (** no movement *)
  | Random_waypoint of { min_speed : float; max_speed : float; pause : float }
      (** speeds in distance units per second, pause in seconds *)
  | Random_walk of { speed : float; turn_interval : float }
      (** constant speed, new uniform heading every [turn_interval];
          reflects off field edges *)

type t

val create :
  ?tick:float -> Engine.t -> Topology.t -> Manet_crypto.Prng.t -> model -> t
(** [create engine topo rng model] prepares the process ([tick] defaults
    to 0.5 simulated seconds). *)

val start : t -> unit
(** Schedule the first movement tick; every tick schedules the next, for
    the rest of the run.  Idempotent. *)
