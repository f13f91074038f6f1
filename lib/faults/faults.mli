(** Deterministic fault injection for the simulated network.

    A fault {!plan} is a declarative list of timed {!step}s — node
    crashes and restarts, link severing and restoration, network
    partitions, and channel-model swaps (including the two-state
    Gilbert–Elliott bursty-loss model).  {!schedule} compiles a plan
    into {!Manet_sim.Engine} events, so a plan executes inside the same
    deterministic event order as the protocols it perturbs: the same
    seed plus the same plan yields a byte-identical trace.

    Plans are plain lists, so they compose with [@] or {!seq} and can be
    generated programmatically — {!churn} derives an arbitrarily long
    crash/restart schedule from a seed.

    Each fired step increments a [fault.*] stats counter and logs a
    [fault.*] trace event before invoking its hook, so fault timelines
    appear inline in rendered traces. *)

open Manet_sim

type event =
  | Crash of int  (** node goes down: no send, receive, or ack *)
  | Restart of int
      (** node comes back up; scenario-level hooks re-run secure DAD *)
  | Link_down of int * int  (** administratively sever an unordered link *)
  | Link_up of int * int
  | Partition of int list
      (** cut the network: listed nodes vs. everyone else *)
  | Heal  (** remove the partition (severed links stay severed) *)
  | Channel of Net.channel  (** swap the loss process *)

type step = { at : float; event : event }
type plan = step list

(** {1 Builders}

    Each returns a (possibly singleton) plan; combine with [@] or
    {!seq}. *)

val crash : at:float -> int -> plan

(* Plan-builder symmetry with [crash]; [outage] composes it internally
   and callers may schedule it alone. *)
val restart : at:float -> int -> plan
val link_down : at:float -> int -> int -> plan
(* Plan-builder symmetry with [link_down], same rationale as
   [restart]. *)
val link_up : at:float -> int -> int -> plan

val outage : from:float -> until:float -> int -> plan
(** Crash at [from], restart at [until]. *)

val flap : from:float -> until:float -> period:float -> int -> int -> plan
(** Toggle a link down/up every [period] seconds across the window,
    leaving it up at the end. *)

val partition : from:float -> until:float -> int list -> plan
(** Cut the listed nodes off at [from], heal at [until]. *)

val gilbert_elliott :
  ?loss_good:float ->
  ?loss_bad:float ->
  p_good_to_bad:float ->
  p_bad_to_good:float ->
  unit ->
  Net.channel
(** Convenience constructor; defaults [loss_good = 0.01],
    [loss_bad = 0.8]. *)

val degrade :
  from:float ->
  until:float ->
  channel:Net.channel ->
  baseline:Net.channel ->
  plan
(** Switch to [channel] at [from], back to [baseline] at [until]. *)

val churn :
  seed:int ->
  nodes:int list ->
  horizon:float ->
  mean_up:float ->
  mean_down:float ->
  plan
(** Seeded node churn: each listed node alternates exponentially
    distributed up-periods (mean [mean_up]) and down-periods (mean
    [mean_down]) over [0, horizon)].  Every node that is down at the
    horizon is restarted there, so the plan leaves the network whole.
    The plan is a pure function of the arguments. *)

val seq : plan list -> plan
(** Concatenate plans ({!schedule} orders steps by time anyway). *)

val validate : n:int -> plan -> unit
(** Raise [Invalid_argument] if any step names a node outside [0, n),
    a self-link, or a negative time. *)

(** {1 Execution} *)

type hooks = {
  crash : int -> unit;
  restart : int -> unit;
  set_link : int -> int -> up:bool -> unit;
  partition : int list -> unit;
  heal : unit -> unit;
  set_channel : Net.channel -> unit;
}
(** What each event does to the world.  {!net_hooks} gives the bare
    radio semantics; [Scenario.inject] layers protocol re-bootstrap on
    top (restart re-runs secure DAD). *)

val net_hooks : 'msg Net.t -> hooks
(** Crash/restart toggle {!Net.set_down}; the rest map one-to-one onto
    the corresponding [Net] fault-state calls. *)

val schedule : ?obs:Manet_obs.Obs.t -> Engine.t -> hooks -> plan -> unit
(** Sort the plan by time (stable, so same-time steps keep plan order)
    and schedule each step on the engine.  Every step bumps the matching
    stats counter when it fires and, while the engine's trace ring is
    on, logs a [fault.*] trace event (its detail is built only then).

    With [obs], Crash..Restart pairs become [fault.outage] spans and
    Partition..Heal pairs [fault.partition] spans.  An open outage span
    is registered under {!outage_key}, so a restart hook can parent the
    node's re-DAD bootstrap span to the outage that caused it. *)

val outage_key : int -> string
(** Correlation-registry key of node [i]'s most recent outage span. *)
