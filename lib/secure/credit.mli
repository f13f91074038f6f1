(** Credit management — §3.4.

    Each source keeps a credit score per host that has relayed for it.
    Every end-to-end acknowledged delivery increments the credit of each
    host on the route; detected misbehaviour (failed integrity probe,
    implausible or excessive RERR reporting) slashes a host "by a very
    large amount".  New identities start low, which is the defence
    against identity churn: an adversary who keeps changing its CGA
    keeps returning to the bottom of the trust scale.  In hostile
    environments the source prefers routes whose {e minimum} member
    credit is highest.

    A never-seen host starts at 0, an acked delivery adds 1 to each
    host on the route, and a slash subtracts 100. *)

module Address = Manet_ipv6.Address

type config = {
  rerr_window : float;  (** seconds of RERR-frequency history *)
  rerr_threshold : int;  (** RERRs per window that mark a reporter hostile *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t

val get : t -> Address.t -> float
val reward_route : t -> Address.t list -> unit
val slash : t -> Address.t -> unit

val record_rerr : t -> Address.t -> now:float -> bool
(** Note one RERR from the reporter; [true] when the reporter exceeded
    the frequency threshold within the window (the caller should then
    {!slash} and route around it). *)

val min_credit : t -> Address.t list -> float
(** The weakest-member credit of a route ([infinity] for an empty
    route, i.e. a direct neighbour). *)

val snapshot : t -> (Address.t * float) list
(** All scored hosts, sorted by address — for the convergence
    experiment (E5). *)
