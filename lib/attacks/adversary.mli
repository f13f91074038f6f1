(** Adversary node behaviours — the attack models of §4.

    An adversary owns a {e legitimate} identity (key pair and CGA): the
    protocol never prevents a hostile node from joining, it prevents it
    from lying about {e who it is}.  The adversary participates in the
    protocol through a delegate (the honest DSR or secure agent) and
    deviates according to its {!behavior}:

    - {b black hole} (§3.4/§4): answer route requests with fabricated
      replies claiming a route to any destination, then silently drop the
      data (and transit probes) attracted;
    - {b gray hole}: drop transit data probabilistically;
    - {b impersonation}: append a victim's address to route records
      instead of its own — against the secure protocol the CGA check at
      the destination exposes it;
    - {b replay}: record route replies seen in transit and replay them
      against later discoveries — the sequence-number binding makes them
      stale;
    - {b RERR fabrication}: periodically report link breaks for flows it
      relays; the reports verify (the adversary signs with its own key),
      which is exactly the §3.4 case the credit/frequency tracking
      handles;
    - {b identity churn}: periodically abandon the current CGA for a
      fresh one, resetting any per-address blame. *)

module Address = Manet_ipv6.Address
module Messages = Manet_proto.Messages

type behavior = {
  drop_data : [ `Never | `Always | `Prob of float ];  (** transit data *)
  forge_rrep : bool;
  impersonate : Address.t option;
  replay_rrep : bool;
  rerr_spam_interval : float option;
  churn_interval : float option;
  answer_probes : bool;  (** reply to probes targeting the adversary *)
  drop_probes : bool;  (** drop probes in transit *)
  mute : bool;  (** process nothing at all (a victim asleep or jammed) *)
}

val sleeper : behavior
(** A node that processes no routing traffic at all; used to prove that a
    route naming it is fabricated. *)

val blackhole : behavior
(** [forge_rrep], drop all transit data and probes, answer own probes. *)

val grayhole : float -> behavior
(** Drop transit data with the given probability. *)

val impersonator : Address.t -> behavior
val replayer : behavior
val rerr_spammer : every:float -> behavior
val identity_churner : every:float -> behavior

type t

val create :
  ?behavior:behavior ->
  secure:bool ->
  Manet_proto.Node_ctx.t ->
  delegate:(src:int -> Messages.t -> unit) ->
  t
(** [secure] selects how forgeries are built (the secure wire format
    carries signature fields the baseline's does not). *)

val start : t -> unit
(** Arm the periodic behaviours (RERR spam, identity churn). *)

val handle : t -> src:int -> Messages.t -> unit

(** Stats written under [attack.*]: [attack.data_dropped],
    [attack.rrep_forged], [attack.impersonations], [attack.replayed],
    [attack.rerr_forged], [attack.identity_changes],
    [attack.probes_dropped]. *)
