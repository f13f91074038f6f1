(** The MANET's DNS server — the protocol's only security infrastructure.

    §3.2: the server owns a key pair whose public half every host knows
    before joining.  It maintains the domain-name table: permanent
    entries are pre-provisioned before network formation (impersonating
    those hosts is impossible); everything else registers online,
    first-come-first-served, through the DAD integration of §3.1:

    - it observes every fresh AREQ; a conflicting name draws a signed
      [DREP] back along the AREQ's route record, otherwise the
      registration is held pending for [commit_wait] seconds;
    - a verified duplicate-address warning (an AREP arriving at the DNS)
      cancels the pending registration, so a host whose DAD failed never
      gets a name bound to the contested address;
    - it answers routed name queries with signed replies, and processes
      the challenge-response IP-address change of §3.2 (the host proves
      ownership of both old and new CGAs under one key pair).

    Attach it to the co-located {!Manet_dad.Dad} agent with {!attach}. *)

module Address = Manet_ipv6.Address
module Messages = Manet_proto.Messages

type config = {
  commit_wait : float;
      (** seconds a registration stays pending, waiting for warnings *)
}

type t

val create : ?config:config -> Manet_proto.Node_ctx.t -> t
(** The node's identity must already hold the DNS's well-known address
    and key pair. *)

val attach : t -> Manet_dad.Dad.t -> unit
(** Register the AREQ observer and warning sink on this node's DAD
    agent. *)

val preload : t -> name:string -> Address.t -> unit
(** Pre-provision a permanent (name, address) entry — §3.2's public
    server case. *)

val lookup : t -> string -> Address.t option
val entries : t -> (string * Address.t) list
(** Committed entries, sorted by name. *)

val handle : t -> src:int -> Messages.t -> unit
(** Server-side processing of routed [Name_query], [Ip_change_request]
    and [Ip_change_proof] messages (plus forwarding when this node is an
    intermediate hop).  AREQ/AREP flow in through {!attach}. *)
