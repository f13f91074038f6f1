(** The verdict of an acceptance check on a signed reply or route error
    (§3.3–§3.4).  A protocol's check judges one message and changes no
    state; one shared path acts on the verdict
    ([Manet_dsr.Source_route.consume_reply] and [consume_rerr], DAD's
    initiator). *)

module Address = Manet_ipv6.Address

(** What was checked of one signed part of a message. *)
type check =
  | Cga  (** the address is the CGA of the attached key, and the signature verifies *)
  | Sig  (** a signature or MAC verifies under a key held in advance *)
  | Unchecked  (** nothing: the unauthenticated baseline *)

(** Who a rejection holds accountable: nobody, the radio sender of the
    copy, or a named address. *)
type party = Nobody | Sender | Node of Address.t

type rejection = {
  kind : Manet_obs.Audit.kind;
  cause : string;
  party : party;
  counter : Manet_sim.Stats.key;  (** the protocol's reject counter *)
}

type 'a t =
  | Accepted of { checks : check list; value : 'a }
      (** [checks]: one per signed part, in message order; [value]: what
          acting on it needs, such as a reply's route metadata *)
  | Rejected of rejection

val reject : Manet_sim.Stats.key -> ?party:party -> Manet_obs.Audit.kind -> string -> 'a t
(** [reject counter kind cause]; [party] defaults to [Nobody]. *)

(** Why a host check failed: forged identity material, or stale or
    tampered content under a good binding. *)
type failure = Bad_binding | Bad_sig

val host :
  ?trusted:string Address.Tbl.t ->
  Node_ctx.t ->
  ip:Address.t ->
  pk:string ->
  rn:int64 ->
  payload:string ->
  signature:string ->
  (check, failure) result
(** The two checks of §3 on one host, in this order: the binding, by the
    CGA rule ([Ok Cga]) or, for an address in [trusted], by equality
    with its pre-distributed key ([Ok Sig]); then the signature over
    [payload]. *)

val audit : Node_ctx.t -> src:int -> rejection -> unit
(** Emit the audit event and bump the counter; [src] is the radio
    sender a [Sender] party names. *)

val finish_span : Node_ctx.t -> ('k -> string) -> 'k -> 'a t -> unit
(** [finish_span ctx key k v] finishes the span filed under [key k], if
    any, as [Ok] or [Rejected "signature check failed"].  The key is
    built only while the event log is on. *)
