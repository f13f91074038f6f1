(** The simulated radio: unit-disk broadcast medium with loss, delay and
    MAC-level retry for unicast frames.

    Nodes are integer ids into a {!Topology}.  Each node registers one
    receive handler; the network invokes it with the link-layer sender.
    Messages are an arbitrary type ['msg]; their wire size is supplied per
    send so that the overhead experiments can account bytes honestly
    without the simulator serializing anything.

    Semantics:
    - [broadcast] reaches every node currently within range, each
      delivery independently subject to the loss probability.
    - [unicast] models a MAC with link-level acknowledgements: up to
      [1 + mac_retries] attempts, each evaluated at its own transmission
      time so mid-retry faults are honoured; if every attempt is lost or
      the target is out of range or down, the sender's [on_fail]
      callback fires after the attempts' worth of time — this is how
      DSR's route maintenance learns a link broke.  A sender that
      crashes mid-retry simply falls silent: no further transmissions
      and no [on_fail].

    Fault state (driven by [lib/faults]): individual links can be
    administratively severed with {!set_link}, the network can be cut in
    two with {!set_partition}, and the loss process can be swapped at
    runtime with {!set_channel} — the default {!Uniform} channel
    reproduces the classic i.i.d. loss, while {!Gilbert_elliott} keeps a
    per-link two-state Markov chain for bursty loss. *)

type 'msg t

type channel =
  | Uniform of { loss : float }  (** i.i.d. per-frame loss *)
  | Gilbert_elliott of {
      p_good_to_bad : float;  (** per-frame P(good -> bad) *)
      p_bad_to_good : float;  (** per-frame P(bad -> good) *)
      loss_good : float;  (** loss probability in the good state *)
      loss_bad : float;  (** loss probability in the bad state *)
    }
      (** Two-state bursty-loss channel; state is kept per (unordered)
          link and advances once per frame crossing that link.  The
          stationary probability of the bad state is
          [p_good_to_bad /. (p_good_to_bad +. p_bad_to_good)]. *)

type config = {
  range : float;  (** unit-disk radio range *)
  loss : float;  (** per-delivery loss probability in [0,1) *)
  bit_rate : float;  (** bits per second; sets transmission delay *)
  prop_delay : float;  (** per-hop propagation delay, seconds *)
  jitter : float;  (** uniform extra delivery delay, seconds *)
  mac_retries : int;  (** extra unicast attempts after the first *)
  promiscuous : bool;
      (** neighbours overhear unicast frames addressed to others — the
          radio mode DSR's automatic route shortening relies on *)
}

val default_config : config
(** 250 m range, no loss, 2 Mb/s, 5 us propagation, 0.1 ms jitter,
    3 retries, promiscuous off. *)

val create : ?config:config -> Engine.t -> Topology.t -> 'msg t

val topology : 'msg t -> Topology.t
val engine : 'msg t -> Engine.t

val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** Replace node [i]'s receive handler (default: drop). *)

val set_down : 'msg t -> int -> bool -> unit
(** A down node neither sends, receives, nor acknowledges. *)

val set_link : 'msg t -> int -> int -> up:bool -> unit
(** Administratively sever ([up:false]) or restore ([up:true]) the
    (unordered) link between two nodes.  A severed link blocks frames in
    both directions regardless of radio range.  Raises [Invalid_argument]
    on a self-link. *)

val set_partition : 'msg t -> int list -> unit
(** Cut the network in two: the listed nodes on one side, everyone else
    on the other.  Frames only cross between same-side nodes.  Replaces
    any previous partition.  Raises [Invalid_argument] on a bad index. *)

val clear_partition : 'msg t -> unit
(** Heal the partition (severed links from {!set_link} stay severed). *)

val set_channel : 'msg t -> channel -> unit
(** Swap the loss process.  Gilbert–Elliott per-link state persists
    across swaps back and forth. *)


val broadcast : 'msg t -> src:int -> size:int -> 'msg -> unit
(** One radio transmission of [size] bytes to all current neighbours. *)

val unicast :
  'msg t -> src:int -> dst:int -> size:int -> ?on_fail:(unit -> unit) ->
  'msg -> unit
(** Link-layer unicast to a (supposed) neighbour. *)

val bytes_sent : 'msg t -> int
(** Total bytes put on the air, including retries. *)

val transmissions : 'msg t -> int
(** Number of radio transmissions (retries counted). *)

val deliveries : 'msg t -> int
val unicast_failures : 'msg t -> int

val scan_hist : 'msg t -> Hist.t
(** Candidates examined per neighbour lookup (one sample per broadcast
    or promiscuous overhear scan): the nodes of the 3x3 block of
    {!Topology.candidates} cells around the sender, so the samples
    follow node degree, not N.  Deterministic; read by the perf
    registry. *)

val fanout_hist : 'msg t -> Hist.t
(** Deliveries actually scheduled per broadcast (after down/link/loss
    filtering).  Deterministic; read by the perf registry. *)

val retries : 'msg t -> int
(** MAC-level unicast retransmission attempts (beyond each first
    attempt).  Deterministic; read by the perf registry. *)
