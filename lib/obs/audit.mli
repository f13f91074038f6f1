(** Security audit stream: typed, schema-versioned security events.

    Where {!Obs} records {e causal} telemetry (spans, correlation), the
    audit stream records {e security posture}: every verification
    failure, replay rejection, credit slash, probe verdict and conflict
    the protocol layers observe, each attributed to the emitting node
    and — when the protocol can name one — an accused subject.  The
    paper's §4 analysis is qualitative; this stream is what turns it
    into queryable, per-node, per-time data.

    One [Audit.t] is shared by every node of a scenario (it lives inside
    {!Obs.t}).  Emission is always on: instrumented sites call
    {!emit} unconditionally, subscribers (the metrics engine) always see
    every event, and the [recording] switch only controls whether events
    are additionally retained in memory for {!to_jsonl}.  [emit] never
    draws randomness, never schedules engine events and never touches
    protocol state, so the layer cannot perturb a simulation: traces are
    byte-identical with recording on or off (the bench's "audit" section
    proves this).

    Everything recorded is a function of the deterministic sim domain,
    so {!to_jsonl} is byte-identical across replays of the same seed. *)

module Engine = Manet_sim.Engine

(** Event classification.  The [Attack_*] constructors are {e ground
    truth}: they are emitted by the adversary implementations in
    [lib/attacks] alongside their existing counters, and exist so a run
    can score blame against what the adversaries actually did.
    [Fault_*] likewise records injected churn.  Neither family is ever
    evidence of misbehaviour by its subject. *)
type kind =
  | Sig_verify_fail  (** a signature check failed (§3.2–§3.4 checks) *)
  | Cga_mismatch  (** an address-to-key CGA binding failed (§3.1) *)
  | Replay_rejected  (** stale/unsolicited message rejected (§4) *)
  | Credit_slash  (** §3.4 credit system slashed a host *)
  | Rerr_rejected  (** route error failed authentication *)
  | Rerr_implausible  (** authentic RERR for a link we never held *)
  | Rerr_frequency  (** chronic RERR reporter flagged (§3.4) *)
  | Blackhole_probe_result  (** §3.4 probe localized a silent hop *)
  | Dns_conflict  (** DNS registration conflict / forced cancel *)
  | Dad_collision  (** duplicate address detected during DAD (§3.1) *)
  | Unverified_accept  (** baseline accepted an unauthenticated claim *)
  | Fault_crash  (** injected fault: node crashed *)
  | Fault_restart  (** injected fault: node restarted *)
  | Attack_forgery  (** ground truth: adversary forged a message *)
  | Attack_replay  (** ground truth: adversary replayed a capture *)
  | Attack_drop  (** ground truth: adversary dropped data/probes *)
  | Attack_impersonation  (** ground truth: adversary impersonated *)
  | Attack_rerr  (** ground truth: adversary fabricated a RERR *)
  | Attack_churn  (** ground truth: adversary churned identities *)

val all_kinds : kind list
(** Every constructor once, in declaration order. *)

val kind_label : kind -> string
(** Stable snake_case label used in exports (e.g. ["replay_rejected"]). *)

type event = {
  seq : int;  (** dense, starting at 1, in emission order *)
  time : float;  (** simulated time *)
  kind : kind;
  node : int;  (** emitting node *)
  subject_node : int option;
      (** accused/affected node, when the emitter could resolve one *)
  subject_addr : string option;
      (** accused/affected address as printed text, when known *)
  cause : string;
}

type t

val create : ?capacity:int -> Engine.t -> t
(** One per scenario.  [capacity] caps in-memory retention (default
    200_000, oldest dropped first); emission and subscriber delivery are
    unaffected by the cap. *)

val emit :
  t ->
  kind:kind ->
  node:int ->
  ?subject_node:int ->
  ?subject_addr:string ->
  cause:string ->
  unit ->
  unit
(** Record one security event at the current simulated time.  Always
    notifies subscribers; retains the event only while [recording]. *)

val on_emit : t -> (event -> unit) -> unit
(** Subscribe to every subsequent emission (the metrics engine).
    Subscribers run synchronously in subscription order. *)

val set_recording : t -> bool -> unit
(** In-memory retention switch; default on.  Off, {!emit} still counts
    and notifies but stores nothing. *)

val count : t -> int
(** Total events emitted (including unretained ones). *)

(** {1 Export / import} *)

val to_jsonl : ?meta:(string * Json.t) list -> t -> string
(** One header line (schema ["manetsim-audit"], version, counts — the
    number of retained events dropped to the cap among them — extended
    with [meta]), then one line per retained event in seq order.
    Byte-identical across replays of the same seed. *)

type parsed = { header : Json.t; parsed_events : event list }

val parse_jsonl : string -> parsed
(** Inverse of {!to_jsonl} for offline analysis.  Raises
    {!Json.Parse_error} on malformed lines, wrong schema or unknown
    event kinds. *)

(** {1 Rendering} *)

val render_timeline : event list -> string
(** Human-readable event timeline, one line per event. *)

val render_scorecards : event list -> string
(** Per-node security scorecard: events emitted and accusations
    received, broken down by kind. *)
