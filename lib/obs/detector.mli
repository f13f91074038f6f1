(** Online rule-based misbehaviour detector over the {!Audit} stream.

    Each audit event carrying an accused subject contributes a
    kind-specific evidence weight against that node.  Per node the
    detector keeps, over fixed windows of simulated time, the in-window
    weight and an EWMA of the per-window weight (decayed through empty
    windows, rolled lazily — nothing is scheduled on the engine).  A
    node is flagged [suspect] when either its cumulative evidence or
    its EWMA crosses the configured threshold.

    Weights encode how attributable each event family is (see DESIGN.md
    "Security observability" for the rationale and the known limits of
    replay attribution):
    - {!Audit.Blackhole_probe_result}: 1.0 — the §3.4 probe names the
      silent hop directly;
    - {!Audit.Replay_rejected} with a subject: 1.0 — transit-route
      mismatch or a provably stale sequence binding names the
      transmitter;
    - {!Audit.Rerr_frequency}: 1.0 — chronic reporter;
    - {!Audit.Credit_slash}: 0.6, but 0.2 when caused as a probe
      predecessor (the hop {e before} the suspect is only weakly
      implicated);
    - {!Audit.Rerr_implausible}: 0.3;
    - everything else (unattributable failures, ground-truth [Attack_*]
      and [Fault_*] events): 0.0 — ground truth must never feed the
      detector it is used to score. *)

type config = {
  window : float;  (** window length in simulated seconds *)
  ewma_alpha : float;  (** smoothing factor in (0, 1] *)
  ewma_threshold : float;  (** flag when the EWMA reaches this *)
  evidence_threshold : float;  (** flag when cumulative weight reaches this *)
}

type t

val create : ?config:config -> unit -> t
(** The default [config] is 5 s windows, alpha 0.3, EWMA threshold 0.5
    and evidence threshold 1.0. *)

val attach : t -> Audit.t -> unit
(** Subscribe to a live audit stream ({!Audit.on_emit}). *)

val feed : t -> Audit.event -> unit
(** Offline path: score one event (e.g. replayed from a parsed JSONL
    export).  Events must arrive in non-decreasing time order. *)

val suspects : t -> int list
(** Flagged nodes, ascending. *)

type assessment = {
  tp : int;
  fp : int;
  fn : int;
  precision : float;  (** 1.0 when nothing was flagged *)
  recall : float;  (** 1.0 when there were no adversaries *)
}

val score : t -> truth:int list -> assessment
(** Compare {!suspects} against the ground-truth adversary node list. *)

val render_verdicts : t -> string
(** Human-readable verdict table: one row per node that ever had
    evidence, sorted by node, with whether it is a suspect, its
    cumulative evidence weight, the number of contributing events, the
    EWMA peak and the sim time of its first flag. *)
