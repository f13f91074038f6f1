(** Run reports and trace queries over the observability data.

    Two consumers share this module: the simulator itself, which emits a
    JSON run report at the end of a run ({!run_report}), and the
    [manetsim report] CLI, which re-reads an exported JSONL trace
    ({!parse_jsonl}) and renders span trees, per-phase latency
    percentiles and top-k slow spans as plain text.  Nothing here
    prints; every renderer returns a string. *)

(** {1 Neutral span representation} *)

type span_info = {
  i_id : int;
  i_parent : int option;
  i_kind : string;
  i_node : int;
  i_detail : string;
  i_start : float;
  i_end : float option;
  i_outcome : string option;  (** ["ok"] etc., [None] while open *)
  i_reason : string option;
  i_notes : (float * int * string) list;  (** oldest first *)
}

(** {1 JSON run report} *)

val run_report :
  engine:Manet_sim.Engine.t ->
  obs:Obs.t ->
  ?extra:(string * Json.t) list ->
  unit ->
  Json.t
(** One JSON object: schema/version header, [extra] caller fields (seed,
    scenario name, ...), sim-domain totals, every Stats counter and
    summary (with p50/p90/p99), per-kind span aggregates, per-phase
    latency percentiles, and the engine wall-clock profile.  The profile
    section is the only part fed by the host clock, which is why the
    report — unlike the JSONL trace — is not byte-stable. *)

(** {1 Reading a JSONL trace back} *)

type parsed = {
  header : Json.t;
  spans : span_info list;  (** id order *)
  events : Obs.event list;  (** log order *)
}

val parse_jsonl : string -> parsed
(** Parse the output of {!Obs.to_jsonl}.  Raises {!Json.Parse_error} on
    malformed input, wrong schema or unsupported version. *)

(** {1 Text renderers} *)

val render_tree : parsed -> string
(** The causal span forest, children indented under parents (spans whose
    parent id is absent from the file render as roots), with hop notes,
    durations and outcomes. *)

val render_phases : parsed -> string
(** Per-phase count/min/p50/p90/p99/max table over [dad.convergence],
    [re_dad.convergence] and [route.discovery_rtt]. *)

val render_top : ?k:int -> parsed -> string
(** The [k] (default 10) longest finished spans, slowest first. *)
