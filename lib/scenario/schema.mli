(** The single keyword table of the scenario format (schema
    [manetsim-scenario] v1).

    Every keyword of the concrete grammar is a named constant here, and
    manetcheck's [scenario-keyword] rule rejects keyword-shaped string
    literals anywhere else under [lib/scenario] — so this file {e is}
    the grammar's vocabulary, the same way [messages.mli] is the wire
    schema for the proto-schema rule. *)

val schema_name : string
(** ["manetsim-scenario"] — the value of the mandatory [(schema ...)]
    field. *)

val version : int
(** Current (and only) supported schema version. *)

(** {1 Toplevel and field keywords} *)

val kw_scenario : string
val kw_schema : string
val kw_name : string
val kw_seed : string
val kw_nodes : string
val kw_range : string
val kw_loss : string
val kw_promiscuous : string
val kw_protocol : string
val kw_suite : string
val kw_dns : string
val kw_topology : string
val kw_mobility : string
val kw_bootstrap : string
val kw_duration : string
val kw_run_until : string
val kw_traffic : string
val kw_adversaries : string
val kw_faults : string
val kw_exports : string

val fields : string list
(** Every legal field keyword of the [(scenario ...)] body, used for
    unknown-field diagnostics. *)

(** {1 Atoms} *)

val kw_true : string
val kw_false : string

(** {1 Protocol and crypto suite} *)

val protocols : (string * Manetsec.Scenario.protocol) list
(** Every protocol under its keyword, the value of the [(protocol ...)]
    field. *)

type suite_form =
  | Bare of Manetsec.Scenario.suite_spec  (** written as the keyword alone *)
  | Sized of (int -> Manetsec.Scenario.suite_spec)
      (** written [(keyword BITS)], with the modulus size *)

val suites : (string * suite_form) list
(** Every crypto suite under its keyword, the value of the [(suite ...)]
    field. *)

(** {1 Topology} *)

val kw_chain : string
val kw_grid : string
val kw_random : string
val kw_explicit : string
val topologies : string list
val kw_spacing : string
val kw_cols : string
val kw_width : string
val kw_height : string
val kw_node : string

(** {1 Mobility} *)

val kw_static : string
val kw_waypoint : string
val kw_walk : string
val mobilities : string list
val kw_min_speed : string
val kw_max_speed : string
val kw_pause : string
val kw_speed : string
val kw_turn_interval : string

(** {1 Bootstrap and traffic} *)

val kw_stagger : string

val kw_duplicate_address : string
(** [(bootstrap (stagger S) (duplicate-address JOINER OWNER) ...)]: the
    joiner bootstraps with the owner's address (§3.1's collision). *)

val kw_cbr : string
val kw_src : string
val kw_dst : string
val kw_interval : string
val kw_size : string
val kw_start : string

(** {1 Adversaries — the [lib/attacks] vocabulary} *)

val kw_blackhole : string
val kw_grayhole : string
val kw_replayer : string
val kw_rerr_spammer : string
val kw_identity_churner : string
val kw_sleeper : string
val kw_prob : string
val kw_every : string

(** {1 Faults — the [lib/faults] vocabulary} *)

val kw_crash : string
val kw_restart : string
val kw_outage : string
val kw_link_down : string
val kw_link_up : string
val kw_flap : string
val kw_partition : string
val kw_degrade : string
val kw_churn : string
val kw_at : string
val kw_from : string
val kw_until : string
val kw_period : string
val kw_loss_good : string
val kw_loss_bad : string
val kw_p_good_to_bad : string
val kw_p_bad_to_good : string
val kw_horizon : string
val kw_mean_up : string
val kw_mean_down : string

(** {1 Exports} *)

val exports : (string * Export.kind) list
(** Every export kind under its keyword, the one name a kind has in a
    scenario file's [(exports ...)] field and in [manetsim]'s
    [--export] option.  File names, sinks and renderers are
    {!Export}'s. *)

val export_kinds : string list
(** The keywords of {!exports}, in the same order. *)
