(* The single keyword table of the scenario format.  manetcheck's
   scenario-keyword rule enforces that every keyword-shaped string
   literal under lib/scenario lives in this file: the parser, the
   validator and the CLI all reference these constants, so the concrete
   grammar is enumerable in one place (and the docs table in README.md
   can be checked against it by eye). *)

module Scenario = Manetsec.Scenario

let schema_name = "manetsim-scenario"
let version = 1

(* --- toplevel ----------------------------------------------------- *)

let kw_scenario = "scenario"
let kw_schema = "schema"

(* --- fields ------------------------------------------------------- *)

let kw_name = "name"
let kw_seed = "seed"
let kw_nodes = "nodes"
let kw_range = "range"
let kw_loss = "loss"
let kw_promiscuous = "promiscuous"
let kw_protocol = "protocol"
let kw_suite = "suite"
let kw_dns = "dns"
let kw_topology = "topology"
let kw_mobility = "mobility"
let kw_bootstrap = "bootstrap"
let kw_duration = "duration"
let kw_run_until = "run-until"
let kw_traffic = "traffic"
let kw_adversaries = "adversaries"
let kw_faults = "faults"
let kw_exports = "exports"

let fields =
  [
    kw_schema; kw_name; kw_seed; kw_nodes; kw_range; kw_loss; kw_promiscuous;
    kw_protocol; kw_suite; kw_dns; kw_topology; kw_mobility; kw_bootstrap;
    kw_duration; kw_run_until; kw_traffic; kw_adversaries; kw_faults;
    kw_exports;
  ]

(* --- atoms -------------------------------------------------------- *)

let kw_true = "true"
let kw_false = "false"

(* --- protocol / suite --------------------------------------------- *)

let kw_secure = "secure"
let kw_dsr = "dsr"
let kw_srp = "srp"
let kw_aodv = "aodv"
let kw_saodv = "saodv"

let protocols =
  [
    (kw_secure, Scenario.Secure);
    (kw_dsr, Scenario.Plain_dsr);
    (kw_srp, Scenario.Srp_protocol);
    (kw_aodv, Scenario.Aodv);
    (kw_saodv, Scenario.Saodv);
  ]

let kw_mock = "mock"
let kw_rsa = "rsa"

type suite_form = Bare of Scenario.suite_spec | Sized of (int -> Scenario.suite_spec)

let suites =
  [ (kw_mock, Bare Scenario.Mock_suite); (kw_rsa, Sized (fun bits -> Scenario.Rsa_suite bits)) ]

(* --- topology ----------------------------------------------------- *)

let kw_chain = "chain"
let kw_grid = "grid"
let kw_random = "random"
let kw_explicit = "explicit"
let topologies = [ kw_chain; kw_grid; kw_random; kw_explicit ]

let kw_spacing = "spacing"
let kw_cols = "cols"
let kw_width = "width"
let kw_height = "height"
let kw_node = "node"

(* --- mobility ----------------------------------------------------- *)

let kw_static = "static"
let kw_waypoint = "waypoint"
let kw_walk = "walk"
let mobilities = [ kw_static; kw_waypoint; kw_walk ]

let kw_min_speed = "min-speed"
let kw_max_speed = "max-speed"
let kw_pause = "pause"
let kw_speed = "speed"
let kw_turn_interval = "turn-interval"

(* --- bootstrap / traffic ------------------------------------------ *)

let kw_stagger = "stagger"
let kw_duplicate_address = "duplicate-address"

let kw_cbr = "cbr"
let kw_src = "src"
let kw_dst = "dst"
let kw_interval = "interval"
let kw_size = "size"
let kw_start = "start"

(* --- adversaries (lib/attacks vocabulary) ------------------------- *)

let kw_blackhole = "blackhole"
let kw_grayhole = "grayhole"
let kw_replayer = "replayer"
let kw_rerr_spammer = "rerr-spammer"
let kw_identity_churner = "identity-churner"
let kw_sleeper = "sleeper"

let kw_prob = "prob"
let kw_every = "every"

(* --- faults (lib/faults vocabulary) ------------------------------- *)

let kw_crash = "crash"
let kw_restart = "restart"
let kw_outage = "outage"
let kw_link_down = "link-down"
let kw_link_up = "link-up"
let kw_flap = "flap"
let kw_partition = "partition"
let kw_degrade = "degrade"
let kw_churn = "churn"

let kw_at = "at"
let kw_from = "from"
let kw_until = "until"
let kw_period = "period"
let kw_loss_good = "loss-good"
let kw_loss_bad = "loss-bad"
let kw_p_good_to_bad = "p-good-to-bad"
let kw_p_bad_to_good = "p-bad-to-good"
let kw_horizon = "horizon"
let kw_mean_up = "mean-up"
let kw_mean_down = "mean-down"

(* --- exports ------------------------------------------------------ *)

let kw_stats_csv = "stats-csv"
let kw_audit_jsonl = "audit-jsonl"
let kw_trace_jsonl = "trace-jsonl"
let kw_metrics_csv = "metrics-csv"
let kw_metrics_prom = "metrics-prom"
let kw_report_json = "report-json"
let kw_perf_json = "perf-json"
let kw_timeline_jsonl = "timeline-jsonl"


let exports =
  [
    (kw_stats_csv, Export.Stats_csv);
    (kw_audit_jsonl, Export.Audit_jsonl);
    (kw_trace_jsonl, Export.Trace_jsonl);
    (kw_metrics_csv, Export.Metrics_csv);
    (kw_metrics_prom, Export.Metrics_prom);
    (kw_report_json, Export.Report_json);
    (kw_perf_json, Export.Perf_json);
    (kw_timeline_jsonl, Export.Timeline_jsonl);
  ]

let export_kinds = List.map fst exports
