(** Typed scenario descriptions and their compiler.

    A scenario file is one [(scenario ...)] S-expression (concrete
    syntax in {!Sexp}, vocabulary in {!Schema}).  {!parse} decodes and
    validates it into {!t}, rejecting malformed input with positioned
    errors; {!execute} compiles {!t} onto the existing
    Engine/Net/Faults/Attacks wiring so that running a file is
    byte-identical to the equivalent hand-coded configuration. *)

type topology =
  | Chain of { spacing : float }
  | Grid of { cols : int; spacing : float }
  | Random of { width : float; height : float }
  | Explicit of { width : float; height : float; positions : (float * float) list }

type mobility =
  | Static
  | Waypoint of { min_speed : float; max_speed : float; pause : float }
  | Walk of { speed : float; turn_interval : float }

type protocol = Secure | Dsr | Srp
type suite = Mock | Rsa of int

type flow = {
  flow_src : int;
  flow_dst : int;
  flow_interval : float;
  flow_size : int;
  flow_start : float option;
      (** absolute start time, clamped to the post-bootstrap clock;
          default: now *)
  flow_duration : float option;  (** default: the scenario duration *)
}

type adversary_kind =
  | Blackhole
  | Grayhole of float  (** drop probability *)
  | Replayer
  | Rerr_spammer of float  (** period *)
  | Identity_churner of float  (** period *)
  | Sleeper

type adversary = { adv_node : int; adv_kind : adversary_kind }

type fault =
  | Crash of { node : int; at : float }
  | Restart of { node : int; at : float }
  | Outage of { node : int; down_from : float; down_until : float }
  | Link_down of { a : int; b : int; at : float }
  | Link_up of { a : int; b : int; at : float }
  | Flap of { a : int; b : int; flap_from : float; flap_until : float; period : float }
  | Partition of { cut_from : float; cut_until : float; members : int list }
  | Degrade of {
      bad_from : float;
      bad_until : float;
      loss_good : float;
      loss_bad : float;
      p_good_to_bad : float;
      p_bad_to_good : float;
    }
  | Churn of {
      churn_seed : int;
      churn_nodes : int list;
      horizon : float;
      mean_up : float;
      mean_down : float;
    }

type t = {
  name : string;
  seed : int;
  nodes : int;
  range : float;
  loss : float;
  promiscuous : bool;
  protocol : protocol;
  suite : suite;
  dns : bool;
  topology : topology;
  mobility : mobility;
  bootstrap : float option;  (** DAD stagger, when bootstrap is requested *)
  duration : float;  (** default flow duration *)
  run_until : float option;  (** absolute horizon; default derived from flows *)
  flows : flow list;
  adversaries : adversary list;
  faults : fault list;
  exports : Manetsec.Export.kind list;
}

exception Error of { pos : Sexp.pos; msg : string }
(** Validation error, positioned at the offending form. *)

val parse : string -> t
(** Decode and validate one scenario file.  Raises {!Error} on schema
    violations (unknown/duplicate fields, out-of-range values, bad node
    ids, ...) and {!Sexp.Parse_error} on lexical errors. *)

val execute : ?seed:int -> t -> Manetsec.Scenario.t
(** Compile and run the scenario: create the {!Manetsec.Scenario},
    switch on the sinks its [exports] read ({!Manetsec.Export.prepare}),
    inject the fault plan, bootstrap when requested, start every
    traffic flow in file order, and drive the engine to the horizon.
    [seed] overrides the file's seed.  Render the exports with
    {!Manetsec.Export.render} and {!meta}. *)

val meta : t -> seed:int -> (string * Manetsec.Obs_json.t) list
(** The [(scenario, seed)] provenance attached to every export. *)

val sweep :
  domains:int -> seeds:int list -> exports:Manetsec.Export.kind list -> t -> Manetsec.Merge.run list
(** Run the scenario once per seed on {!Manetsec.Parallel.map}, with
    the sinks [exports] read switched on (the file's own exports are
    not used), and return the canonically sorted runs
    ({!Manetsec.Merge.sorted}), one stream per requested kind
    ({!Manetsec.Export.merge_run}) — byte-deterministic in [domains].
    Raises [Invalid_argument] on an empty seed list or a kind with no
    merged form. *)
