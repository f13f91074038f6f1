(** Typed scenario descriptions and their compiler.

    A scenario file is one [(scenario ...)] S-expression (concrete
    syntax in {!Sexp}, vocabulary in {!Schema}).  {!parse} decodes and
    validates it into {!t}, rejecting malformed input with positioned
    errors.  {!t} holds the run in the library's own terms: the network
    is a {!Manetsec.Scenario.params} (topology, mobility, protocol,
    suite and adversaries as {!Manetsec.Scenario},
    {!Manetsec.Sim.Mobility} and {!Manetsec.Adversary} values), and
    every field the file leaves out keeps its
    {!Manetsec.Scenario.default_params} value.  {!execute} runs {!t} on
    the existing Engine/Net/Faults/Attacks wiring, so running a file is
    byte-identical to the equivalent hand-coded configuration. *)

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

type duplicate = { joiner : int; owner : int }
(** [joiner] bootstraps with [owner]'s address. *)

type bootstrap = {
  stagger : float;  (** DAD start spacing *)
  duplicates : duplicate list;
      (** forced address collisions, applied in file order before the
          first node bootstraps *)
}

(** One form of the [(faults ...)] field, as written.  The forms stay
    symbolic until {!execute} builds the {!Manetsec.Faults} plan: a
    flap or a churn expands into one step per event, so decoding them
    into a plan would make {!parse} cost O(events) on a hostile file
    ([(period 1e-6)] over a long window) where it is O(forms). *)
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
  params : Manetsec.Scenario.params;  (** the network and its adversaries *)
  bootstrap : bootstrap option;  (** when bootstrap is requested *)
  duration : float;  (** default flow duration *)
  run_until : float option;  (** absolute horizon; default derived from flows *)
  flows : flow list;
  faults : fault list;
  exports : Export.kind list;
}

exception Error of { pos : Sexp.pos; msg : string }
(** Validation error, positioned at the offending form. *)

val parse : string -> t
(** Decode and validate one scenario file.  Raises {!Error} on schema
    violations (unknown/duplicate fields, out-of-range values, bad node
    ids, ...) and {!Sexp.Parse_error} on lexical errors. *)

val execute :
  ?seed:int -> ?on_create:(Manetsec.Scenario.t -> unit) -> t -> Manetsec.Scenario.t
(** Compile and run the scenario: create the {!Manetsec.Scenario},
    call [on_create] on it (default: nothing), switch on the sinks its
    [exports] read ({!Export.prepare}), inject the fault plan, force the
    bootstrap's duplicate addresses ({!Manetsec.Scenario.duplicate_address})
    and bootstrap when requested, start every traffic flow in file
    order, and drive the engine to the horizon.  [seed] overrides
    [params.seed].  [on_create] is for observers that must not perturb
    the run (the wall-clock profiler, the progress heartbeat).  Render
    the exports with {!Export.render} and {!meta}. *)

val meta : t -> seed:int -> (string * Manetsec.Obs_json.t) list
(** The [(scenario, seed)] provenance attached to every export. *)

val sweep :
  domains:int ->
  seeds:int list ->
  exports:Export.kind list ->
  t list ->
  Manetsec.Merge.run list
(** Run every scenario once per seed, fanning the (scenario, seed)
    pairs across {!Manetsec.Parallel.map}, with the sinks [exports]
    read switched on (the files' own exports are not used), and return
    the canonically sorted runs ({!Manetsec.Merge.sorted}), each keyed
    by {!meta} and carrying one stream per requested kind
    ({!Export.merge_run}) — byte-deterministic in [domains].
    Raises [Invalid_argument], before any run, when there is no pair
    to run, on a kind with no merged form, and on two pairs with the
    same [(scenario, seed)] key (a repeated seed, or two files that
    share a [(name ...)]), naming the key. *)
