module Scenario = Manetsec.Scenario
module Mobility = Manetsec.Sim.Mobility
module Net = Manetsec.Sim.Net
module Engine = Manetsec.Sim.Engine
module Parallel = Manetsec.Sim.Parallel
module Adversary = Manetsec.Adversary
module Faults = Manetsec.Faults
module Json = Manetsec.Obs_json
module Merge = Manetsec.Merge

(* --- types --------------------------------------------------------- *)

type flow = {
  flow_src : int;
  flow_dst : int;
  flow_interval : float;
  flow_size : int;
  flow_start : float option;
  flow_duration : float option;
}

type duplicate = { joiner : int; owner : int }

type bootstrap = { stagger : float; duplicates : duplicate list }

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
  params : Scenario.params;
  bootstrap : bootstrap option;
  duration : float;
  run_until : float option;
  flows : flow list;
  faults : fault list;
  exports : Export.kind list;
}

(* --- positioned errors --------------------------------------------- *)

exception Error of { pos : Sexp.pos; msg : string }

let err pos fmt = Printf.ksprintf (fun msg -> raise (Error { pos; msg })) fmt

let describe = function
  | Sexp.Atom (_, a) -> Printf.sprintf "atom %s" (if String.equal a "" then {|""|} else a)
  | Sexp.List _ -> "a list"

(* --- atom readers --------------------------------------------------- *)

let atom what = function
  | Sexp.Atom (p, s) -> (p, s)
  | Sexp.List (p, _) -> err p "expected %s, got a list" what

let int_v what form =
  let p, s = atom what form in
  match int_of_string_opt s with
  | Some i -> i
  | None -> err p "expected %s (an integer), got %s" what s

let float_v what form =
  let p, s = atom what form in
  match float_of_string_opt s with
  | Some x when Float.is_finite x -> x
  | _ -> err p "expected %s (a finite number), got %s" what s

let bool_v what form =
  let p, s = atom what form in
  if String.equal s Schema.kw_true then true
  else if String.equal s Schema.kw_false then false
  else
    err p "expected %s (%s or %s), got %s" what Schema.kw_true Schema.kw_false s

let positive what form =
  let x = float_v what form in
  if x <= 0.0 then err (Sexp.pos_of form) "expected %s > 0, got %g" what x;
  x

let non_negative what form =
  let x = float_v what form in
  if x < 0.0 then err (Sexp.pos_of form) "expected %s >= 0, got %g" what x;
  x

let fraction what form =
  let x = float_v what form in
  if x < 0.0 || x > 1.0 then
    err (Sexp.pos_of form) "%s out of range: expected a value in [0, 1], got %g"
      what x;
  x

(* --- keyword-headed sub-forms --------------------------------------- *)

type field = {
  f_key : string;
  f_kpos : Sexp.pos;
  f_pos : Sexp.pos;
  f_args : Sexp.t list;
}

let field_of form =
  match form with
  | Sexp.List (p, Sexp.Atom (kp, key) :: args) ->
      { f_key = key; f_kpos = kp; f_pos = p; f_args = args }
  | _ ->
      err (Sexp.pos_of form) "expected a (keyword ...) form, got %s"
        (describe form)

(* Decode [forms] as keyword-headed parameters drawn from [allowed],
   rejecting unknown keywords and duplicates (except keys listed in
   [multi]). *)
let subfields ~what ?(multi = []) allowed forms =
  let fs = List.map field_of forms in
  let seen = ref [] in
  List.iter
    (fun f ->
      if not (List.exists (String.equal f.f_key) allowed) then
        err f.f_kpos "unknown %s parameter %s, expected one of: %s" what f.f_key
          (String.concat ", " allowed);
      if
        List.exists (String.equal f.f_key) !seen
        && not (List.exists (String.equal f.f_key) multi)
      then err f.f_kpos "duplicate %s parameter %s" what f.f_key;
      seen := f.f_key :: !seen)
    fs;
  fs

let find_param fs key = List.find_opt (fun f -> String.equal f.f_key key) fs

let one f =
  match f.f_args with
  | [ v ] -> v
  | _ -> err f.f_pos "parameter (%s ...) expects exactly one value" f.f_key

let req ~what pos fs key =
  match find_param fs key with
  | Some f -> one f
  | None -> err pos "%s is missing its required (%s ...) parameter" what key

let opt fs key ~decode ~default =
  match find_param fs key with Some f -> decode (one f) | None -> default

(* The value [key] names in a keyword table, or a positioned error
   listing the table's keywords. *)
let lookup ~what table pos key =
  match List.assoc_opt key table with
  | Some v -> v
  | None ->
      err pos "unknown %s %s, expected one of: %s" what key
        (String.concat ", " (List.map fst table))

(* The leading node of a [(kind NODE params...)] form, and the rest. *)
let node_then ~what f =
  match f.f_args with
  | node :: rest -> (node, rest)
  | [] -> err f.f_pos "%s (%s ...) names no node" what f.f_key

(* --- node-index checks ---------------------------------------------- *)

let node_idx ~n what form =
  let i = int_v what form in
  if i < 0 || i >= n then
    err (Sexp.pos_of form) "%s out of range: %d is not in [0, %d)" what i n;
  i

let non_dns_node ~n ~dns what form =
  let i = node_idx ~n what form in
  if dns && i = 0 then
    err (Sexp.pos_of form)
      "node 0 hosts the DNS server and cannot be used as %s" what;
  i

(* --- sub-decoders --------------------------------------------------- *)

let decode_topology ~n form =
  let f = field_of form in
  let bad () =
    err f.f_kpos "unknown topology %s, expected one of: %s" f.f_key
      (String.concat ", " Schema.topologies)
  in
  if String.equal f.f_key Schema.kw_chain then begin
    let fs = subfields ~what:"chain topology" [ Schema.kw_spacing ] f.f_args in
    let spacing =
      positive Schema.kw_spacing (req ~what:"chain topology" f.f_pos fs Schema.kw_spacing)
    in
    Scenario.Chain { spacing }
  end
  else if String.equal f.f_key Schema.kw_grid then begin
    let fs =
      subfields ~what:"grid topology" [ Schema.kw_cols; Schema.kw_spacing ]
        f.f_args
    in
    let cols = int_v Schema.kw_cols (req ~what:"grid topology" f.f_pos fs Schema.kw_cols) in
    if cols < 1 then err f.f_pos "grid topology needs cols >= 1, got %d" cols;
    let spacing =
      positive Schema.kw_spacing (req ~what:"grid topology" f.f_pos fs Schema.kw_spacing)
    in
    Scenario.Grid { cols; spacing }
  end
  else if String.equal f.f_key Schema.kw_random then begin
    let fs =
      subfields ~what:"random topology" [ Schema.kw_width; Schema.kw_height ]
        f.f_args
    in
    let width =
      positive Schema.kw_width (req ~what:"random topology" f.f_pos fs Schema.kw_width)
    in
    let height =
      positive Schema.kw_height (req ~what:"random topology" f.f_pos fs Schema.kw_height)
    in
    Scenario.Random { width; height }
  end
  else if String.equal f.f_key Schema.kw_explicit then begin
    let fs =
      subfields ~what:"explicit topology" ~multi:[ Schema.kw_node ]
        [ Schema.kw_width; Schema.kw_height; Schema.kw_node ]
        f.f_args
    in
    let width =
      positive Schema.kw_width (req ~what:"explicit topology" f.f_pos fs Schema.kw_width)
    in
    let height =
      positive Schema.kw_height
        (req ~what:"explicit topology" f.f_pos fs Schema.kw_height)
    in
    let placements =
      List.filter_map
        (fun pf ->
          if not (String.equal pf.f_key Schema.kw_node) then None
          else
            match pf.f_args with
            | [ idx; x; y ] ->
                Some
                  ( node_idx ~n "node id" idx,
                    Sexp.pos_of idx,
                    (float_v "x" x, float_v "y" y) )
            | _ ->
                err pf.f_pos
                  "expected (%s <id> <x> <y>) in explicit topology"
                  Schema.kw_node)
        fs
    in
    let seen = ref [] in
    List.iter
      (fun (i, p, _) ->
        if List.exists (Int.equal i) !seen then
          err p "duplicate node id %d in explicit topology" i;
        seen := i :: !seen)
      placements;
    if List.length placements <> n then
      err f.f_pos "explicit topology places %d node(s), expected %d (one per node)"
        (List.length placements) n;
    let by_id = List.sort (fun (i, _, _) (j, _, _) -> Int.compare i j) placements in
    Scenario.Explicit { width; height; positions = List.map (fun (_, _, xy) -> xy) by_id }
  end
  else bad ()

let decode_mobility form =
  match form with
  | Sexp.Atom (p, s) ->
      if String.equal s Schema.kw_static then Mobility.Static
      else
        err p "unknown mobility %s, expected one of: %s" s
          (String.concat ", " Schema.mobilities)
  | Sexp.List _ ->
      let f = field_of form in
      if String.equal f.f_key Schema.kw_waypoint then begin
        let fs =
          subfields ~what:"waypoint mobility"
            [ Schema.kw_min_speed; Schema.kw_max_speed; Schema.kw_pause ]
            f.f_args
        in
        let min_speed =
          opt fs Schema.kw_min_speed ~decode:(positive Schema.kw_min_speed) ~default:1.0
        in
        let max_speed =
          opt fs Schema.kw_max_speed ~decode:(positive Schema.kw_max_speed) ~default:10.0
        in
        if max_speed < min_speed then
          err f.f_pos "waypoint mobility needs max-speed >= min-speed";
        let pause =
          opt fs Schema.kw_pause ~decode:(non_negative Schema.kw_pause) ~default:2.0
        in
        Mobility.Random_waypoint { min_speed; max_speed; pause }
      end
      else if String.equal f.f_key Schema.kw_walk then begin
        let fs =
          subfields ~what:"walk mobility"
            [ Schema.kw_speed; Schema.kw_turn_interval ]
            f.f_args
        in
        let speed =
          opt fs Schema.kw_speed ~decode:(positive Schema.kw_speed) ~default:5.0
        in
        let turn_interval =
          opt fs Schema.kw_turn_interval ~decode:(positive Schema.kw_turn_interval)
            ~default:4.0
        in
        Mobility.Random_walk { speed; turn_interval }
      end
      else
        err f.f_kpos "unknown mobility %s, expected one of: %s" f.f_key
          (String.concat ", " Schema.mobilities)

let decode_protocol form =
  let p, s = atom "the protocol" form in
  lookup ~what:Schema.kw_protocol Schema.protocols p s

let decode_suite form =
  let p, s, size =
    match form with
    | Sexp.Atom (p, s) -> (p, s, None)
    | Sexp.List _ ->
        let f = field_of form in
        (f.f_kpos, f.f_key, Some f)
  in
  match (lookup ~what:Schema.kw_suite Schema.suites p s, size) with
  | Schema.Bare suite, None -> suite
  | Schema.Sized make, Some f ->
      let bits = int_v (Printf.sprintf "the %s modulus bits" s) (one f) in
      if bits < 64 then
        err f.f_pos "the %s modulus must be at least 64 bits, got %d" s bits;
      make bits
  | Schema.Sized _, None ->
      err p "the %s suite needs a modulus size: write (%s <bits>)" s s
  | Schema.Bare _, Some _ -> err p "the %s suite takes no modulus size: write %s" s s

let decode_flow ~n form =
  let f = field_of form in
  if not (String.equal f.f_key Schema.kw_cbr) then
    err f.f_kpos "unknown traffic generator %s, expected (%s ...)" f.f_key
      Schema.kw_cbr;
  let fs =
    subfields ~what:"cbr flow"
      [
        Schema.kw_src; Schema.kw_dst; Schema.kw_interval; Schema.kw_size;
        Schema.kw_start; Schema.kw_duration;
      ]
      f.f_args
  in
  let flow_src =
    node_idx ~n "the flow source" (req ~what:"cbr flow" f.f_pos fs Schema.kw_src)
  in
  let flow_dst =
    node_idx ~n "the flow destination"
      (req ~what:"cbr flow" f.f_pos fs Schema.kw_dst)
  in
  if Int.equal flow_src flow_dst then
    err f.f_pos "cbr flow source and destination are both node %d" flow_src;
  let flow_interval =
    opt fs Schema.kw_interval ~decode:(positive Schema.kw_interval) ~default:0.5
  in
  let flow_size =
    opt fs Schema.kw_size ~default:512 ~decode:(fun form ->
        let s = int_v Schema.kw_size form in
        if s <= 0 then err (Sexp.pos_of form) "expected size > 0, got %d" s;
        s)
  in
  let flow_start =
    opt fs Schema.kw_start ~default:None ~decode:(fun form ->
        Some (non_negative Schema.kw_start form))
  in
  let flow_duration =
    opt fs Schema.kw_duration ~default:None ~decode:(fun form ->
        Some (non_negative Schema.kw_duration form))
  in
  { flow_src; flow_dst; flow_interval; flow_size; flow_start; flow_duration }

(* Each adversary kind with the behaviour its parameters build; a kind
   accepts only its own parameter. *)
let adversary_kinds =
  let fixed behavior kind params =
    (match List.map field_of params with
    | [] -> ()
    | p :: _ -> err p.f_kpos "adversary %s takes no parameters" kind);
    behavior
  in
  let with_param key ~decode ~default make kind params =
    make (opt (subfields ~what:(kind ^ " adversary") [ key ] params) key ~decode ~default)
  in
  let every ~default make =
    with_param Schema.kw_every ~decode:(positive Schema.kw_every) ~default (fun every ->
        make ~every)
  in
  [
    (Schema.kw_blackhole, fixed Adversary.blackhole);
    ( Schema.kw_grayhole,
      with_param Schema.kw_prob ~decode:(fraction Schema.kw_prob) ~default:0.5
        Adversary.grayhole );
    (Schema.kw_replayer, fixed Adversary.replayer);
    (Schema.kw_rerr_spammer, every ~default:1.0 Adversary.rerr_spammer);
    (Schema.kw_identity_churner, every ~default:10.0 Adversary.identity_churner);
    (Schema.kw_sleeper, fixed Adversary.sleeper);
  ]

let decode_adversary ~n ~dns form =
  let f = field_of form in
  let behavior = lookup ~what:"adversary kind" adversary_kinds f.f_kpos f.f_key in
  let node_form, params = node_then ~what:"adversary" f in
  (non_dns_node ~n ~dns "an adversary" node_form, behavior f.f_key params)

(* A forced collision needs its timing stated: the joiner meets the
   owner's address only if the owner has configured it by then. *)
let decode_bootstrap ~n ~dns f =
  let fs =
    subfields ~what:Schema.kw_bootstrap ~multi:[ Schema.kw_duplicate_address ]
      [ Schema.kw_stagger; Schema.kw_duplicate_address ]
      f.f_args
  in
  let stagger_stated = Option.is_some (find_param fs Schema.kw_stagger) in
  let add_duplicate acc d =
    if not (String.equal d.f_key Schema.kw_duplicate_address) then acc
    else
      match d.f_args with
      | [ j; o ] ->
          let joiner = non_dns_node ~n ~dns "a duplicate-address joiner" j in
          let owner = node_idx ~n "a duplicate-address owner" o in
          if Int.equal joiner owner then
            err d.f_pos "duplicate-address joiner and owner are both node %d" joiner;
          if List.exists (fun prev -> Int.equal prev.joiner joiner) acc then
            err (Sexp.pos_of j) "node %d joins with two duplicate addresses" joiner;
          if not stagger_stated then
            err d.f_pos "(%s ...) needs the bootstrap's (%s ...) stated"
              Schema.kw_duplicate_address Schema.kw_stagger;
          { joiner; owner } :: acc
      | _ ->
          err d.f_pos "expected (%s <joiner> <owner>) in bootstrap"
            Schema.kw_duplicate_address
  in
  {
    stagger = opt fs Schema.kw_stagger ~decode:(non_negative Schema.kw_stagger) ~default:0.5;
    duplicates = List.rev (List.fold_left add_duplicate [] fs);
  }

let decode_fault ~n ~dns form =
  let f = field_of form in
  let window ~what fs =
    let from_ =
      non_negative Schema.kw_from (req ~what f.f_pos fs Schema.kw_from)
    in
    let until = non_negative Schema.kw_until (req ~what f.f_pos fs Schema.kw_until) in
    if until <= from_ then
      err f.f_pos "%s window is empty: until %g is not after from %g" what until
        from_;
    (from_, until)
  in
  let at ~what fs = non_negative Schema.kw_at (req ~what f.f_pos fs Schema.kw_at) in
  (* crash, restart, outage: (kind NODE params...) *)
  let on_node ~what ~params allowed build () =
    let node_form, rest = node_then ~what:"fault" f in
    let node = non_dns_node ~n ~dns what node_form in
    build node (subfields ~what:params allowed rest)
  in
  (* link-down, link-up, flap: (kind A B params...) *)
  let on_link ~what allowed build () =
    match f.f_args with
    | a_form :: b_form :: rest ->
        let a = node_idx ~n "a link endpoint" a_form in
        let b = node_idx ~n "a link endpoint" b_form in
        if Int.equal a b then err f.f_pos "link fault endpoints are both node %d" a;
        build a b (subfields ~what allowed rest)
    | _ -> err f.f_pos "fault (%s ...) needs two link endpoints" f.f_key
  in
  (* partition members, churning nodes: a non-empty (nodes ...) list *)
  let nodes ~what ~list decode fs =
    match find_param fs Schema.kw_nodes with
    | None -> err f.f_pos "%s is missing its (%s ...) %s" what Schema.kw_nodes list
    | Some mf ->
        if List.length mf.f_args = 0 then err mf.f_pos "%s %s is empty" what list;
        List.map decode mf.f_args
  in
  let fault_kinds =
    [
      ( Schema.kw_crash,
        on_node ~what:"a crash/restart fault" ~params:"fault" [ Schema.kw_at ]
          (fun node fs -> Crash { node; at = at ~what:"the fault" fs }) );
      ( Schema.kw_restart,
        on_node ~what:"a crash/restart fault" ~params:"fault" [ Schema.kw_at ]
          (fun node fs -> Restart { node; at = at ~what:"the fault" fs }) );
      ( Schema.kw_outage,
        on_node ~what:"an outage fault" ~params:Schema.kw_outage
          [ Schema.kw_from; Schema.kw_until ]
          (fun node fs ->
            let down_from, down_until = window ~what:"the outage" fs in
            Outage { node; down_from; down_until }) );
      ( Schema.kw_link_down,
        on_link ~what:"link fault" [ Schema.kw_at ] (fun a b fs ->
            Link_down { a; b; at = at ~what:"the link fault" fs }) );
      ( Schema.kw_link_up,
        on_link ~what:"link fault" [ Schema.kw_at ] (fun a b fs ->
            Link_up { a; b; at = at ~what:"the link fault" fs }) );
      ( Schema.kw_flap,
        on_link ~what:Schema.kw_flap
          [ Schema.kw_from; Schema.kw_until; Schema.kw_period ]
          (fun a b fs ->
            let flap_from, flap_until = window ~what:"the flap" fs in
            let period =
              positive Schema.kw_period (req ~what:"the flap" f.f_pos fs Schema.kw_period)
            in
            Flap { a; b; flap_from; flap_until; period }) );
      ( Schema.kw_partition,
        fun () ->
          let fs =
            subfields ~what:Schema.kw_partition
              [ Schema.kw_from; Schema.kw_until; Schema.kw_nodes ]
              f.f_args
          in
          let cut_from, cut_until = window ~what:"the partition" fs in
          let members =
            nodes ~what:"the partition" ~list:"member list"
              (node_idx ~n "a partition member") fs
          in
          Partition { cut_from; cut_until; members } );
      ( Schema.kw_degrade,
        fun () ->
          let fs =
            subfields ~what:Schema.kw_degrade
              [
                Schema.kw_from; Schema.kw_until; Schema.kw_loss_good;
                Schema.kw_loss_bad; Schema.kw_p_good_to_bad; Schema.kw_p_bad_to_good;
              ]
              f.f_args
          in
          let bad_from, bad_until = window ~what:"the degrade" fs in
          let loss_good =
            opt fs Schema.kw_loss_good ~decode:(fraction Schema.kw_loss_good) ~default:0.01
          in
          let loss_bad =
            opt fs Schema.kw_loss_bad ~decode:(fraction Schema.kw_loss_bad) ~default:0.8
          in
          let p_good_to_bad =
            fraction Schema.kw_p_good_to_bad
              (req ~what:"the degrade" f.f_pos fs Schema.kw_p_good_to_bad)
          in
          let p_bad_to_good =
            fraction Schema.kw_p_bad_to_good
              (req ~what:"the degrade" f.f_pos fs Schema.kw_p_bad_to_good)
          in
          Degrade { bad_from; bad_until; loss_good; loss_bad; p_good_to_bad; p_bad_to_good } );
      ( Schema.kw_churn,
        fun () ->
          let fs =
            subfields ~what:Schema.kw_churn
              [
                Schema.kw_seed; Schema.kw_nodes; Schema.kw_horizon; Schema.kw_mean_up;
                Schema.kw_mean_down;
              ]
              f.f_args
          in
          let churn_seed =
            int_v "the churn seed" (req ~what:"the churn" f.f_pos fs Schema.kw_seed)
          in
          let churn_nodes =
            nodes ~what:"the churn" ~list:"node list"
              (non_dns_node ~n ~dns "a churning node") fs
          in
          let positive_req key = positive key (req ~what:"the churn" f.f_pos fs key) in
          let horizon = positive_req Schema.kw_horizon in
          let mean_up = positive_req Schema.kw_mean_up in
          let mean_down = positive_req Schema.kw_mean_down in
          Churn { churn_seed; churn_nodes; horizon; mean_up; mean_down } );
    ]
  in
  lookup ~what:"fault kind" fault_kinds f.f_kpos f.f_key ()

let decode_export form =
  let p, s = atom "an export kind" form in
  lookup ~what:"export" Schema.exports p s

(* --- the toplevel decoder ------------------------------------------- *)

let name_ok s =
  String.length s > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_')
       s

(* Every field the file leaves out keeps its value from
   [Scenario.default_params]. *)
let of_sexp form =
  let top_pos, body =
    match form with
    | Sexp.List (p, Sexp.Atom (_, head) :: body)
      when String.equal head Schema.kw_scenario ->
        (p, body)
    | _ ->
        err (Sexp.pos_of form) "expected a (%s ...) form, got %s"
          Schema.kw_scenario (describe form)
  in
  let fields = List.map field_of body in
  let seen = ref [] in
  List.iter
    (fun f ->
      if not (List.exists (String.equal f.f_key) Schema.fields) then
        err f.f_kpos "unknown field %s, expected one of: %s" f.f_key
          (String.concat ", " Schema.fields);
      if List.exists (String.equal f.f_key) !seen then
        err f.f_kpos "duplicate field %s" f.f_key;
      seen := f.f_key :: !seen)
    fields;
  let find key = List.find_opt (fun f -> String.equal f.f_key key) fields in
  let require key =
    match find key with
    | Some f -> f
    | None -> err top_pos "missing required field (%s ...)" key
  in
  (* schema first: refuse to interpret anything under the wrong version *)
  (let f = require Schema.kw_schema in
   match f.f_args with
   | [ n_form; v_form ] ->
       let np, nm = atom "the schema name" n_form in
       if not (String.equal nm Schema.schema_name) then
         err np "expected schema %s, got %s" Schema.schema_name nm;
       let ver = int_v "the schema version" v_form in
       if ver <> Schema.version then
         err (Sexp.pos_of v_form) "unsupported schema version %d, expected %d"
           ver Schema.version
   | _ ->
       err f.f_pos "field %s expects a schema name and a version" f.f_key);
  let name =
    let f = require Schema.kw_name in
    let p, s = atom "the scenario name" (one f) in
    if not (name_ok s) then
      err p
        "invalid scenario name %s: use lowercase letters, digits, hyphen or \
         underscore"
        s;
    s
  in
  let n =
    let f = require Schema.kw_nodes in
    let v = int_v "the node count" (one f) in
    if v < 2 then err (Sexp.pos_of (one f)) "need at least 2 nodes, got %d" v;
    v
  in
  let d = Scenario.default_params in
  let single key ~decode ~default =
    match find key with Some f -> decode (one f) | None -> default
  in
  let seed = single Schema.kw_seed ~decode:(int_v "the seed") ~default:d.seed in
  let range = single Schema.kw_range ~decode:(positive Schema.kw_range) ~default:d.range in
  let loss = single Schema.kw_loss ~decode:(fraction Schema.kw_loss) ~default:d.loss in
  let promiscuous =
    single Schema.kw_promiscuous ~decode:(bool_v Schema.kw_promiscuous)
      ~default:d.promiscuous
  in
  let protocol = single Schema.kw_protocol ~decode:decode_protocol ~default:d.protocol in
  let suite = single Schema.kw_suite ~decode:decode_suite ~default:d.suite in
  let dns = single Schema.kw_dns ~decode:(bool_v Schema.kw_dns) ~default:d.with_dns in
  let topology =
    single Schema.kw_topology ~decode:(decode_topology ~n) ~default:d.topology
  in
  let mobility = single Schema.kw_mobility ~decode:decode_mobility ~default:d.mobility in
  let bootstrap = Option.map (decode_bootstrap ~n ~dns) (find Schema.kw_bootstrap) in
  let duration =
    single Schema.kw_duration ~decode:(non_negative Schema.kw_duration) ~default:60.0
  in
  let run_until =
    match find Schema.kw_run_until with
    | None -> None
    | Some f -> Some (positive Schema.kw_run_until (one f))
  in
  let flows =
    match find Schema.kw_traffic with
    | None -> []
    | Some f -> List.map (decode_flow ~n) f.f_args
  in
  let adversaries =
    match find Schema.kw_adversaries with
    | None -> d.adversaries
    | Some f ->
        let advs = List.map (decode_adversary ~n ~dns) f.f_args in
        let nodes_seen = ref [] in
        List.iteri
          (fun i (node, _) ->
            if List.exists (Int.equal node) !nodes_seen then
              err (Sexp.pos_of (List.nth f.f_args i))
                "node %d is given two adversary behaviours" node;
            nodes_seen := node :: !nodes_seen)
          advs;
        advs
  in
  let faults =
    match find Schema.kw_faults with
    | None -> []
    | Some f -> List.map (decode_fault ~n ~dns) f.f_args
  in
  let exports =
    match find Schema.kw_exports with
    | None -> []
    | Some f ->
        let exs = List.map decode_export f.f_args in
        let seen_ex = ref [] in
        List.iteri
          (fun i e ->
            if List.mem e !seen_ex then
              err
                (Sexp.pos_of (List.nth f.f_args i))
                "duplicate export %s"
                (match List.nth f.f_args i with
                | Sexp.Atom (_, s) -> s
                | Sexp.List _ -> "")
            else seen_ex := e :: !seen_ex)
          exs;
        exs
  in
  let params =
    {
      d with
      n; seed; range; loss; promiscuous; protocol; suite; with_dns = dns;
      topology; mobility; adversaries;
    }
  in
  { name; params; bootstrap; duration; run_until; flows; faults; exports }

let parse text =
  match Sexp.parse text with
  | [ form ] -> of_sexp form
  | [] ->
      raise
        (Error
           {
             pos = { Sexp.line = 1; col = 1 };
             msg =
               Printf.sprintf "empty input: expected one (%s ...) form"
                 Schema.kw_scenario;
           })
  | _ :: second :: _ ->
      err (Sexp.pos_of second)
        "expected exactly one toplevel (%s ...) form, found more"
        Schema.kw_scenario

(* --- compilation into the Engine/Net/Faults/Attacks wiring ---------- *)

let fault_plan t =
  Faults.seq
    (List.map
       (function
         | Crash { node; at } -> Faults.crash ~at node
         | Restart { node; at } -> Faults.restart ~at node
         | Outage { node; down_from; down_until } ->
             Faults.outage ~from:down_from ~until:down_until node
         | Link_down { a; b; at } -> Faults.link_down ~at a b
         | Link_up { a; b; at } -> Faults.link_up ~at a b
         | Flap { a; b; flap_from; flap_until; period } ->
             Faults.flap ~from:flap_from ~until:flap_until ~period a b
         | Partition { cut_from; cut_until; members } ->
             Faults.partition ~from:cut_from ~until:cut_until members
         | Degrade
             { bad_from; bad_until; loss_good; loss_bad; p_good_to_bad;
               p_bad_to_good } ->
             Faults.degrade ~from:bad_from ~until:bad_until
               ~channel:
                 (Faults.gilbert_elliott ~loss_good ~loss_bad ~p_good_to_bad
                    ~p_bad_to_good ())
               ~baseline:(Net.Uniform { loss = t.params.loss })
         | Churn { churn_seed; churn_nodes; horizon; mean_up; mean_down } ->
             Faults.churn ~seed:churn_seed ~nodes:churn_nodes ~horizon ~mean_up
               ~mean_down)
       t.faults)

let execute ?seed ?(on_create = ignore) t =
  let seed = Option.value seed ~default:t.params.seed in
  let s = Scenario.create { t.params with seed } in
  on_create s;
  Export.prepare t.exports s;
  (match t.faults with
  | [] -> ()
  | _ -> Scenario.inject s (fault_plan t));
  (match t.bootstrap with
  | Some { stagger; duplicates } ->
      List.iter
        (fun { joiner; owner } -> Scenario.duplicate_address s ~joiner ~owner)
        duplicates;
      Scenario.bootstrap ~stagger s
  | None -> ());
  let engine = Scenario.engine s in
  (* Flow starts are absolute but the bootstrap horizon isn't knowable
     when the file is written: clamp to the post-bootstrap clock so
     (start ...) earlier than bootstrap completion means "immediately". *)
  let now = Engine.now engine in
  let flow_start f = Float.max now (Option.value f.flow_start ~default:now) in
  List.iter
    (fun f ->
      Scenario.start_cbr s
        ~flows:[ (f.flow_src, f.flow_dst) ]
        ~interval:f.flow_interval ~size:f.flow_size ~start_at:(flow_start f)
        ~duration:(Option.value f.flow_duration ~default:t.duration)
        ())
    t.flows;
  let until =
    match t.run_until with
    | Some u -> u
    | None ->
        let flow_end f =
          flow_start f +. Option.value f.flow_duration ~default:t.duration
        in
        List.fold_left (fun acc f -> Float.max acc (flow_end f)) now t.flows
        +. 30.0
  in
  Scenario.run s ~until;
  s

(* --- exports -------------------------------------------------------- *)

let meta t ~seed =
  [
    (Schema.kw_scenario, Json.String t.name); (Schema.kw_seed, Json.Int seed);
  ]

(* --- sweeps: every (file, seed) pair -------------------------------- *)

let compare_run (a, sa) (b, sb) =
  match String.compare a.name b.name with 0 -> Int.compare sa sb | c -> c

let sweep ~domains ~seeds ~exports ts =
  let jobs = List.concat_map (fun t -> List.map (fun seed -> (t, seed)) seeds) ts in
  if jobs = [] then invalid_arg "Scn.sweep: empty scenario or seed list";
  Export.check_mergeable exports;
  let rec check_unique = function
    | ((t, seed) as a) :: (b :: _ as rest) ->
        if compare_run a b = 0 then
          invalid_arg
            (Printf.sprintf "Scn.sweep: duplicate run key (%s, %d)" t.name seed);
        check_unique rest
    | [ _ ] | [] -> ()
  in
  check_unique (List.sort compare_run jobs);
  let run_one (t, seed) =
    Export.merge_run ~key:(meta t ~seed) exports
      (execute ~seed { t with exports })
  in
  Merge.sorted (Parallel.map ~domains run_one jobs)
