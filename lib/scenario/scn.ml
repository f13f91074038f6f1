module Scenario = Manetsec.Scenario
module Mobility = Manetsec.Sim.Mobility
module Net = Manetsec.Sim.Net
module Engine = Manetsec.Sim.Engine
module Parallel = Manetsec.Sim.Parallel
module Adversary = Manetsec.Adversary
module Faults = Manetsec.Faults
module Json = Manetsec.Obs_json
module Merge = Manetsec.Merge
module Export = Manetsec.Export

(* --- types --------------------------------------------------------- *)

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
  flow_duration : float option;
}

type adversary_kind =
  | Blackhole
  | Grayhole of float
  | Replayer
  | Rerr_spammer of float
  | Identity_churner of float
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
  bootstrap : float option;
  duration : float;
  run_until : float option;
  flows : flow list;
  adversaries : adversary list;
  faults : fault list;
  exports : Manetsec.Export.kind list;
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
    Chain { spacing }
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
    Grid { cols; spacing }
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
    Random { width; height }
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
    Explicit { width; height; positions = List.map (fun (_, _, xy) -> xy) by_id }
  end
  else bad ()

let decode_mobility form =
  match form with
  | Sexp.Atom (p, s) ->
      if String.equal s Schema.kw_static then Static
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
        Waypoint { min_speed; max_speed; pause }
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
        Walk { speed; turn_interval }
      end
      else
        err f.f_kpos "unknown mobility %s, expected one of: %s" f.f_key
          (String.concat ", " Schema.mobilities)

let decode_protocol form =
  let p, s = atom "the protocol" form in
  if String.equal s Schema.kw_secure then Secure
  else if String.equal s Schema.kw_dsr then Dsr
  else if String.equal s Schema.kw_srp then Srp
  else
    err p "unknown protocol %s, expected one of: %s" s
      (String.concat ", " Schema.protocols)

let decode_suite form =
  match form with
  | Sexp.Atom (p, s) ->
      if String.equal s Schema.kw_mock then Mock
      else if String.equal s Schema.kw_rsa then
        err p "the rsa suite needs a modulus size: write (%s <bits>)"
          Schema.kw_rsa
      else
        err p "unknown suite %s, expected one of: %s" s
          (String.concat ", " Schema.suites)
  | Sexp.List _ ->
      let f = field_of form in
      if String.equal f.f_key Schema.kw_rsa then begin
        let bits = int_v "the rsa modulus bits" (one f) in
        if bits < 64 then
          err f.f_pos "the rsa modulus must be at least 64 bits, got %d" bits;
        Rsa bits
      end
      else
        err f.f_kpos "unknown suite %s, expected one of: %s" f.f_key
          (String.concat ", " Schema.suites)

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

let decode_adversary ~n ~dns form =
  let f = field_of form in
  if not (List.exists (String.equal f.f_key) Schema.adversary_kinds) then
    err f.f_kpos "unknown adversary kind %s, expected one of: %s" f.f_key
      (String.concat ", " Schema.adversary_kinds);
  let node_form, params =
    match f.f_args with
    | node :: rest -> (node, rest)
    | [] -> err f.f_pos "adversary (%s ...) names no node" f.f_key
  in
  let adv_node = non_dns_node ~n ~dns "an adversary" node_form in
  let fs =
    subfields ~what:"adversary" [ Schema.kw_prob; Schema.kw_every ] params
  in
  let no_params () =
    match fs with
    | [] -> ()
    | p :: _ -> err p.f_kpos "adversary %s takes no parameters" f.f_key
  in
  let every ~default = opt fs Schema.kw_every ~decode:(positive Schema.kw_every) ~default in
  let adv_kind =
    if String.equal f.f_key Schema.kw_blackhole then begin
      no_params ();
      Blackhole
    end
    else if String.equal f.f_key Schema.kw_grayhole then
      Grayhole (opt fs Schema.kw_prob ~decode:(fraction Schema.kw_prob) ~default:0.5)
    else if String.equal f.f_key Schema.kw_replayer then begin
      no_params ();
      Replayer
    end
    else if String.equal f.f_key Schema.kw_rerr_spammer then
      Rerr_spammer (every ~default:1.0)
    else if String.equal f.f_key Schema.kw_identity_churner then
      Identity_churner (every ~default:10.0)
    else if String.equal f.f_key Schema.kw_sleeper then begin
      no_params ();
      Sleeper
    end
    else
      err f.f_kpos "unknown adversary kind %s, expected one of: %s" f.f_key
        (String.concat ", " Schema.adversary_kinds)
  in
  { adv_node; adv_kind }

let decode_fault ~n ~dns form =
  let f = field_of form in
  if not (List.exists (String.equal f.f_key) Schema.fault_kinds) then
    err f.f_kpos "unknown fault kind %s, expected one of: %s" f.f_key
      (String.concat ", " Schema.fault_kinds);
  let churn_target what form = non_dns_node ~n ~dns what form in
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
  if String.equal f.f_key Schema.kw_crash || String.equal f.f_key Schema.kw_restart
  then begin
    let node_form, params =
      match f.f_args with
      | node :: rest -> (node, rest)
      | [] -> err f.f_pos "fault (%s ...) names no node" f.f_key
    in
    let node = churn_target "a crash/restart fault" node_form in
    let fs = subfields ~what:"fault" [ Schema.kw_at ] params in
    let at = non_negative Schema.kw_at (req ~what:"the fault" f.f_pos fs Schema.kw_at) in
    if String.equal f.f_key Schema.kw_crash then Crash { node; at }
    else Restart { node; at }
  end
  else if String.equal f.f_key Schema.kw_outage then begin
    let node_form, params =
      match f.f_args with
      | node :: rest -> (node, rest)
      | [] -> err f.f_pos "fault (%s ...) names no node" f.f_key
    in
    let node = churn_target "an outage fault" node_form in
    let fs = subfields ~what:Schema.kw_outage [ Schema.kw_from; Schema.kw_until ] params in
    let down_from, down_until = window ~what:"the outage" fs in
    Outage { node; down_from; down_until }
  end
  else if
    String.equal f.f_key Schema.kw_link_down
    || String.equal f.f_key Schema.kw_link_up
  then begin
    let a_form, b_form, params =
      match f.f_args with
      | a :: b :: rest -> (a, b, rest)
      | _ -> err f.f_pos "fault (%s ...) needs two link endpoints" f.f_key
    in
    let a = node_idx ~n "a link endpoint" a_form in
    let b = node_idx ~n "a link endpoint" b_form in
    if Int.equal a b then
      err f.f_pos "link fault endpoints are both node %d" a;
    let fs = subfields ~what:"link fault" [ Schema.kw_at ] params in
    let at = non_negative Schema.kw_at (req ~what:"the link fault" f.f_pos fs Schema.kw_at) in
    if String.equal f.f_key Schema.kw_link_down then Link_down { a; b; at }
    else Link_up { a; b; at }
  end
  else if String.equal f.f_key Schema.kw_flap then begin
    let a_form, b_form, params =
      match f.f_args with
      | a :: b :: rest -> (a, b, rest)
      | _ -> err f.f_pos "fault (%s ...) needs two link endpoints" f.f_key
    in
    let a = node_idx ~n "a link endpoint" a_form in
    let b = node_idx ~n "a link endpoint" b_form in
    if Int.equal a b then err f.f_pos "link fault endpoints are both node %d" a;
    let fs =
      subfields ~what:Schema.kw_flap
        [ Schema.kw_from; Schema.kw_until; Schema.kw_period ]
        params
    in
    let flap_from, flap_until = window ~what:"the flap" fs in
    let period =
      positive Schema.kw_period (req ~what:"the flap" f.f_pos fs Schema.kw_period)
    in
    Flap { a; b; flap_from; flap_until; period }
  end
  else if String.equal f.f_key Schema.kw_partition then begin
    let fs =
      subfields ~what:Schema.kw_partition
        [ Schema.kw_from; Schema.kw_until; Schema.kw_nodes ]
        f.f_args
    in
    let cut_from, cut_until = window ~what:"the partition" fs in
    let members =
      match find_param fs Schema.kw_nodes with
      | None ->
          err f.f_pos "the partition is missing its (%s ...) member list"
            Schema.kw_nodes
      | Some mf ->
          if List.length mf.f_args = 0 then
            err mf.f_pos "the partition member list is empty";
          List.map (node_idx ~n "a partition member") mf.f_args
    in
    Partition { cut_from; cut_until; members }
  end
  else if String.equal f.f_key Schema.kw_degrade then begin
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
    Degrade { bad_from; bad_until; loss_good; loss_bad; p_good_to_bad; p_bad_to_good }
  end
  else if String.equal f.f_key Schema.kw_churn then begin
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
      match find_param fs Schema.kw_nodes with
      | None ->
          err f.f_pos "the churn is missing its (%s ...) node list"
            Schema.kw_nodes
      | Some mf ->
          if List.length mf.f_args = 0 then
            err mf.f_pos "the churn node list is empty";
          List.map (churn_target "a churning node") mf.f_args
    in
    let horizon =
      positive Schema.kw_horizon (req ~what:"the churn" f.f_pos fs Schema.kw_horizon)
    in
    let mean_up =
      positive Schema.kw_mean_up (req ~what:"the churn" f.f_pos fs Schema.kw_mean_up)
    in
    let mean_down =
      positive Schema.kw_mean_down (req ~what:"the churn" f.f_pos fs Schema.kw_mean_down)
    in
    Churn { churn_seed; churn_nodes; horizon; mean_up; mean_down }
  end
  else
    err f.f_kpos "unknown fault kind %s, expected one of: %s" f.f_key
      (String.concat ", " Schema.fault_kinds)

let decode_export form =
  let p, s = atom "an export kind" form in
  match List.assoc_opt s Schema.exports with
  | Some kind -> kind
  | None ->
      err p "unknown export %s, expected one of: %s" s
        (String.concat ", " Schema.export_kinds)

(* --- the toplevel decoder ------------------------------------------- *)

let name_ok s =
  String.length s > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_')
       s

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
  let nodes =
    let f = require Schema.kw_nodes in
    let v = int_v "the node count" (one f) in
    if v < 2 then err (Sexp.pos_of (one f)) "need at least 2 nodes, got %d" v;
    v
  in
  let single key ~decode ~default =
    match find key with Some f -> decode (one f) | None -> default
  in
  let seed = single Schema.kw_seed ~decode:(int_v "the seed") ~default:1 in
  let range = single Schema.kw_range ~decode:(positive Schema.kw_range) ~default:250.0 in
  let loss = single Schema.kw_loss ~decode:(fraction Schema.kw_loss) ~default:0.0 in
  let promiscuous =
    single Schema.kw_promiscuous ~decode:(bool_v Schema.kw_promiscuous) ~default:false
  in
  let protocol =
    single Schema.kw_protocol ~decode:decode_protocol ~default:Secure
  in
  let suite = single Schema.kw_suite ~decode:decode_suite ~default:Mock in
  let dns = single Schema.kw_dns ~decode:(bool_v Schema.kw_dns) ~default:true in
  let topology =
    single Schema.kw_topology ~decode:(decode_topology ~n:nodes)
      ~default:(Random { width = 1000.0; height = 1000.0 })
  in
  let mobility =
    single Schema.kw_mobility ~decode:decode_mobility ~default:Static
  in
  let bootstrap =
    match find Schema.kw_bootstrap with
    | None -> None
    | Some f ->
        let fs = subfields ~what:Schema.kw_bootstrap [ Schema.kw_stagger ] f.f_args in
        Some (opt fs Schema.kw_stagger ~decode:(non_negative Schema.kw_stagger) ~default:0.5)
  in
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
    | Some f -> List.map (decode_flow ~n:nodes) f.f_args
  in
  let adversaries =
    match find Schema.kw_adversaries with
    | None -> []
    | Some f ->
        let advs = List.map (decode_adversary ~n:nodes ~dns) f.f_args in
        let nodes_seen = ref [] in
        List.iteri
          (fun i a ->
            if List.exists (Int.equal a.adv_node) !nodes_seen then
              err (Sexp.pos_of (List.nth f.f_args i))
                "node %d is given two adversary behaviours" a.adv_node;
            nodes_seen := a.adv_node :: !nodes_seen)
          advs;
        advs
  in
  let faults =
    match find Schema.kw_faults with
    | None -> []
    | Some f -> List.map (decode_fault ~n:nodes ~dns) f.f_args
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
  {
    name; seed; nodes; range; loss; promiscuous; protocol; suite; dns;
    topology; mobility; bootstrap; duration; run_until; flows; adversaries;
    faults; exports;
  }

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

let behavior_of = function
  | Blackhole -> Adversary.blackhole
  | Grayhole p -> Adversary.grayhole p
  | Replayer -> Adversary.replayer
  | Rerr_spammer every -> Adversary.rerr_spammer ~every
  | Identity_churner every -> Adversary.identity_churner ~every
  | Sleeper -> Adversary.sleeper

let scenario_params ?seed t =
  let seed = Option.value seed ~default:t.seed in
  {
    Scenario.default_params with
    n = t.nodes;
    seed;
    range = t.range;
    loss = t.loss;
    promiscuous = t.promiscuous;
    topology =
      (match t.topology with
      | Chain { spacing } -> Scenario.Chain { spacing }
      | Grid { cols; spacing } -> Scenario.Grid { cols; spacing }
      | Random { width; height } -> Scenario.Random { width; height }
      | Explicit { width; height; positions } ->
          Scenario.Explicit { width; height; positions });
    mobility =
      (match t.mobility with
      | Static -> Mobility.Static
      | Waypoint { min_speed; max_speed; pause } ->
          Mobility.Random_waypoint { min_speed; max_speed; pause }
      | Walk { speed; turn_interval } ->
          Mobility.Random_walk { speed; turn_interval });
    protocol =
      (match t.protocol with
      | Secure -> Scenario.Secure
      | Dsr -> Scenario.Plain_dsr
      | Srp -> Scenario.Srp_protocol);
    suite =
      (match t.suite with
      | Mock -> Scenario.Mock_suite
      | Rsa bits -> Scenario.Rsa_suite bits);
    with_dns = t.dns;
    adversaries =
      List.map (fun a -> (a.adv_node, behavior_of a.adv_kind)) t.adversaries;
  }

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
               ~baseline:(Net.Uniform { loss = t.loss })
         | Churn { churn_seed; churn_nodes; horizon; mean_up; mean_down } ->
             Faults.churn ~seed:churn_seed ~nodes:churn_nodes ~horizon ~mean_up
               ~mean_down)
       t.faults)

let execute ?seed t =
  let s = Scenario.create (scenario_params ?seed t) in
  Export.prepare t.exports s;
  (match t.faults with
  | [] -> ()
  | _ -> Scenario.inject s (fault_plan t));
  (match t.bootstrap with
  | Some stagger -> Scenario.bootstrap ~stagger s
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

(* --- seed sweeps over one scenario ---------------------------------- *)

let sweep ~domains ~seeds ~exports t =
  if List.length seeds = 0 then invalid_arg "Scn.sweep: empty seed list";
  Export.check_mergeable exports;
  let run_one seed =
    Export.merge_run ~key:(meta t ~seed) exports
      (execute ~seed { t with exports })
  in
  Merge.sorted (Parallel.map ~domains run_one seeds)
