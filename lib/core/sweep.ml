module Prng = Manet_crypto.Prng
module Mobility = Manet_sim.Mobility
module Parallel = Manet_sim.Parallel
module Json = Manet_obs.Json
module Merge = Manet_obs.Merge
module Adversary = Manet_attacks.Adversary

type point =
  | E1_blackhole of { n : int; fraction : float; seed : int; duration : float }
  | E6_bootstrap of { n : int; seed : int }

type spec = {
  e1_fractions : float list;
  e1_nodes : int;
  e1_duration : float;
  e6_sizes : int list;
  seeds : int list;
}

let default_spec =
  {
    e1_fractions = [ 0.0; 0.2; 0.4 ];
    e1_nodes = 36;
    e1_duration = 60.0;
    e6_sizes = [ 10; 20; 40 ];
    seeds = [ 1; 2; 3 ];
  }

let points spec =
  List.concat_map
    (fun fraction ->
      List.map
        (fun seed ->
          E1_blackhole
            { n = spec.e1_nodes; fraction; seed; duration = spec.e1_duration })
        spec.seeds)
    spec.e1_fractions
  @ List.concat_map
      (fun n -> List.map (fun seed -> E6_bootstrap { n; seed }) spec.seeds)
      spec.e6_sizes

(* The uniform key shared by both grids (Merge requires one field set
   per sweep); E6 truthfully reports an adversary fraction of 0. *)
let point_key = function
  | E1_blackhole { n; fraction; seed; _ } ->
      [
        ("experiment", Json.String "e1");
        ("n", Json.Int n);
        ("fraction", Json.Float fraction);
        ("seed", Json.Int seed);
      ]
  | E6_bootstrap { n; seed } ->
      [
        ("experiment", Json.String "e6");
        ("n", Json.Int n);
        ("fraction", Json.Float 0.0);
        ("seed", Json.Int seed);
      ]

(* Deterministic adversary placement and flow endpoints, as in the E1
   bench: node 0 (DNS) and flow endpoints are never hostile. *)
let pick_adversaries ~seed ~n ~k ~protect =
  let g = Prng.create ~seed:(seed * 7919) in
  let candidates =
    Array.of_list
      (List.filter
         (fun x -> not (List.mem x protect))
         (List.init (n - 1) (fun x -> x + 1)))
  in
  Prng.shuffle g candidates;
  Array.to_list (Array.sub candidates 0 (min k (Array.length candidates)))

let standard_flows ~n ~seed ~count =
  let g = Prng.create ~seed:((seed * 31) + 17) in
  List.init count (fun _ ->
      let a = 1 + Prng.int g (n - 1) in
      let rec pick_b () =
        let b = 1 + Prng.int g (n - 1) in
        if b = a then pick_b () else b
      in
      (a, pick_b ()))

let scenario_of_point ~exports = function
  | E1_blackhole { n; fraction; seed; duration } ->
      (* Scale flow count down with n so small CI grids keep unprotected
         candidate nodes available for adversary placement. *)
      let flows = standard_flows ~n ~seed ~count:(max 1 (min 8 (n / 4))) in
      let protect = List.concat_map (fun (a, b) -> [ a; b ]) flows in
      let k = int_of_float (Float.round (fraction *. float_of_int n)) in
      let behavior = { Adversary.blackhole with forge_rrep = true } in
      let adversaries =
        List.map (fun idx -> (idx, behavior)) (pick_adversaries ~seed ~n ~k ~protect)
      in
      let params =
        {
          Scenario.default_params with
          n;
          seed;
          range = 250.0;
          topology = Scenario.Random { width = 900.0; height = 900.0 };
          mobility =
            Mobility.Random_waypoint
              { min_speed = 1.0; max_speed = 10.0; pause = 2.0 };
          protocol = Scenario.Secure;
          adversaries;
        }
      in
      let s = Scenario.create params in
      Export.prepare exports s;
      Scenario.start_cbr s ~flows ~interval:0.5 ~duration ();
      Scenario.run s ~until:(duration *. 2.0);
      s
  | E6_bootstrap { n; seed } ->
      let side = 180.0 *. sqrt (float_of_int n) in
      let params =
        {
          Scenario.default_params with
          n;
          seed;
          range = 250.0;
          topology = Scenario.Random { width = side; height = side };
        }
      in
      let s = Scenario.create params in
      Export.prepare exports s;
      Scenario.bootstrap ~stagger:0.3 s;
      s

let run ~domains ~exports spec =
  Export.check_mergeable exports;
  let run_point point =
    Export.merge_run ~key:(point_key point) exports
      (scenario_of_point ~exports point)
  in
  Merge.sorted (Parallel.map ~domains run_point (points spec))
