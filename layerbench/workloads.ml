(* The five benchmark workloads (BENCHMARK.json says why each is there).
   Each is a pure function of the seed: the seed picks the node jitter,
   the flow endpoints where they are not fixed, and the scenario seed
   (keys, MAC jitter, loss, mobility), so the same seed replays the same
   simulation byte for byte.  The structure (grid, adversary positions,
   fault schedule) does not depend on the seed, so neither does the
   amount of work.  All are closed-loop: one simulation at a time,
   traffic offered on a fixed schedule in simulated time. *)

module Scenario = Manetsec.Scenario
module Faults = Manetsec.Faults
module Adversary = Manetsec.Adversary
module Mobility = Manetsec.Sim.Mobility

type spec = {
  params : Scenario.params;
  plan : Faults.plan;  (** injected at set-up *)
  stagger : float;  (** DAD start spacing for [Scenario.bootstrap] *)
  flows : (int * int) list;
  interval : float;  (** CBR packet interval, simulated seconds *)
  flow_gap : float;  (** flow [i] starts [i * flow_gap] after bootstrap *)
  duration : float;  (** each flow's offer window *)
  drain : float;  (** simulated seconds run after the last offer *)
  telemetry : bool;
      (** event capture, the trace ring and windowed metrics on (audit
          retention is on by default), and all five exports rendered *)
}

type t = { name : string; spec : int -> spec }

(* [k] distinct (src, dst) pairs over [eligible], drawn from the seed
   with the standard library's generator so that no library change can
   alter the inputs. *)
let pick_flows ~seed ?(dsts = []) ~eligible k =
  let g = Random.State.make [| seed; 0x5eed |] in
  let pick l = List.nth l (Random.State.int g (List.length l)) in
  let dsts = if dsts = [] then eligible else dsts in
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let a = pick eligible and b = pick dsts in
      if a = b || List.mem (a, b) acc then go acc else go ((a, b) :: acc)
  in
  go []

(* Nodes on a [cols]-wide grid, each displaced by up to [jitter] metres
   in each axis: every seed gets the same neighbourhood structure, so the
   cost of a run moves little from seed to seed. *)
let jittered_grid ~seed ~n ~cols ~spacing ~jitter =
  let g = Random.State.make [| seed; 0x9e1d |] in
  let rows = (n + cols - 1) / cols in
  let at k = (float_of_int k +. 0.5) *. spacing in
  let wobble () = Random.State.float g (2.0 *. jitter) -. jitter in
  Scenario.Explicit
    {
      width = float_of_int cols *. spacing;
      height = float_of_int rows *. spacing;
      positions =
        List.init n (fun i ->
            let x = at (i mod cols) +. wobble () in
            (x, at (i / cols) +. wobble ()));
    }

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)
let without xs l = List.filter (fun x -> not (List.mem x xs)) l

let secure_n50 ~seed =
  {
    Scenario.default_params with
    n = 50;
    seed;
    topology = jittered_grid ~seed ~n:50 ~cols:10 ~spacing:160.0 ~jitter:30.0;
    adversaries = [ (5, Adversary.blackhole); (9, Adversary.blackhole) ];
  }

let cbr ~seed ~duration ~telemetry =
  {
    params = secure_n50 ~seed;
    plan = [];
    stagger = 0.5;
    (* West to east across the grid.  The black holes sit on the top
       edge: every flood reaches them, no data path needs them. *)
    flows =
      pick_flows ~seed
        ~eligible:[ 10; 11; 20; 21; 30; 31; 40; 41 ]
        ~dsts:[ 18; 19; 28; 29; 38; 39; 48; 49 ]
        24;
    interval = 0.1;
    flow_gap = 0.0;
    duration;
    drain = 5.0;
    telemetry;
  }

let cbr_secure_n50 =
  {
    name = "cbr_secure_n50";
    spec = (fun seed -> cbr ~seed ~duration:40.0 ~telemetry:false);
  }

let bootstrap_n300 =
  {
    name = "bootstrap_n300";
    spec =
      (fun seed ->
        {
          params =
            {
              Scenario.default_params with
              n = 300;
              seed;
              range = 260.0;
              topology = Scenario.Grid { cols = 20; spacing = 180.0 };
            };
          plan = [];
          stagger = 0.2;
          flows = pick_flows ~seed ~eligible:(range 1 299) 4;
          interval = 0.5;
          flow_gap = 0.0;
          duration = 10.0;
          drain = 5.0;
          telemetry = false;
        });
  }

let rsa_mobile_n40 =
  {
    name = "rsa_mobile_n40";
    spec =
      (fun seed ->
        {
          params =
            {
              Scenario.default_params with
              n = 40;
              seed;
              suite = Scenario.Rsa_suite 512;
              topology =
                jittered_grid ~seed ~n:40 ~cols:8 ~spacing:160.0 ~jitter:30.0;
              mobility = Mobility.Random_walk { speed = 1.0; turn_interval = 10.0 };
              adversaries = [ (7, Adversary.blackhole) ];
              (* No cache replies: each of the 40 flows pays a full,
                 signed route discovery. *)
              secure_config =
                { Manetsec.Secure_routing.default_config with use_cache_replies = false };
            };
          plan = [];
          stagger = 0.5;
          flows = pick_flows ~seed ~eligible:(without [ 7 ] (range 1 39)) 40;
          interval = 1.0;
          flow_gap = 3.0;
          duration = 4.0;
          drain = 5.0;
          telemetry = false;
        });
  }

let dsr_churn_n60 =
  {
    name = "dsr_churn_n60";
    spec =
      (fun seed ->
        (* Two 4 s outages for each of eight relays, on a fixed schedule
           that starts once the 60 staggered DAD runs have finished: a
           seeded schedule would make the amount of route repair, and so
           the cost of a run, vary from seed to seed. *)
        let churn =
          List.concat
            (List.mapi
               (fun i node ->
                 List.concat_map
                   (fun from -> Faults.outage ~from ~until:(from +. 4.0) node)
                   [ 50.0 +. (5.0 *. float_of_int i); 90.0 +. (5.0 *. float_of_int i) ])
               [ 13; 15; 24; 26; 33; 35; 44; 46 ])
        in
        {
          params =
            {
              Scenario.default_params with
              n = 60;
              seed;
              protocol = Scenario.Plain_dsr;
              promiscuous = true;
              topology =
                jittered_grid ~seed ~n:60 ~cols:10 ~spacing:160.0 ~jitter:30.0;
              mobility = Mobility.Random_walk { speed = 1.0; turn_interval = 10.0 };
            };
          plan =
            Faults.seq
              [
                churn;
                Faults.degrade ~from:70.0 ~until:100.0
                  ~channel:
                    (Faults.gilbert_elliott ~p_good_to_bad:0.05
                       ~p_bad_to_good:0.3 ())
                  ~baseline:(Manetsec.Sim.Net.Uniform { loss = 0.0 });
              ];
          stagger = 0.5;
          (* Same-row flows across the grid: every seed routes the same
             number of hops. *)
          flows =
            [ (10, 19); (20, 29); (30, 39); (40, 49); (50, 59); (11, 18); (31, 38); (51, 58) ];
          interval = 0.1;
          flow_gap = 0.0;
          duration = 80.0;
          drain = 5.0;
          telemetry = false;
        });
  }

let telemetry_n50 =
  {
    name = "telemetry_n50";
    spec = (fun seed -> cbr ~seed ~duration:20.0 ~telemetry:true);
  }

let all =
  [ cbr_secure_n50; bootstrap_n300; rsa_mobile_n40; dsr_churn_n60; telemetry_n50 ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
