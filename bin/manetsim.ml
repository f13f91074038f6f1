(* manetsim: command-line front end for the simulator.

     manetsim run --nodes 30 --blackholes 3 --duration 60
     manetsim run --protocol dsr --mobility waypoint --trace
     manetsim run --seed 1 --export trace-jsonl --export report-json
     manetsim run --scenario examples/scenarios/blackhole_e1.scn --out-dir out
     manetsim dad --nodes 12 --collide
     manetsim attacks --nodes 16
     manetsim report run.trace.jsonl

   Prints scenario metrics; --trace additionally dumps the protocol
   event trace; each --export KIND writes one export into --out-dir
   (the vocabulary of a scenario file's (exports ...) field); the
   report, audit, perf and timeline subcommands query exports
   offline. *)

module Scenario = Manetsec.Scenario
module Engine = Manetsec.Sim.Engine
module Stats = Manetsec.Sim.Stats
module Trace = Manetsec.Sim.Trace
module Mobility = Manetsec.Sim.Mobility
module Address = Manetsec.Ipv6.Address
module Adversary = Manetsec.Adversary
module Prng = Manetsec.Crypto.Prng
module Obs = Manetsec.Obs
module Json = Manetsec.Obs_json
module Obs_report = Manetsec.Obs_report
module Perf = Manetsec.Perf
module Timeline = Manetsec.Timeline
module Audit = Manetsec.Audit
module Detector = Manetsec.Detector
module Export = Manetsec.Export
module Scn = Manet_scenario.Scn
module Schema = Manet_scenario.Schema
module Sexp = Manet_scenario.Sexp

open Cmdliner

(* --- shared flags ------------------------------------------------------- *)

let nodes_t =
  Arg.(value & opt int 20 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let protocol_t =
  let chosen_conv =
    Arg.enum [ ("secure", Scenario.Secure); ("dsr", Scenario.Plain_dsr) ]
  in
  Arg.(
    value & opt chosen_conv Scenario.Secure
    & info [ "protocol" ] ~docv:"PROTO" ~doc:"Routing protocol: secure or dsr.")

let suite_t =
  let parse s =
    match String.lowercase_ascii s with
    | "mock" -> Ok Scenario.Mock_suite
    | s -> (
        match String.split_on_char '-' s with
        | [ "rsa"; bits ] -> (
            match int_of_string_opt bits with
            | Some b when b >= 64 -> Ok (Scenario.Rsa_suite b)
            | _ -> Error (`Msg "rsa-<bits> with bits >= 64"))
        | _ -> Error (`Msg "expected mock or rsa-<bits>"))
  in
  let print fmt = function
    | Scenario.Mock_suite -> Format.pp_print_string fmt "mock"
    | Scenario.Rsa_suite b -> Format.fprintf fmt "rsa-%d" b
  in
  Arg.(
    value
    & opt (conv (parse, print)) Scenario.Mock_suite
    & info [ "suite" ] ~docv:"SUITE" ~doc:"Signature suite: mock or rsa-<bits>.")

let mobility_t =
  let chosen_conv =
    Arg.enum
      [
        ("static", Mobility.Static);
        ( "waypoint",
          Mobility.Random_waypoint { min_speed = 1.0; max_speed = 10.0; pause = 2.0 } );
        ("walk", Mobility.Random_walk { speed = 5.0; turn_interval = 4.0 });
      ]
  in
  Arg.(
    value & opt chosen_conv Mobility.Static
    & info [ "mobility" ] ~docv:"MODEL" ~doc:"Mobility: static, waypoint or walk.")

let blackholes_t =
  Arg.(
    value & opt int 0
    & info [ "blackholes" ] ~docv:"K" ~doc:"Number of black-hole adversaries.")

let spammers_t =
  Arg.(
    value & opt int 0
    & info [ "rerr-spammers" ] ~docv:"K" ~doc:"Number of RERR-fabricating adversaries.")

let duration_t =
  Arg.(
    value & opt float 60.0
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Traffic duration (simulated).")

let flows_t =
  Arg.(
    value & opt int 6 & info [ "flows" ] ~docv:"K" ~doc:"Number of CBR flows.")

let trace_t =
  Arg.(value & flag & info [ "trace" ] ~doc:"Dump the protocol event trace.")

let profile_t =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Measure host wall-clock time per event class (does not perturb \
           the simulation) and print the breakdown.")

let progress_t =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Emit a wall-clock heartbeat to stderr every ~2 seconds while the \
           engine runs: events/sec, sim-time rate, queue depth and ETA, with \
           a stall warning when sim time stops advancing.  Does not perturb \
           the simulation or any deterministic export.")

(* --- exports ---------------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let print_profile s =
  let engine = Scenario.engine s in
  Printf.printf "\n-- profile (wall clock) -----------------------------\n";
  Printf.printf "%-12s %10s %12s\n" "class" "events" "wall ms";
  List.iter
    (fun (label, e) ->
      Printf.printf "%-12s %10d %12.3f\n" label e.Engine.p_count
        (e.Engine.p_wall_s *. 1000.0))
    (Engine.profile engine);
  Printf.printf "%-12s %10d %12.3f  (%.0f events/s)\n" "total"
    (Engine.events_processed engine)
    (Engine.wall_in_run engine *. 1000.0)
    (Engine.events_per_sec engine)

(* Every kind once, in first-mention order. *)
let union kinds more =
  List.fold_left
    (fun acc kind -> if List.mem kind acc then acc else acc @ [ kind ])
    kinds more

let write_exports ~out_dir files =
  List.iter
    (fun (file, contents) ->
      let path = Filename.concat out_dir file in
      write_file path contents;
      Printf.printf "export              %s\n" path)
    files

let render_exports ~out_dir ~name ~meta kinds s =
  write_exports ~out_dir
    (List.map (fun kind -> (Export.file ~name kind, Export.render ~meta s kind)) kinds)

let export_t =
  Arg.(
    value
    & opt_all (enum Schema.exports) []
    & info [ "export" ] ~docv:"KIND"
        ~doc:
          ("Write the $(docv) export into --out-dir; repeatable.  $(docv) \
            is "
          ^ doc_alts Schema.export_kinds
          ^ ": the keywords of a scenario file's (exports ...) field.  run \
             and dad name their files after the subcommand \
             ($(b,run.trace.jsonl)), run --scenario after the scenario, and \
             sweep writes merged forms (see its description).  trace-jsonl \
             switches event capture on and the metrics kinds the metrics \
             engine.  Every export but report-json (which holds the \
             wall-clock profile) and the wall-clock section of \
             perf-json is byte-identical across replays of the same seed."))

let out_dir_t =
  Arg.(
    value & opt dir "."
    & info [ "out-dir" ] ~docv:"DIR" ~doc:"Directory that receives the exports.")

let make_params ~nodes ~seed ~protocol ~suite ~mobility ~blackholes ~spammers =
  let g = Prng.create ~seed:(seed + 7777) in
  let pool = Array.init (nodes - 1) (fun i -> i + 1) in
  Prng.shuffle g pool;
  let take k off = Array.to_list (Array.sub pool off (min k (nodes - 1 - off))) in
  let adversaries =
    List.map (fun i -> (i, Adversary.blackhole)) (take blackholes 0)
    @ List.map
        (fun i -> (i, Adversary.rerr_spammer ~every:1.0))
        (take spammers blackholes)
  in
  {
    Scenario.default_params with
    n = nodes;
    seed;
    protocol;
    suite;
    mobility;
    adversaries;
    topology =
      Scenario.Random
        {
          width = 220.0 *. sqrt (float_of_int nodes);
          height = 220.0 *. sqrt (float_of_int nodes);
        };
  }

let report s =
  let st = Scenario.stats s in
  Printf.printf "\n-- results ------------------------------------------\n";
  Printf.printf "delivery ratio      %.3f\n" (Scenario.delivery_ratio s);
  Printf.printf "ack ratio           %.3f\n" (Scenario.ack_ratio s);
  Printf.printf "offered/delivered   %d / %d\n"
    (Stats.get st "data.offered")
    (Stats.get st "data.delivered");
  (match Scenario.mean_latency s with
  | Some l -> Printf.printf "mean latency        %.1f ms\n" (l *. 1000.0)
  | None -> ());
  Printf.printf "control overhead    %d bytes, %d packets\n"
    (Scenario.control_bytes s) (Scenario.control_packets s);
  let signs, verifies = Scenario.crypto_ops s in
  Printf.printf "crypto operations   %d sign, %d verify\n" signs verifies;
  Printf.printf "route discoveries   %d (failed %d)\n"
    (Stats.get st "route.discoveries")
    (Stats.get st "route.discovery_failed");
  Printf.printf "route errors        %d received\n" (Stats.get st "rerr.received");
  List.iter
    (fun key ->
      let v = Stats.get st key in
      if v > 0 then Printf.printf "%-19s %d\n" key v)
    [
      "secure.rreq_rejected"; "secure.rrep_rejected"; "secure.rerr_rejected";
      "secure.hostile_suspected"; "probe.sent"; "attack.data_dropped";
      "attack.rrep_forged"; "attack.rerr_forged";
    ];
  Printf.printf "audit events        %d\n"
    (Audit.count (Obs.audit (Scenario.obs s)));
  match Detector.suspects (Scenario.detector s) with
  | [] -> ()
  | suspects ->
      Printf.printf "suspected nodes     %s\n"
        (String.concat ", " (List.map string_of_int suspects))

(* --- scenario files ------------------------------------------------------ *)

let load_scenario path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> (
      match Scn.parse contents with
      | scn -> Ok scn
      | exception Scn.Error { pos; msg } ->
          Error (Printf.sprintf "%s:%d:%d: %s" path pos.Sexp.line pos.Sexp.col msg)
      | exception Sexp.Parse_error { pos; msg } ->
          Error (Printf.sprintf "%s:%d:%d: %s" path pos.Sexp.line pos.Sexp.col msg))
  | exception Sys_error msg -> Error msg

(* The file's exports plus the --export kinds, named and stamped like
   the file's own. *)
let scenario_run file ~out_dir ~exports =
  match load_scenario file with
  | Error msg -> `Error (false, msg)
  | Ok scn ->
      Printf.printf "scenario %s  (%d nodes, seed %d)\n%!" scn.Scn.name
        scn.Scn.nodes scn.Scn.seed;
      let kinds = union scn.Scn.exports exports in
      let s = Scn.execute { scn with Scn.exports = kinds } in
      report s;
      render_exports ~out_dir ~name:scn.Scn.name
        ~meta:(Scn.meta scn ~seed:scn.Scn.seed)
        kinds s;
      `Ok ()

let scenario_file_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "scenario" ] ~docv:"FILE"
        ~doc:
          "Run a declarative scenario file (see examples/scenarios/) instead \
           of a flag-built configuration; it writes the exports the file \
           requests plus every --export kind, and every other run flag is \
           ignored.")

(* --- run ----------------------------------------------------------------- *)

let run_flags_cmd ~out_dir ~exports ~nodes ~seed ~protocol ~suite ~mobility
    ~blackholes ~spammers ~duration ~flows ~trace ~profile ~progress =
  let params =
    make_params ~nodes ~seed ~protocol ~suite ~mobility ~blackholes ~spammers
  in
  let s = Scenario.create params in
  if trace then Trace.enable (Engine.trace (Scenario.engine s));
  if profile then Engine.set_profiling (Scenario.engine s) true;
  Export.prepare exports s;
  if progress then
    Timeline.enable_progress
      ~horizon:(duration +. 30.0)
      (Obs.timeline (Scenario.obs s))
      ~emit:(fun line -> Printf.eprintf "%s\n%!" line)
      ();
  Printf.printf "bootstrapping %d nodes...\n%!" nodes;
  Scenario.bootstrap s;
  let g = Prng.create ~seed:(seed + 99) in
  let flow_list =
    List.init flows (fun _ ->
        let a = 1 + Prng.int g (nodes - 1) in
        let rec other () =
          let b = 1 + Prng.int g (nodes - 1) in
          if b = a then other () else b
        in
        (a, other ()))
  in
  Printf.printf "flows: %s\n"
    (String.concat ", "
       (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) flow_list));
  Scenario.start_cbr s ~flows:flow_list ~interval:0.5 ~duration ();
  Scenario.run s ~until:(Engine.now (Scenario.engine s) +. duration +. 30.0);
  report s;
  render_exports ~out_dir ~name:"run" ~meta:[ ("seed", Json.Int seed) ] exports s;
  if profile then print_profile s;
  if trace then begin
    Printf.printf "\n-- trace --------------------------------------------\n";
    print_string (Trace.render (Engine.trace (Scenario.engine s)))
  end

let run_cmd scenario_file out_dir exports nodes seed protocol suite mobility
    blackholes spammers duration flows trace profile progress =
  let exports = union [] exports in
  match scenario_file with
  | Some file -> scenario_run file ~out_dir ~exports
  | None ->
      run_flags_cmd ~out_dir ~exports ~nodes ~seed ~protocol ~suite ~mobility
        ~blackholes ~spammers ~duration ~flows ~trace ~profile ~progress;
      `Ok ()

let run_term =
  Term.(
    ret
      (const run_cmd $ scenario_file_t $ out_dir_t $ export_t $ nodes_t $ seed_t
     $ protocol_t $ suite_t $ mobility_t $ blackholes_t $ spammers_t
     $ duration_t $ flows_t $ trace_t $ profile_t $ progress_t))

(* --- dad ------------------------------------------------------------------ *)

let dad_cmd out_dir exports nodes seed collide trace profile =
  let exports = union [] exports in
  let params =
    make_params ~nodes ~seed ~protocol:Scenario.Secure ~suite:Scenario.Mock_suite
      ~mobility:Mobility.Static ~blackholes:0 ~spammers:0
  in
  let s = Scenario.create params in
  if profile then Engine.set_profiling (Scenario.engine s) true;
  Export.prepare exports s;
  if collide && nodes >= 3 then begin
    (* Give the last node the first host's address before it joins. *)
    let victim = Scenario.address_of s 1 in
    let joiner = Scenario.node s (nodes - 1) in
    let dir = joiner.Scenario.ctx.Manetsec.Proto.Node_ctx.directory in
    Manetsec.Proto.Directory.unregister dir (Scenario.address_of s (nodes - 1)) (nodes - 1);
    joiner.Scenario.identity.Manetsec.Proto.Identity.address <- victim;
    Manetsec.Proto.Directory.register dir victim (nodes - 1);
    Printf.printf "forced duplicate: node %d joins with node 1's address %s\n"
      (nodes - 1) (Address.to_string victim)
  end;
  if trace then Trace.enable (Engine.trace (Scenario.engine s));
  Scenario.bootstrap s;
  let st = Scenario.stats s in
  Printf.printf "configured %d, collisions detected %d, names registered %d\n"
    (Stats.get st "dad.configured")
    (Stats.get st "dad.collision")
    (Stats.get st "dns.registered");
  Array.iter
    (fun node ->
      Printf.printf "  node %-3d %s\n" node.Scenario.index
        (Address.to_string (Scenario.address_of s node.Scenario.index)))
    (Scenario.nodes s);
  render_exports ~out_dir ~name:"dad" ~meta:[ ("seed", Json.Int seed) ] exports s;
  if profile then print_profile s;
  if trace then print_string (Trace.render (Engine.trace (Scenario.engine s)))

let collide_t =
  Arg.(value & flag & info [ "collide" ] ~doc:"Force an address collision.")

let dad_term =
  Term.(
    const dad_cmd $ out_dir_t $ export_t $ nodes_t $ seed_t $ collide_t
    $ trace_t $ profile_t)

(* --- attacks --------------------------------------------------------------- *)

let attacks_cmd nodes seed =
  (* Run each canned attack against both protocols and summarize. *)
  List.iter
    (fun (name, behavior) ->
      List.iter
        (fun (pname, protocol) ->
          let params =
            make_params ~nodes ~seed ~protocol ~suite:Scenario.Mock_suite
              ~mobility:Mobility.Static ~blackholes:0 ~spammers:0
          in
          let params = { params with Scenario.adversaries = [ (2, behavior) ] } in
          let s = Scenario.create params in
          Scenario.bootstrap s;
          Scenario.start_cbr s
            ~flows:[ (1, nodes - 1); (nodes - 1, 1) ]
            ~interval:0.5 ~duration:30.0 ();
          Scenario.run s ~until:(Engine.now (Scenario.engine s) +. 60.0);
          let det = Scenario.detector s in
          let a = Detector.score det ~truth:(Scenario.adversary_ids s) in
          Printf.printf
            "%-16s vs %-7s delivery %.2f  suspected %d  rejected %d  flagged \
             [%s]  precision %.2f recall %.2f\n"
            name pname (Scenario.delivery_ratio s)
            (Stats.get (Scenario.stats s) "secure.hostile_suspected")
            (Stats.get (Scenario.stats s) "secure.rreq_rejected"
            + Stats.get (Scenario.stats s) "secure.rrep_rejected")
            (String.concat ","
               (List.map string_of_int (Detector.suspects det)))
            a.Detector.precision a.Detector.recall)
        [ ("dsr", Scenario.Plain_dsr); ("secure", Scenario.Secure) ])
    [
      ("blackhole", Adversary.blackhole);
      ("grayhole-50", Adversary.grayhole 0.5);
      ("rerr-spam", Adversary.rerr_spammer ~every:1.0);
      ("churn", Adversary.identity_churner ~every:10.0);
    ]

let attacks_term = Term.(const attacks_cmd $ nodes_t $ seed_t)

(* --- report ---------------------------------------------------------------- *)

let report_cmd file top no_tree =
  let contents = In_channel.with_open_bin file In_channel.input_all in
  match Obs_report.parse_jsonl contents with
  | parsed ->
      let header field =
        match Json.member field parsed.Obs_report.header with
        | Some j -> Json.to_string j
        | None -> "?"
      in
      Printf.printf "trace %s  (schema %s v%s, %d spans, %d events)\n" file
        (header "schema") (header "version")
        (List.length parsed.Obs_report.spans)
        (List.length parsed.Obs_report.events);
      if not no_tree then begin
        Printf.printf "\n-- span tree ----------------------------------------\n";
        print_string (Obs_report.render_tree parsed)
      end;
      Printf.printf "\n-- phase latency ------------------------------------\n";
      print_string (Obs_report.render_phases parsed);
      Printf.printf "\n-- top %d slowest spans ------------------------------\n"
        top;
      print_string (Obs_report.render_top ~k:top parsed);
      `Ok ()
  | exception Json.Parse_error msg ->
      `Error (false, Printf.sprintf "%s: %s" file msg)
  | exception Sys_error msg -> `Error (false, msg)

let report_file_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE.jsonl" ~doc:"A trace written by $(b,--export trace-jsonl).")

let top_t =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"K" ~doc:"How many slow spans to list.")

let no_tree_t =
  Arg.(
    value & flag
    & info [ "no-tree" ] ~doc:"Skip the span tree (large traces).")

let report_term = Term.(ret (const report_cmd $ report_file_t $ top_t $ no_tree_t))

(* --- audit ------------------------------------------------------------------ *)

let audit_cmd file no_timeline =
  let contents = In_channel.with_open_bin file In_channel.input_all in
  match Audit.parse_jsonl contents with
  | parsed ->
      let evs = parsed.Audit.parsed_events in
      let header field =
        match Json.member field parsed.Audit.header with
        | Some j -> Json.to_string j
        | None -> "?"
      in
      Printf.printf "audit %s  (schema %s v%s, %d events, %d dropped)\n" file
        (header "schema") (header "version") (List.length evs)
        (match Json.member "dropped" parsed.Audit.header with
        | Some (Json.Int d) -> d
        | _ -> 0);
      if not no_timeline then begin
        Printf.printf "\n-- timeline -----------------------------------------\n";
        print_string (Audit.render_timeline evs)
      end;
      Printf.printf "\n-- per-node scorecards ------------------------------\n";
      print_string (Audit.render_scorecards evs);
      (* Replaying the stream through a fresh detector reproduces the
         online verdicts exactly: the detector is a pure fold over the
         event sequence. *)
      let det = Detector.create () in
      List.iter (Detector.feed det) evs;
      Printf.printf "\n-- detector verdicts --------------------------------\n";
      print_string (Detector.render_verdicts det);
      `Ok ()
  | exception Json.Parse_error msg ->
      `Error (false, Printf.sprintf "%s: %s" file msg)
  | exception Sys_error msg -> `Error (false, msg)

let audit_file_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"AUDIT.jsonl" ~doc:"A stream written by $(b,--export audit-jsonl).")

let no_timeline_t =
  Arg.(
    value & flag
    & info [ "no-timeline" ] ~doc:"Skip the event timeline (large streams).")

let audit_term = Term.(ret (const audit_cmd $ audit_file_t $ no_timeline_t))

(* --- sweep ------------------------------------------------------------------ *)

module Sweep = Manetsec.Sweep
module Merge = Manetsec.Merge
module Parallel = Manetsec.Sim.Parallel
module Mono_clock = Manetsec.Sim.Mono_clock

let run_field r name =
  match List.assoc_opt name r.Merge.key with
  | Some j -> Json.to_string j
  | None -> "?"

let run_stat r name =
  match List.assoc_opt name r.Merge.stats with Some v -> v | None -> 0

let sweep_scenario file ~domains ~seeds ~exports =
  match load_scenario file with
  | Error msg -> Error msg
  | Ok scn ->
      Printf.printf "sweep: scenario %s across %d seed(s) on %d domain(s)\n%!"
        scn.Scn.name (List.length seeds) domains;
      let t0 = Mono_clock.now_s () in
      let runs = Scn.sweep ~domains ~seeds ~exports scn in
      let wall = Mono_clock.now_s () -. t0 in
      List.iter
        (fun r ->
          Printf.printf "  %s seed=%-3s delivered %d/%d  dropped %d\n"
            (run_field r "scenario") (run_field r "seed")
            (run_stat r "data.delivered")
            (run_stat r "data.offered")
            (run_stat r "attack.data_dropped"))
        runs;
      Printf.printf "wall clock          %.2f s\n" wall;
      Ok runs

let sweep_grid spec ~domains ~exports =
  let points = Sweep.points spec in
  Printf.printf "sweep: %d grid point(s) across %d domain(s)\n%!"
    (List.length points) domains;
  let t0 = Mono_clock.now_s () in
  let runs = Sweep.run ~domains ~exports spec in
  let wall = Mono_clock.now_s () -. t0 in
  List.iter
    (fun r ->
      Printf.printf
        "  %-4s n=%-3s fraction=%-4s seed=%-3s delivered %d/%d  configured \
         %d  dropped %d\n"
        (run_field r "experiment") (run_field r "n") (run_field r "fraction")
        (run_field r "seed")
        (run_stat r "data.delivered")
        (run_stat r "data.offered")
        (run_stat r "dad.configured")
        (run_stat r "attack.data_dropped"))
    runs;
  Printf.printf "wall clock          %.2f s\n" wall;
  runs

let sweep_cmd scenario_file domains e1_fractions e1_nodes e1_duration e6_sizes
    seeds out_dir exports =
  let domains = if domains <= 0 then Parallel.default_domains () else domains in
  let exports = union [] exports in
  match
    List.filter_map
      (fun (keyword, kind) ->
        if List.mem kind exports && not (Export.mergeable kind) then Some keyword
        else None)
      Schema.exports
  with
  | _ :: _ as unmerged ->
      `Error
        ( false,
          "sweep has no merged form for " ^ String.concat ", " unmerged )
  | [] -> (
      let runs =
        match scenario_file with
        | Some file -> sweep_scenario file ~domains ~seeds ~exports
        | None ->
            Ok
              (sweep_grid ~domains ~exports
                 { Sweep.e1_fractions; e1_nodes; e1_duration; e6_sizes; seeds })
      in
      match runs with
      | Error msg -> `Error (false, msg)
      | Ok runs ->
          write_exports ~out_dir (Export.merged ~name:"sweep" exports runs);
          `Ok ())

let domains_t =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Concurrent domains to fan grid points across; 1 runs inline \
           (single-core fallback), 0 uses the host's recommended domain \
           count.  Merged exports are byte-identical at any value.")

let e1_fractions_t =
  Arg.(
    value
    & opt (list float) Sweep.default_spec.Sweep.e1_fractions
    & info [ "e1-fractions" ] ~docv:"F,..."
        ~doc:"E1 black-hole fractions; empty disables the E1 grid.")

let e1_nodes_t =
  Arg.(
    value
    & opt int Sweep.default_spec.Sweep.e1_nodes
    & info [ "e1-nodes" ] ~docv:"N" ~doc:"E1 network size.")

let e1_duration_t =
  Arg.(
    value
    & opt float Sweep.default_spec.Sweep.e1_duration
    & info [ "e1-duration" ] ~docv:"SECONDS"
        ~doc:"E1 CBR traffic duration (simulated).")

let e6_sizes_t =
  Arg.(
    value
    & opt (list int) Sweep.default_spec.Sweep.e6_sizes
    & info [ "e6-sizes" ] ~docv:"N,..."
        ~doc:"E6 network sizes; empty disables the E6 grid.")

let seeds_t =
  Arg.(
    value
    & opt (list int) Sweep.default_spec.Sweep.seeds
    & info [ "seeds" ] ~docv:"S,..." ~doc:"Seed replications per grid point.")

let sweep_scenario_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "scenario" ] ~docv:"FILE"
        ~doc:
          "Fan a declarative scenario file across the --seeds list instead of \
           the E1/E6 grids (the e1-*/e6-* flags and the file's own exports \
           are ignored).")

let sweep_term =
  Term.(
    ret
      (const sweep_cmd $ sweep_scenario_t $ domains_t $ e1_fractions_t
     $ e1_nodes_t $ e1_duration_t $ e6_sizes_t $ seeds_t $ out_dir_t
     $ export_t))

(* --- scenario check --------------------------------------------------------- *)

let scenario_check_cmd files =
  let failures =
    List.filter_map
      (fun file ->
        match load_scenario file with
        | Ok scn ->
            Printf.printf
              "ok %s  (%s: %d nodes, %d flow(s), %d adversar(ies), %d \
               fault(s), %d export(s))\n"
              file scn.Scn.name scn.Scn.nodes
              (List.length scn.Scn.flows)
              (List.length scn.Scn.adversaries)
              (List.length scn.Scn.faults)
              (List.length scn.Scn.exports);
            None
        | Error msg ->
            Printf.printf "error %s\n" msg;
            Some file)
      files
  in
  match failures with
  | [] -> `Ok ()
  | _ ->
      `Error
        (false, Printf.sprintf "%d invalid scenario file(s)" (List.length failures))

let scenario_files_t =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE" ~doc:"Scenario files to validate.")

let scenario_check_term = Term.(ret (const scenario_check_cmd $ scenario_files_t))

(* --- perf -------------------------------------------------------------------- *)

let jint ?(default = 0) j =
  match Json.to_int_opt j with Some i -> i | None -> default

let jmember_int name j = match Json.member name j with Some v -> jint v | None -> 0

let jpath doc path =
  List.fold_left
    (fun acc name -> Option.bind acc (Json.member name))
    (Some doc) path

(* Nearest-rank percentile over exported histogram buckets, mirroring
   {!Manetsec.Sim.Hist.percentile}: walk cumulative counts to the
   crossing bucket and interpolate linearly inside it. *)
let buckets_percentile buckets count q =
  if count = 0 then None
  else
    let rank =
      let r = int_of_float (ceil (q *. float_of_int count)) in
      if r < 1 then 1 else if r > count then count else r
    in
    let rec find cum = function
      | [] -> None
      | (lo, hi, c) :: rest ->
          if cum + c >= rank then
            let pos = rank - cum in
            Some (if c <= 1 then lo else lo + ((hi - lo) * (pos - 1) / (c - 1)))
          else find (cum + c) rest
    in
    find 0 buckets

let render_hist title j =
  let buckets =
    match Json.member "buckets" j with
    | Some (Json.List l) ->
        List.filter_map
          (fun b ->
            match b with
            | Json.List [ lo; hi; c ] -> Some (jint lo, jint hi, jint c)
            | _ -> None)
          l
    | _ -> []
  in
  Printf.printf "\n-- %s %s\n" title
    (String.make (max 0 (51 - String.length title)) '-');
  let mean =
    match Json.member "mean" j with
    | Some (Json.Float f) -> Printf.sprintf "%.1f" f
    | Some (Json.Int i) -> Printf.sprintf "%d.0" i
    | _ -> "-"
  in
  (* Clamp like Hist.percentile: bucket interpolation can overshoot the
     largest sample actually recorded. *)
  let vmax = jmember_int "max" j in
  let pct q =
    match buckets_percentile buckets (jmember_int "count" j) q with
    | Some v -> string_of_int (min v vmax)
    | None -> "-"
  in
  Printf.printf "samples %d  sum %d  mean %s  max %d\n" (jmember_int "count" j)
    (jmember_int "sum" j) mean (jmember_int "max" j);
  Printf.printf "p50 %s  p95 %s  p99 %s\n" (pct 0.5) (pct 0.95) (pct 0.99);
  let cmax = List.fold_left (fun acc (_, _, c) -> max acc c) 1 buckets in
  List.iter
    (fun (lo, hi, c) ->
      let width = c * 40 / cmax in
      Printf.printf "%8d..%-8d %10d  %s\n" lo hi c (String.make width '#'))
    buckets

let perf_render file doc top =
  Printf.printf "perf %s  (schema %s v%d)\n" file
    (match jpath doc [ "schema" ] with
    | Some (Json.String s) -> s
    | _ -> "?")
    (match jpath doc [ "version" ] with
    | Some v -> jint ~default:Perf.schema_version v
    | None -> 0);
  let det =
    match Json.member "deterministic" doc with Some d -> d | None -> Json.Null
  in
  let wall =
    match Json.member "wall_clock" doc with Some w -> w | None -> Json.Null
  in
  (* Per-label table: deterministic counts joined with wall profile
     seconds when the run was profiled. *)
  let labels =
    match jpath det [ "events"; "labels" ] with
    | Some (Json.Obj fields) -> List.map (fun (l, v) -> (l, jint v)) fields
    | _ -> []
  in
  let profile =
    match Json.member "profile" wall with
    | Some (Json.List l) ->
        List.filter_map
          (fun e ->
            match
              (Json.member "label" e, Json.member "wall_s" e)
            with
            | Some (Json.String l), Some w ->
                Option.map (fun f -> (l, f)) (Json.to_float_opt w)
            | _ -> None)
          l
    | _ -> []
  in
  Printf.printf "\n-- events by label ----------------------------------\n";
  Printf.printf "%-12s %10s %12s\n" "label" "events" "wall ms";
  List.iter
    (fun (l, c) ->
      match List.assoc_opt l profile with
      | Some w -> Printf.printf "%-12s %10d %12.3f\n" l c (w *. 1000.0)
      | None -> Printf.printf "%-12s %10d %12s\n" l c "-")
    labels;
  Printf.printf "%-12s %10d  (max pending %d)\n" "total"
    (match jpath det [ "events"; "total" ] with Some v -> jint v | None -> 0)
    (match jpath det [ "events"; "max_pending" ] with
    | Some v -> jint v
    | None -> 0);
  (* Top-k hottest: by wall seconds when profiled, else by event count. *)
  let hottest =
    if profile <> [] then
      List.map (fun (l, w) -> (l, Printf.sprintf "%.3f ms" (w *. 1000.0)))
        (List.filteri
           (fun i _ -> i < top)
           (List.sort (fun (_, a) (_, b) -> Float.compare b a) profile))
    else
      List.map (fun (l, c) -> (l, Printf.sprintf "%d events" c))
        (List.filteri
           (fun i _ -> i < top)
           (List.sort (fun (_, a) (_, b) -> Int.compare b a) labels))
  in
  Printf.printf "\n-- top %d hottest labels -----------------------------\n" top;
  List.iter (fun (l, v) -> Printf.printf "%-12s %s\n" l v) hottest;
  (match jpath det [ "net"; "neighbour_scan" ] with
  | Some h -> render_hist "neighbour scan lengths" h
  | None -> ());
  (match jpath det [ "net"; "fanout" ] with
  | Some h -> render_hist "broadcast fan-out" h
  | None -> ());
  (match jpath det [ "net" ] with
  | Some n ->
      Printf.printf "retries %d  transmissions %d  deliveries %d\n"
        (jmember_int "retries" n)
        (jmember_int "transmissions" n)
        (jmember_int "deliveries" n)
  | None -> ());
  (* Crypto: per message kind. *)
  (match jpath det [ "crypto"; "by_kind" ] with
  | Some (Json.Obj kinds) when kinds <> [] ->
      Printf.printf "\n-- crypto by message kind ---------------------------\n";
      Printf.printf "%-12s %10s %10s %12s\n" "kind" "signs" "verifies"
        "hash blocks";
      List.iter
        (fun (kind, v) ->
          Printf.printf "%-12s %10d %10d %12d\n" kind (jmember_int "signs" v)
            (jmember_int "verifies" v)
            (jmember_int "hash_blocks" v))
        kinds
  | _ -> ());
  (* Flood provenance: the aggregate accounting the timeline stream
     details per flood. *)
  (match jpath det [ "floods" ] with
  | Some f ->
      let jf name =
        match Json.member name f with
        | Some v -> (
            match Json.to_float_opt v with Some x -> x | None -> 0.0)
        | None -> 0.0
      in
      Printf.printf "\n-- floods -------------------------------------------\n";
      Printf.printf
        "floods %d (areq %d, rreq %d)  sent %d  received %d  suppressed %d  \
         verifies %d\n"
        (jmember_int "count" f) (jmember_int "areq" f) (jmember_int "rreq" f)
        (jmember_int "copies_sent" f)
        (jmember_int "copies_received" f)
        (jmember_int "duplicates_suppressed" f)
        (jmember_int "verifies" f);
      Printf.printf "duplicate verifies per flood   %.3f\n"
        (jf "duplicate_verifies_per_flood");
      Printf.printf "flood redundancy ratio         %.3f\n"
        (jf "flood_redundancy_ratio")
  | None -> ());
  (* GC/alloc: deterministic event counts per phase joined with the
     wall-clock allocation words for that phase. *)
  Printf.printf "\n-- gc / alloc ---------------------------------------\n";
  Printf.printf "%-12s %10s %14s %12s\n" "phase" "events" "minor words"
    "words/event";
  (match jpath det [ "phases" ] with
  | Some (Json.Obj phases) ->
      List.iter
        (fun (name, p) ->
          let events = jmember_int "events" p in
          let words =
            match jpath wall [ "gc"; "phases"; name; "minor_words" ] with
            | Some w -> ( match Json.to_float_opt w with Some f -> f | None -> 0.0)
            | None -> 0.0
          in
          Printf.printf "%-12s %10d %14.0f %12.1f\n" name events words
            (if events = 0 then 0.0 else words /. float_of_int events))
        phases
  | _ -> ());
  match Json.member "gc" wall with
  | Some g ->
      Printf.printf "heap %d words (peak %d), %d minor / %d major collections\n"
        (jmember_int "heap_words" g)
        (jmember_int "top_heap_words" g)
        (jmember_int "minor_collections" g)
        (jmember_int "major_collections" g)
  | None -> ()

let perf_cmd file det top =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> `Error (false, msg)
  | contents -> (
      match Json.parse contents with
      | exception Json.Parse_error msg ->
          `Error (false, Printf.sprintf "%s: %s" file msg)
      | doc -> (
          (match jpath doc [ "schema" ] with
          | Some (Json.String s) when s = Perf.schema -> ()
          | _ ->
              prerr_endline
                (Printf.sprintf "warning: %s does not declare schema %s" file
                   Perf.schema));
          match Json.member "deterministic" doc with
          | None -> `Error (false, file ^ ": no deterministic section")
          | Some detj ->
              if det then begin
                (* Canonical re-render of the deterministic section only:
                   the byte-stable form CI cmp's across runs and domain
                   counts. *)
                print_string (Json.to_string detj);
                print_newline ();
                `Ok ()
              end
              else begin
                perf_render file doc top;
                `Ok ()
              end))

let perf_file_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"PERF.json" ~doc:"An export written by $(b,--export perf-json).")

let det_t =
  Arg.(
    value & flag
    & info [ "det" ]
        ~doc:
          "Print only the canonical deterministic section (byte-identical \
           across same-seed replays; what the CI determinism gates compare).")

let perf_term = Term.(ret (const perf_cmd $ perf_file_t $ det_t $ top_t))

(* --- timeline ----------------------------------------------------------------- *)

let parse_jsonl_lines contents =
  String.split_on_char '\n' contents
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.parse

(* Split a stream into runs.  A single run's timeline-jsonl export is
   one run opened by its schema header; a sweep-merged file carries a stream
   wrapper line, then per-run lines of the form
   [{"run":N, <key...>, "source":<original header>}] — the embedded
   source (which already carries the run's meta) becomes that run's
   header. *)
let split_timeline_runs lines =
  List.fold_left
    (fun acc j ->
      match Json.member "source" j with
      | Some src -> (src, []) :: acc
      | None -> (
          match Json.member "schema" j with
          | Some (Json.String s) when s = Timeline.schema -> (j, []) :: acc
          | Some _ -> acc (* the sweep stream wrapper line *)
          | None -> (
              match acc with
              | (h, body) :: rest -> (h, j :: body) :: rest
              | [] -> acc)))
    [] lines
  |> List.rev_map (fun (h, body) -> (h, List.rev body))

let spark_levels = " .:-=+*#%@"

(* ASCII sparkline: buckets grouped to at most 64 columns (sums within
   a group), each column scaled against the series maximum. *)
let sparkline values =
  let n = Array.length values in
  if n = 0 then ""
  else begin
    let group = (n + 63) / 64 in
    let cols = (n + group - 1) / group in
    let agg = Array.make cols 0 in
    Array.iteri (fun i v -> agg.(i / group) <- (agg.(i / group) + v)) values;
    let vmax = Array.fold_left max 1 agg in
    String.init cols (fun i ->
        let v = agg.(i) in
        if v = 0 then ' ' else spark_levels.[min 9 (1 + (v * 8 / vmax))])
  end

let is_record kind j =
  match Json.member "type" j with
  | Some (Json.String s) -> String.equal s kind
  | _ -> false

let jfloat ?(default = 0.0) j =
  match Json.to_float_opt j with Some f -> f | None -> default

let jmember_float name j =
  match Json.member name j with Some v -> jfloat v | None -> 0.0

let render_timeline_run ~top header body =
  let width =
    match Json.member "width" header with
    | Some w -> jfloat ~default:1.0 w
    | None -> 1.0
  in
  let meta =
    List.filter_map
      (fun name ->
        Option.map
          (fun v -> Printf.sprintf "%s=%s" name (Json.to_string v))
          (Json.member name header))
      [ "scenario"; "experiment"; "n"; "fraction"; "seed" ]
  in
  let bucketsj = List.filter (is_record "bucket") body in
  let floodsj = List.filter (is_record "flood") body in
  let summaryj = List.find_opt (is_record "flood_summary") body in
  let imax = List.fold_left (fun acc j -> max acc (jmember_int "i" j)) 0 bucketsj in
  Printf.printf "run %s (width %gs, %d bucket(s), %d flood(s))\n"
    (if meta = [] then "-" else String.concat " " meta)
    width (List.length bucketsj) (List.length floodsj);
  let series name =
    let a = Array.make (imax + 1) 0 in
    List.iter
      (fun j -> a.(jmember_int "i" j) <- a.(jmember_int "i" j) + jmember_int name j)
      bucketsj;
    a
  in
  Printf.printf "\n-- series (per %gs window) --------------------------\n" width;
  Printf.printf "%-13s %10s %8s\n" "series" "total" "max/w";
  List.iter
    (fun name ->
      let a = series name in
      let total = Array.fold_left ( + ) 0 a in
      let vmax = Array.fold_left max 0 a in
      if total > 0 then
        Printf.printf "%-13s %10d %8d  |%s|\n" name total vmax (sparkline a))
    [
      "events"; "deliveries"; "transmissions"; "drops"; "signs"; "verifies";
      "hash_blocks"; "audit";
    ];
  if floodsj <> [] then begin
    (* Cost of a flood: radio copies it put on the air plus the crypto
       verifications it triggered. *)
    let cost j = jmember_int "received" j + jmember_int "verifies" j in
    let tops =
      List.filteri
        (fun i _ -> i < top)
        (List.sort (fun a b -> Int.compare (cost b) (cost a)) floodsj)
    in
    Printf.printf "\n-- top %d floods by cost (received + verifies) -------\n"
      top;
    Printf.printf "%4s %-5s %6s %9s %6s %6s %6s %7s %7s %6s\n" "id" "kind"
      "origin" "start" "sent" "recv" "dup" "verify" "reached" "radius";
    List.iter
      (fun j ->
        Printf.printf "%4d %-5s %6d %9.2f %6d %6d %6d %7d %7d %6d\n"
          (jmember_int "id" j)
          (match Json.member "kind" j with
          | Some (Json.String s) -> s
          | _ -> "?")
          (jmember_int "origin" j)
          (jmember_float "start" j)
          (jmember_int "sent" j) (jmember_int "received" j)
          (jmember_int "duplicates" j)
          (jmember_int "verifies" j)
          (jmember_int "reached" j)
          (jmember_int "hop_radius" j))
      tops
  end;
  (match summaryj with
  | Some s -> (
      match Json.member "floods" s with
      | Some f ->
          Printf.printf
            "\nfloods %d  duplicate verifies per flood %.3f  redundancy \
             ratio %.3f\n"
            (jmember_int "count" f)
            (jmember_float "duplicate_verifies_per_flood" f)
            (jmember_float "flood_redundancy_ratio" f)
      | None -> ())
  | None -> ());
  print_newline ()

let timeline_cmd file top =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> `Error (false, msg)
  | contents -> (
      match parse_jsonl_lines contents with
      | exception Json.Parse_error msg ->
          `Error (false, Printf.sprintf "%s: %s" file msg)
      | lines -> (
          match split_timeline_runs lines with
          | [] -> `Error (false, file ^ ": no timeline header line")
          | runs ->
              List.iter
                (fun (h, _) ->
                  match Json.member "schema" h with
                  | Some (Json.String s) when s = Timeline.schema -> ()
                  | _ ->
                      prerr_endline
                        (Printf.sprintf
                           "warning: %s does not declare schema %s" file
                           Timeline.schema))
                runs;
              Printf.printf "timeline %s  (%d run(s))\n\n" file
                (List.length runs);
              List.iter (fun (h, body) -> render_timeline_run ~top h body) runs;
              `Ok ()))

let timeline_file_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TIMELINE.jsonl"
        ~doc:"A stream written by $(b,--export timeline-jsonl) (run or sweep).")

let timeline_term = Term.(ret (const timeline_cmd $ timeline_file_t $ top_t))

(* --- command tree ----------------------------------------------------------- *)

let cmds =
  [
    Cmd.v
      (Cmd.info "run" ~doc:"Bootstrap a MANET and run CBR traffic, with optional adversaries.")
      run_term;
    Cmd.v
      (Cmd.info "dad" ~doc:"Run secure bootstrapping only; optionally force a duplicate address.")
      dad_term;
    Cmd.v
      (Cmd.info "attacks" ~doc:"Run the canned attack behaviours against both protocols.")
      attacks_term;
    Cmd.v
      (Cmd.info "sweep"
         ~doc:
           "Fan the E1/E6 experiment grids — or a scenario file across a \
            seed list — over concurrent domains and merge the --export \
            kinds deterministically (byte-identical at any --domains \
            value): stats-csv into sweep.stats.csv, and audit-jsonl, \
            trace-jsonl, perf-json (its deterministic section) and \
            timeline-jsonl into sweep.<stream>.jsonl.  The metrics kinds \
            and report-json have no merged form and are rejected.")
      sweep_term;
    Cmd.group
      (Cmd.info "scenario"
         ~doc:"Work with declarative scenario files (see examples/scenarios/).")
      [
        Cmd.v
          (Cmd.info "check"
             ~doc:
               "Parse and validate scenario files, rejecting malformed input \
                with positioned (line:column) errors.")
          scenario_check_term;
      ];
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Query an exported JSONL trace: span tree, per-phase latency \
            percentiles, top-k slow spans.")
      report_term;
    Cmd.v
      (Cmd.info "perf"
         ~doc:
           "Query a perf-json export: per-label event table, top-k hottest \
            labels, neighbour-scan and fan-out histograms, GC/alloc \
            accounting.")
      perf_term;
    Cmd.v
      (Cmd.info "timeline"
         ~doc:
           "Query a timeline-jsonl export: sparkline table per windowed \
            series, top-k floods by propagation cost, flood aggregate \
            metrics (handles sweep-merged streams).")
      timeline_term;
    Cmd.v
      (Cmd.info "audit"
         ~doc:
           "Query an exported security audit stream: event timeline, \
            per-node scorecards, offline detector verdicts.")
      audit_term;
  ]

let () =
  let info =
    Cmd.info "manetsim" ~version:"1.0.0"
      ~doc:"Secure bootstrapping and routing in an IPv6-based ad hoc network (simulator)"
  in
  exit (Cmd.eval (Cmd.group info cmds))
