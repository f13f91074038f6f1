(* The multicore sweep contract: Parallel.map is order- and
   domain-count-invariant with exception safety, and a sweep of
   scenario files writes merged exports that are byte-identical at any
   domain count (the property test/replay.sh also checks end to end
   through the CLI). *)

module Parallel = Manet_sim.Parallel
module Merge = Manetsec.Merge
module Export = Manet_scenario.Export
module Json = Manetsec.Obs_json

let test_map_order () =
  let xs = List.init 37 (fun i -> i) in
  let expect = List.map (fun i -> i * i) xs in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "input order preserved at %d domain(s)" domains)
        expect
        (Parallel.map ~domains (fun i -> i * i) xs))
    [ 1; 2; 4; 16 ];
  Alcotest.(check (list int)) "empty input" [] (Parallel.map ~domains:4 (fun i -> i) []);
  Alcotest.(check (list int))
    "more domains than tasks" [ 10 ]
    (Parallel.map ~domains:8 (fun i -> i * 10) [ 1 ])

exception Boom of int

let test_map_exception () =
  List.iter
    (fun domains ->
      let ran = Atomic.make 0 in
      (try
         ignore
           (Parallel.map ~domains
              (fun i ->
                Atomic.incr ran;
                if i mod 3 = 1 then raise (Boom i) else i)
              (List.init 9 (fun i -> i)))
       with Boom i ->
         (* First failure in input order, regardless of scheduling. *)
         Alcotest.(check int)
           (Printf.sprintf "first raiser wins at %d domain(s)" domains)
           1 i);
      (* Every task ran: all domains were joined before the re-raise. *)
      Alcotest.(check int)
        (Printf.sprintf "all tasks ran at %d domain(s)" domains)
        9 (Atomic.get ran))
    [ 1; 3 ]

(* --- sweeps over committed scenario files ------------------------------ *)

module Scn = Manet_scenario.Scn

let scenario file = Scn.parse (Test_scenario.read_scenario file)

let top_level () = List.map scenario (Test_scenario.scenario_files ())

let mergeable =
  List.filter_map
    (fun (_, kind) -> if Export.mergeable kind then Some kind else None)
    Manet_scenario.Schema.exports

(* The merged exports of a sweep of every committed file at seeds 1 and
   2 with the five kinds a sweep can merge, one lazy value per domain
   count, shared by the per-kind domain-invariance tests here and in
   test_perf.ml and test_timeline.ml so the sweep runs once per count. *)
let sweep_exports =
  List.map
    (fun domains ->
      ( domains,
        lazy
          (Export.merged ~name:"sweep" mergeable
             (Scn.sweep ~domains ~seeds:[ 1; 2 ] ~exports:mergeable
                (top_level ()))) ))
    [ 1; 2; 4 ]

(* The merged export [file] of that sweep is non-empty and
   byte-identical at 1, 2 and 4 domains. *)
let check_domain_invariant file =
  let at domains =
    match List.assoc_opt file (Lazy.force (List.assoc domains sweep_exports)) with
    | Some text -> text
    | None -> Alcotest.failf "the sweep wrote no %s" file
  in
  let base = at 1 in
  Alcotest.(check bool) (file ^ " non-empty") true (base <> "");
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "%s byte-identical at %d domain(s)" file domains)
        base (at domains))
    [ 2; 4 ]

(* Stats, audit and trace here; perf and timeline in their own suites. *)
let test_sweep_deterministic () =
  Alcotest.(check int) "five mergeable kinds" 5 (List.length mergeable);
  Alcotest.(check (list string))
    "one merged file per kind"
    [
      "sweep.audit.jsonl";
      "sweep.perf.jsonl";
      "sweep.stats.csv";
      "sweep.timeline.jsonl";
      "sweep.trace.jsonl";
    ]
    (List.sort String.compare (List.map fst (Lazy.force (List.assoc 1 sweep_exports))));
  List.iter check_domain_invariant
    [ "sweep.stats.csv"; "sweep.audit.jsonl"; "sweep.trace.jsonl" ]

let test_sweep_artifacts () =
  let scns = [ scenario "partition_heal_r1.scn"; scenario "baseline_bootstrap.scn" ] in
  let runs =
    Scn.sweep ~domains:2 ~seeds:[ 2; 1 ]
      ~exports:[ Export.Audit_jsonl; Export.Trace_jsonl ] scns
  in
  Alcotest.(check (list (pair string int)))
    "one run per (scenario, seed), in key order"
    [
      ("baseline_bootstrap", 1);
      ("baseline_bootstrap", 2);
      ("partition_heal_r1", 1);
      ("partition_heal_r1", 2);
    ]
    (List.map
       (fun r ->
         match r.Merge.key with
         | [ ("scenario", Json.String name); ("seed", Json.Int seed) ] ->
             (name, seed)
         | _ -> Alcotest.fail "key is not (scenario, seed)")
       runs);
  List.iter
    (fun r ->
      Alcotest.(check bool) "stats non-empty" true (r.Merge.stats <> []);
      List.iter
        (fun stream ->
          match List.assoc_opt stream r.Merge.streams with
          | None -> Alcotest.failf "missing %s stream" stream
          | Some text ->
              (* Every stream starts with a parseable header line. *)
              let header =
                match String.index_opt text '\n' with
                | Some i -> String.sub text 0 i
                | None -> text
              in
              ignore (Json.parse header))
        [ "audit"; "trace" ])
    runs;
  (* The merged stream header counts the runs. *)
  let merged = Merge.stream_jsonl ~name:"audit" runs in
  let first_line = String.sub merged 0 (String.index merged '\n') in
  match Json.member "runs" (Json.parse first_line) with
  | Some (Json.Int n) ->
      Alcotest.(check int) "merged header run count" (List.length runs) n
  | _ -> Alcotest.fail "merged header lacks runs field"

(* Two runs under one (scenario, seed) key would merge into a document
   that cannot tell them apart: a repeated seed, or two files with the
   same (name ...), is refused before anything runs. *)
let test_duplicate_keys () =
  let heal = scenario "partition_heal_r1.scn" in
  Alcotest.check_raises "repeated seed"
    (Invalid_argument "Scn.sweep: duplicate run key (partition_heal_r1, 1)")
    (fun () ->
      ignore (Scn.sweep ~domains:1 ~seeds:[ 1; 2; 1 ] ~exports:[] [ heal ]));
  let renamed = { (scenario "bursty_links.scn") with Scn.name = heal.Scn.name } in
  Alcotest.check_raises "two files, one name"
    (Invalid_argument "Scn.sweep: duplicate run key (partition_heal_r1, 2)")
    (fun () ->
      ignore (Scn.sweep ~domains:1 ~seeds:[ 2 ] ~exports:[] [ heal; renamed ]))

(* A run inside a sweep that mixes a bootstrap-only file, a traffic and
   adversary file and a faulted file on two domains is the same run as
   that file alone: no state leaks between scenarios sharing a domain. *)
let test_sweep_run_alone () =
  let scns =
    List.map scenario
      [ "baseline_bootstrap.scn"; "blackhole_e1.scn"; "partition_heal_r1.scn" ]
  in
  let seeds = [ 1; 2 ] in
  let runs = Scn.sweep ~domains:2 ~seeds ~exports:mergeable scns in
  Alcotest.(check int) "one run per pair" 6 (List.length runs);
  List.iter
    (fun t ->
      List.iter
        (fun seed ->
          let key = Scn.meta t ~seed in
          let alone =
            Export.merge_run ~key mergeable
              (Scn.execute ~seed { t with Scn.exports = mergeable })
          in
          let tag what = Printf.sprintf "%s seed %d: %s" t.Scn.name seed what in
          match List.find_opt (fun r -> r.Merge.key = key) runs with
          | None -> Alcotest.fail (tag "no run in the sweep")
          | Some r ->
              Alcotest.(check (list (pair string int)))
                (tag "stats") alone.Merge.stats r.Merge.stats;
              Alcotest.(check (list (pair string string)))
                (tag "streams") alone.Merge.streams r.Merge.streams)
        seeds)
    scns

let test_merge_ordering () =
  (* Numeric key fields sort numerically, not lexically, and the merge
     is insensitive to input order. *)
  let mk seed =
    {
      Merge.key = [ ("experiment", Json.String "e1"); ("seed", Json.Int seed) ];
      stats = [ ("x", seed) ];
      streams = [ ("audit", "{\"h\":" ^ string_of_int seed ^ "}\n") ];
    }
  in
  let runs = [ mk 10; mk 2; mk 1 ] in
  let seeds_of rs =
    List.map
      (fun r ->
        match List.assoc "seed" r.Merge.key with Json.Int s -> s | _ -> -1)
      rs
  in
  Alcotest.(check (list int)) "canonical numeric order" [ 1; 2; 10 ]
    (seeds_of (Merge.sorted runs));
  Alcotest.(check string) "merge independent of input order"
    (Merge.stream_jsonl ~name:"audit" runs)
    (Merge.stream_jsonl ~name:"audit" (List.rev runs));
  Alcotest.check_raises "missing stream refuses to merge"
    (Invalid_argument "Merge.stream_jsonl: run 0 has no \"trace\" stream")
    (fun () -> ignore (Merge.stream_jsonl ~name:"trace" [ mk 1 ]))

let suites =
  [
    ( "sweep",
      [
        Alcotest.test_case "parallel map order" `Quick test_map_order;
        Alcotest.test_case "parallel map exceptions" `Quick test_map_exception;
        Alcotest.test_case "merge ordering" `Quick test_merge_ordering;
        Alcotest.test_case "sweep artifacts" `Quick test_sweep_artifacts;
        Alcotest.test_case "sweep duplicate run keys" `Quick test_duplicate_keys;
        Alcotest.test_case "sweep run equals run alone" `Slow test_sweep_run_alone;
        Alcotest.test_case "sweep byte-determinism" `Slow test_sweep_deterministic;
      ] );
  ]
