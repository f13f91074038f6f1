(* The multicore sweep contract: Parallel.map is order- and
   domain-count-invariant with exception safety, and merged sweep
   exports are byte-identical at any domain count (the property CI also
   checks end-to-end through the CLI). *)

module Parallel = Manet_sim.Parallel
module Merge = Manetsec.Merge
module Sweep = Manetsec.Sweep
module Export = Manetsec.Export
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

(* A grid small enough for the test suite but covering both
   experiments and two seeds. *)
let spec =
  {
    Sweep.e1_fractions = [ 0.2 ];
    e1_nodes = 16;
    e1_duration = 5.0;
    e6_sizes = [ 8 ];
    seeds = [ 1; 2 ];
  }

let test_sweep_deterministic () =
  let export runs =
    ( Merge.stats_csv runs,
      Merge.stream_jsonl ~name:"audit" runs,
      Merge.stream_jsonl ~name:"trace" runs )
  in
  let exports = [ Export.Stats_csv; Export.Audit_jsonl; Export.Trace_jsonl ] in
  let base = export (Sweep.run ~domains:1 ~exports spec) in
  List.iter
    (fun domains ->
      let s0, a0, t0 = base in
      let s, a, t = export (Sweep.run ~domains ~exports spec) in
      let tag what =
        Printf.sprintf "%s byte-identical at %d domain(s)" what domains
      in
      Alcotest.(check string) (tag "stats csv") s0 s;
      Alcotest.(check string) (tag "audit jsonl") a0 a;
      Alcotest.(check string) (tag "trace jsonl") t0 t)
    [ 2; 4 ]

let test_sweep_artifacts () =
  let runs =
    Sweep.run ~domains:2 ~exports:[ Export.Audit_jsonl; Export.Trace_jsonl ] spec
  in
  Alcotest.(check int) "one run per grid point"
    (List.length (Sweep.points spec))
    (List.length runs);
  List.iter
    (fun r ->
      Alcotest.(check (list string))
        "uniform key fields"
        [ "experiment"; "n"; "fraction"; "seed" ]
        (List.map fst r.Merge.key);
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
  let first_line =
    String.sub merged 0 (String.index merged '\n')
  in
  match Json.member "runs" (Json.parse first_line) with
  | Some (Json.Int n) ->
      Alcotest.(check int) "merged header run count" (List.length runs) n
  | _ -> Alcotest.fail "merged header lacks runs field"

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
        Alcotest.test_case "sweep byte-determinism" `Slow test_sweep_deterministic;
      ] );
  ]
