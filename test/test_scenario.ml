(* The scenario subsystem's contract: malformed files are rejected with
   positioned (line/col) errors, every committed example validates, a
   scenario-file run is byte-identical to the equivalent hand-coded
   configuration, the parser survives hostile input, and fanning one
   file across seeds is byte-deterministic in the domain count
   (test_sweep.ml holds the multi-file sweep contract). *)

module Scn = Manet_scenario.Scn
module Schema = Manet_scenario.Schema
module Export = Manet_scenario.Export
module Sexp = Manet_scenario.Sexp
module Scenario = Manetsec.Scenario
module Mobility = Manetsec.Sim.Mobility
module Engine = Manetsec.Sim.Engine
module Adversary = Manetsec.Adversary
module Obs = Manetsec.Obs
module Json = Manetsec.Obs_json
module Audit = Manetsec.Audit
module Merge = Manetsec.Merge
module Metrics = Manetsec.Metrics
module Sha256 = Manetsec.Crypto.Sha256

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* Decoding [text] must fail at exactly [line]:[col] with a message
   mentioning [needle] — the positioned-error contract a user sees as
   file:line:col from `manetsim scenario check`. *)
let check_err name text ~line ~col ~needle =
  let fail_pos (pos : Sexp.pos) msg =
    Alcotest.(check (pair int int))
      (name ^ ": position") (line, col)
      (pos.Sexp.line, pos.Sexp.col);
    if not (contains msg needle) then
      Alcotest.failf "%s: error %S does not mention %S" name msg needle
  in
  match Scn.parse text with
  | _decoded -> Alcotest.failf "%s: expected a positioned error" name
  | exception Scn.Error { pos; msg } -> fail_pos pos msg
  | exception Sexp.Parse_error { pos; msg } -> fail_pos pos msg

let test_error_positions () =
  check_err "malformed sexp"
    "(scenario (schema manetsim-scenario 1)\n  (name x)\n" ~line:1 ~col:1
    ~needle:"unclosed parenthesis";
  check_err "unknown field"
    "(scenario\n  (schema manetsim-scenario 1)\n  (name ok)\n  (nodes 4)\n\
    \  (frobnicate 1))"
    ~line:5 ~col:4 ~needle:"unknown field frobnicate";
  check_err "duplicate field"
    "(scenario\n  (schema manetsim-scenario 1)\n  (name ok)\n  (nodes 4)\n\
    \  (seed 2)\n  (seed 3))"
    ~line:6 ~col:4 ~needle:"duplicate field seed";
  check_err "duplicate node id"
    "(scenario\n  (schema manetsim-scenario 1)\n  (name ok)\n  (nodes 3)\n\
    \  (topology (explicit (width 100.0) (height 100.0)\n\
    \    (node 0 1.0 1.0)\n    (node 1 2.0 2.0)\n    (node 1 3.0 3.0))))"
    ~line:8 ~col:11 ~needle:"duplicate node id 1";
  check_err "out-of-range fraction"
    "(scenario\n  (schema manetsim-scenario 1)\n  (name ok)\n  (nodes 4)\n\
    \  (loss 1.5))"
    ~line:5 ~col:9 ~needle:"out of range";
  check_err "unknown adversary kind"
    "(scenario\n  (schema manetsim-scenario 1)\n  (name ok)\n  (nodes 4)\n\
    \  (adversaries (wormhole 2)))"
    ~line:5 ~col:17 ~needle:"unknown adversary kind wormhole";
  check_err "another kind's adversary parameter"
    "(scenario\n  (schema manetsim-scenario 1)\n  (name ok)\n  (nodes 4)\n\
    \  (adversaries (grayhole 2 (every 2.0))))"
    ~line:5 ~col:29 ~needle:"unknown grayhole adversary parameter every";
  check_err "unsupported schema version"
    "(scenario\n  (schema manetsim-scenario 2)\n  (name ok)\n  (nodes 4))"
    ~line:2 ~col:29 ~needle:"unsupported schema version 2";
  check_err "adversary on the DNS node"
    "(scenario\n  (schema manetsim-scenario 1)\n  (name ok)\n  (nodes 4)\n\
    \  (adversaries (blackhole 0)))"
    ~line:5 ~col:27 ~needle:"node 0 hosts the DNS";
  check_err "flow to itself"
    "(scenario\n  (schema manetsim-scenario 1)\n  (name ok)\n  (nodes 4)\n\
    \  (traffic (cbr (src 2) (dst 2))))"
    ~line:5 ~col:12 ~needle:"source and destination are both node 2";
  check_err "node index out of range"
    "(scenario\n  (schema manetsim-scenario 1)\n  (name ok)\n  (nodes 4)\n\
    \  (faults (crash 9 (at 5.0))))"
    ~line:5 ~col:18 ~needle:"not in [0, 4)";
  let bootstrap forms =
    "(scenario\n  (schema manetsim-scenario 1)\n  (name ok)\n  (nodes 4)\n\
    \  (bootstrap " ^ forms ^ "))"
  in
  check_err "duplicate-address joiner out of range"
    (bootstrap "(stagger 0.5) (duplicate-address 9 1)")
    ~line:5 ~col:47 ~needle:"joiner out of range: 9 is not in [0, 4)";
  check_err "duplicate-address owner out of range"
    (bootstrap "(stagger 0.5) (duplicate-address 2 7)")
    ~line:5 ~col:49 ~needle:"owner out of range: 7 is not in [0, 4)";
  check_err "duplicate-address onto itself"
    (bootstrap "(stagger 0.5) (duplicate-address 2 2)")
    ~line:5 ~col:28 ~needle:"joiner and owner are both node 2";
  check_err "duplicate-address joiner on the DNS node"
    (bootstrap "(stagger 0.5) (duplicate-address 0 1)")
    ~line:5 ~col:47 ~needle:"node 0 hosts the DNS";
  check_err "duplicate-address joiner repeated"
    (bootstrap "(stagger 0.5) (duplicate-address 3 1) (duplicate-address 3 2)")
    ~line:5 ~col:71 ~needle:"node 3 joins with two duplicate addresses";
  check_err "duplicate-address without a stagger"
    (bootstrap "(duplicate-address 3 1)")
    ~line:5 ~col:14 ~needle:"needs the bootstrap's (stagger ...) stated";
  (* AODV gives the source-routed attacks nothing to do. *)
  let aodv_file protocol body =
    Printf.sprintf
      "(scenario\n  (schema manetsim-scenario 1)\n  (name ok)\n  (nodes 4)\n\
       \  (protocol %s)\n  %s)"
      protocol body
  in
  List.iter
    (fun (protocol, kind) ->
      check_err
        (Printf.sprintf "%s adversary under %s" kind protocol)
        (aodv_file protocol (Printf.sprintf "(adversaries (blackhole 1) (%s 2))" kind))
        ~line:6 ~col:31
        ~needle:(Printf.sprintf "adversary %s has no action under protocol %s" kind protocol))
    [
      ("aodv", "replayer"); ("aodv", "rerr-spammer");
      ("saodv", "replayer"); ("saodv", "rerr-spammer");
    ];
  (* AODV names no next hop: every overhearing neighbour would act as one. *)
  List.iter
    (fun protocol ->
      check_err
        (Printf.sprintf "promiscuous radio under %s" protocol)
        (aodv_file protocol "(promiscuous true)")
        ~line:6 ~col:4
        ~needle:(Printf.sprintf "promiscuous radios are not supported under protocol %s" protocol))
    [ "aodv"; "saodv" ];
  (* Under SAODV node 0's DNS address is no CGA: its flows deliver nothing. *)
  check_err "saodv flow from the DNS node"
    (aodv_file "saodv" "(traffic (cbr (src 0) (dst 3)))")
    ~line:6 ~col:22 ~needle:"the flow source is node 0, whose DNS address is no CGA";
  check_err "saodv flow to the DNS node"
    (aodv_file "saodv" "(traffic (cbr (src 2) (dst 0)))")
    ~line:6 ~col:30 ~needle:"the flow destination is node 0";
  List.iter
    (fun (protocol, body) ->
      match Scn.parse (aodv_file protocol body) with
      | _decoded -> ()
      | exception Scn.Error { msg; _ } ->
          Alcotest.failf "%s %s: unexpected error %s" protocol body msg)
    [
      ("aodv", "(adversaries (identity-churner 2) (sleeper 3))");
      ("aodv", "(promiscuous false)");
      ("aodv", "(traffic (cbr (src 0) (dst 3)))");
      ("saodv", "(dns false)\n  (traffic (cbr (src 0) (dst 3)))");
    ]

(* The full vocabulary decodes to the expected typed form. *)
let test_vocabulary () =
  let scn =
    Scn.parse
      "(scenario\n\
      \  (schema manetsim-scenario 1)\n\
      \  (name kitchen-sink)\n\
      \  (seed 9)\n\
      \  (nodes 8)\n\
      \  (range 300.0)\n\
      \  (loss 0.1)\n\
      \  (promiscuous true)\n\
      \  (protocol dsr)\n\
      \  (suite (rsa 512))\n\
      \  (dns false)\n\
      \  (topology (grid (cols 4) (spacing 150.0)))\n\
      \  (mobility (walk (speed 3.0) (turn-interval 2.0)))\n\
      \  (bootstrap (stagger 0.25) (duplicate-address 7 2) (duplicate-address 0 7))\n\
      \  (duration 10.0)\n\
      \  (run-until 40.0)\n\
      \  (traffic (cbr (src 0) (dst 7) (interval 0.25) (size 256) (start 12.0)\n\
      \    (duration 8.0)))\n\
      \  (adversaries (grayhole 3 (prob 0.25)) (rerr-spammer 5 (every 2.0))\n\
      \    (identity-churner 0 (every 5.0)) (sleeper 6))\n\
      \  (faults (crash 2 (at 15.0)) (restart 2 (at 20.0))\n\
      \    (link-down 1 4 (at 16.0)) (link-up 1 4 (at 18.0))\n\
      \    (flap 4 7 (from 20.0) (until 30.0) (period 2.5))\n\
      \    (outage 3 (from 22.0) (until 28.0)))\n\
      \  (exports metrics-prom report-json))"
  in
  let p = scn.Scn.params in
  Alcotest.(check int) "seed" 9 p.Scenario.seed;
  Alcotest.(check bool) "promiscuous" true p.Scenario.promiscuous;
  Alcotest.(check bool) "dns off" false p.Scenario.with_dns;
  (match p.Scenario.protocol with
  | Scenario.Plain_dsr -> ()
  | Scenario.Secure | Scenario.Srp_protocol | Scenario.Aodv | Scenario.Saodv ->
      Alcotest.fail "expected the dsr protocol");
  (match p.Scenario.suite with
  | Scenario.Rsa_suite 512 -> ()
  | Scenario.Rsa_suite _ | Scenario.Mock_suite -> Alcotest.fail "expected (rsa 512)");
  (match p.Scenario.topology with
  | Scenario.Grid { cols = 4; _ } -> ()
  | _ -> Alcotest.fail "expected a 4-column grid");
  (match p.Scenario.mobility with
  | Mobility.Random_walk { speed; _ } -> Alcotest.(check (float 1e-9)) "speed" 3.0 speed
  | _ -> Alcotest.fail "expected walk mobility");
  (match scn.Scn.flows with
  | [ f ] ->
      Alcotest.(check int) "size" 256 f.Scn.flow_size;
      Alcotest.(check (option (float 1e-9))) "start" (Some 12.0) f.Scn.flow_start
  | _ -> Alcotest.fail "expected one flow");
  (match scn.Scn.bootstrap with
  | Some { Scn.stagger; duplicates } ->
      Alcotest.(check (float 1e-9)) "stagger" 0.25 stagger;
      Alcotest.(check (list (pair int int)))
        "duplicate addresses, in file order, node 0 allowed without DNS"
        [ (7, 2); (0, 7) ]
        (List.map (fun d -> (d.Scn.joiner, d.Scn.owner)) duplicates)
  | None -> Alcotest.fail "expected a bootstrap");
  Alcotest.(check bool) "each adversary's behaviour, in file order" true
    (p.Scenario.adversaries
    = [
        (3, Adversary.grayhole 0.25);
        (5, Adversary.rerr_spammer ~every:2.0);
        (0, Adversary.identity_churner ~every:5.0);
        (6, Adversary.sleeper);
      ]);
  Alcotest.(check int) "faults" 6 (List.length scn.Scn.faults);
  Alcotest.(check int) "exports" 2 (List.length scn.Scn.exports);
  List.iter
    (fun (keyword, expected) ->
      let p =
        (Scn.parse
           ("(scenario (schema manetsim-scenario 1) (name hop) (nodes 4) (protocol "
          ^ keyword ^ "))"))
          .Scn.params
      in
      Alcotest.(check bool) ("protocol " ^ keyword) true (p.Scenario.protocol = expected))
    [ ("aodv", Scenario.Aodv); ("saodv", Scenario.Saodv) ];
  (* A flap every microsecond and a churn over 1e9 s decode to two
     symbolic forms, never to their events (so this is never run). *)
  let hostile =
    Scn.parse
      "(scenario (schema manetsim-scenario 1) (name hostile) (nodes 4)\n\
      \  (faults (flap 1 2 (from 0) (until 1e9) (period 1e-6))\n\
      \    (churn (seed 7) (nodes 1 2 3) (horizon 1e9) (mean-up 1e-6)\n\
      \      (mean-down 1e-6))))"
  in
  match hostile.Scn.faults with
  | [ Scn.Flap { period; _ }; Scn.Churn { horizon; _ } ] ->
      Alcotest.(check (float 0.0)) "flap period" 1e-6 period;
      Alcotest.(check (float 0.0)) "churn horizon" 1e9 horizon
  | _ -> Alcotest.fail "expected exactly a flap form and a churn form"

(* Every field a file leaves out takes its Scenario.default_params
   value: the decoder holds no second set of run defaults. *)
let test_defaults () =
  let scn =
    Scn.parse "(scenario (schema manetsim-scenario 1) (name mini) (nodes 4))"
  in
  Alcotest.(check bool) "params are default_params with n = 4" true
    (scn.Scn.params = { Scenario.default_params with n = 4 });
  Alcotest.(check (float 1e-9)) "default duration" 60.0 scn.Scn.duration;
  Alcotest.(check bool) "no bootstrap, horizon, flows, faults or exports" true
    (scn.Scn.bootstrap = None && scn.Scn.run_until = None && scn.Scn.flows = []
    && scn.Scn.faults = [] && scn.Scn.exports = [])

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec` it is the project root. *)
let scenarios_dir =
  let from_test = Filename.concat (Filename.concat ".." "examples") "scenarios" in
  if Sys.file_exists from_test then from_test
  else Filename.concat "examples" "scenarios"

let read_scenario file =
  In_channel.with_open_bin (Filename.concat scenarios_dir file)
    In_channel.input_all

(* The committed .scn files in [dir] (default: the top level), as
   paths relative to [scenarios_dir], in name order. *)
let scenario_files ?(dir = "") () =
  Sys.readdir (Filename.concat scenarios_dir dir)
  |> Array.to_list
  |> List.filter (String.ends_with ~suffix:".scn")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let test_examples_validate () =
  let files = scenario_files () in
  Alcotest.(check bool)
    "at least six committed scenarios" true
    (List.length files >= 6);
  List.iter
    (fun file ->
      match Scn.parse (read_scenario file) with
      | scn ->
          Alcotest.(check bool)
            (file ^ " requests at least one export")
            true
            (List.length scn.Scn.exports >= 1)
      | exception Scn.Error { pos; msg } ->
          Alcotest.failf "%s:%d:%d: %s" file pos.Sexp.line pos.Sexp.col msg
      | exception Sexp.Parse_error { pos; msg } ->
          Alcotest.failf "%s:%d:%d: %s" file pos.Sexp.line pos.Sexp.col msg)
    files

(* --- hostile input ---------------------------------------------------- *)

(* Every committed scenario file, the scale curve included. *)
let committed_texts =
  lazy
    (Array.of_list
       (List.map read_scenario (scenario_files () @ scenario_files ~dir:"scale" ())))

(* Scn.parse answers any text with a scenario or one of its two typed
   errors; any other exception escapes and fails the caller. *)
let parses_or_rejects text =
  match Scn.parse text with
  | (_ : Scn.t) -> true
  | exception Scn.Error _ -> true
  | exception Sexp.Parse_error _ -> true

(* A committed file with 1-4 bytes replaced, the bytes drawn half from
   the S-expression syntax and number spelling and half at random. *)
let mutated_file =
  let open QCheck.Gen in
  let byte =
    oneof
      [
        char;
        oneofl [ '('; ')'; '"'; '\\'; ';'; ' '; '\n'; '-'; '.'; 'e'; '0'; '9' ];
      ]
  in
  let gen =
    let* file = int_bound (Array.length (Lazy.force committed_texts) - 1) in
    let text = (Lazy.force committed_texts).(file) in
    let+ edits =
      list_size (int_range 1 4) (pair (int_bound (String.length text - 1)) byte)
    in
    let b = Bytes.of_string text in
    List.iter (fun (i, c) -> Bytes.set b i c) edits;
    Bytes.to_string b
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

let prop_mutated_files =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:10_000 ~name:"mutated scenario files raise only typed errors"
       mutated_file parses_or_rejects)

let test_deep_nesting () =
  let depth = 100_000 in
  List.iter
    (fun (what, text) ->
      Alcotest.(check bool) (what ^ " raises only typed errors") true
        (parses_or_rejects text))
    [
      ("unclosed nest", String.make depth '(');
      ("closed nest", String.make depth '(' ^ String.make depth ')');
    ]

(* Golden exports: every committed scenario, run at its own seed, must
   reproduce the SHA-256 of each deterministic export pinned in
   test/golden/scenario_exports.txt.  This holds a speed-only change to
   byte-identity with the code that recorded the digests, not just with
   a replay of itself. *)
let golden_file name =
  if Sys.file_exists "golden" then Filename.concat "golden" name
  else Filename.concat (Filename.concat "test" "golden") name

(* Who the audit stream accuses: per audit kind with a subject, how
   many subjects are planted adversaries and how many are other nodes.
   The ground-truth [attack_*] and [fault_*] kinds are left out.  A file
   with no accusation reads "none". *)
let accusations file s audit_text =
  let adversaries = List.map fst (Scenario.params s).Scenario.adversaries in
  let events = (Audit.parse_jsonl audit_text).Audit.parsed_events in
  let lines =
    List.filter_map
      (fun kind ->
        let label = Audit.kind_label kind in
        let planted, other =
          List.fold_left
            (fun (p, o) (ev : Audit.event) ->
              match ev.subject_node with
              | Some n when ev.kind = kind ->
                  if List.mem n adversaries then (p + 1, o) else (p, o + 1)
              | _ -> (p, o))
            (0, 0) events
        in
        if
          String.starts_with ~prefix:"attack_" label
          || String.starts_with ~prefix:"fault_" label
          || planted + other = 0
        then None
        else Some (Printf.sprintf "%s %s adversaries %d others %d" file label planted other))
      Audit.all_kinds
  in
  if lines = [] then [ file ^ " none" ] else lines

(* The fixed spans, audit and timeline streams each read a sink that
   only its own export switches on, so the gate turns them on itself:
   it runs the file with [trace-jsonl], [audit-jsonl] and
   [timeline-jsonl] added to its exports, and renders the file's own
   requested exports from that run. *)
let export_digests file =
  let scn = Scn.parse (read_scenario file) in
  let seed = scn.Scn.params.Scenario.seed in
  let sinks = [ Export.Trace_jsonl; Export.Audit_jsonl; Export.Timeline_jsonl ] in
  let s = Scn.execute { scn with Scn.exports = sinks @ scn.Scn.exports } in
  let meta = Scn.meta scn ~seed in
  let obs = Scenario.obs s in
  let audit = Audit.to_jsonl ~meta (Obs.audit obs) in
  let fixed =
    [
      ("stats", Export.render ~meta s Export.Stats_csv);
      ("spans", Obs.to_jsonl ~meta obs);
      ("audit", audit);
      ("metrics", Metrics.to_csv ~stats:(Scenario.stats s) (Obs.metrics obs));
      ("timeline", Scenario.timeline_jsonl ~meta s);
    ]
  in
  let requested =
    List.map
      (fun kind ->
        (Export.file ~name:scn.Scn.name kind, Export.render ~meta s kind))
      scn.Scn.exports
  in
  ( List.map
      (fun (stream, text) -> (file, stream, Sha256.digest_hex text))
      (fixed @ requested),
    accusations file s audit )

let test_golden_exports () =
  let golden =
    In_channel.with_open_bin (golden_file "scenario_exports.txt") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ file; stream; digest ] when not (String.starts_with ~prefix:"#" line)
             ->
               Some ((file, stream), digest)
           | _ -> None)
  in
  let files =
    Sys.readdir scenarios_dir |> Array.to_list
    |> List.filter (String.ends_with ~suffix:".scn")
    |> List.sort String.compare
  in
  let runs = List.map export_digests files in
  let actual = List.concat_map fst runs in
  List.iter
    (fun (file, stream, digest) ->
      match List.assoc_opt (file, stream) golden with
      | Some want when String.equal want digest -> ()
      | Some want ->
          Alcotest.failf "%s: the %s export changed (golden %s, now %s)" file
            stream want digest
      | None ->
          Alcotest.failf "%s: the %s export has no golden digest; add \"%s %s %s\""
            file stream file stream digest)
    actual;
  List.iter
    (fun ((file, stream), _) ->
      if not (List.exists (fun (f, s, _) -> f = file && s = stream) actual) then
        Alcotest.failf "%s: golden digest for %s matches no export" file stream)
    golden;
  let pinned =
    In_channel.with_open_bin (golden_file "accusations.txt") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"#" l))
  in
  let now = List.concat_map snd runs in
  if pinned <> now then
    Alcotest.failf "the accusations changed; test/golden/accusations.txt now reads:\n%s"
      (String.concat "\n" now)

(* The acceptance property: running blackhole_e1.scn produces exports
   byte-identical to the equivalent configuration written directly
   against the Manetsec API. *)
let test_file_equals_hand_coded () =
  let scn = Scn.parse (read_scenario "blackhole_e1.scn") in
  let file_side = Scn.execute scn in
  let contents_of kind =
    if not (List.mem kind scn.Scn.exports) then Alcotest.fail "missing export";
    Export.render ~meta:(Scn.meta scn ~seed:scn.Scn.params.Scenario.seed) file_side kind
  in
  (* Hand-coded equivalent of the file, step by step. *)
  let params =
    {
      Scenario.default_params with
      n = 36;
      seed = 1;
      range = 250.0;
      topology = Scenario.Random { width = 900.0; height = 900.0 };
      mobility =
        Mobility.Random_waypoint { min_speed = 1.0; max_speed = 10.0; pause = 2.0 };
      protocol = Scenario.Secure;
      adversaries =
        List.map (fun i -> (i, Adversary.blackhole)) [ 5; 9; 13; 20; 27; 31; 35 ];
    }
  in
  let s = Scenario.create params in
  Obs.set_capture (Scenario.obs s) true;
  List.iter
    (fun (a, b) ->
      Scenario.start_cbr s ~flows:[ (a, b) ] ~interval:0.5 ~size:512
        ~start_at:0.0 ~duration:60.0 ())
    [ (1, 17); (3, 21); (8, 28); (14, 2); (6, 30); (11, 25); (19, 33); (22, 4) ];
  Scenario.run s ~until:120.0;
  let meta = Scn.meta scn ~seed:1 in
  (match meta with
  | [ (k1, Json.String v); (k2, Json.Int seed) ] ->
      Alcotest.(check (list string)) "meta keys" [ "scenario"; "seed" ] [ k1; k2 ];
      Alcotest.(check string) "meta name" "blackhole_e1" v;
      Alcotest.(check int) "meta seed" 1 seed
  | _ -> Alcotest.fail "unexpected meta shape");
  Alcotest.(check string) "stats csv byte-identical"
    (Export.render ~meta s Export.Stats_csv)
    (contents_of Export.Stats_csv);
  Alcotest.(check string) "audit jsonl byte-identical"
    (Audit.to_jsonl ~meta (Obs.audit (Scenario.obs s)))
    (contents_of Export.Audit_jsonl);
  Alcotest.(check string) "trace jsonl byte-identical"
    (Obs.to_jsonl ~meta (Scenario.obs s))
    (contents_of Export.Trace_jsonl)

(* A run captures events only when an export reads them: counters-only
   large_n.scn stores none, while blackhole_e1.scn, which requests
   trace-jsonl, writes every captured event into that export.  Audit
   retention and timeline buckets are on demand the same way:
   dsr_faults.scn plants adversaries but reads neither stream. *)
let test_capture_on_demand () =
  let stats_only = Scn.execute (Scn.parse (read_scenario "large_n.scn")) in
  Alcotest.(check int) "stats-csv run captures no events" 0
    (List.length (Obs.events (Scenario.obs stats_only)));
  let faulted = Scn.execute (Scn.parse (read_scenario "dsr_faults.scn")) in
  let lines text = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  Alcotest.(check bool) "the unread run emits audit events" true
    (Audit.count (Obs.audit (Scenario.obs faulted)) > 0);
  Alcotest.(check int) "unread audit stream: the header line only" 1
    (List.length (lines (Export.render ~meta:[] faulted Export.Audit_jsonl)));
  Alcotest.(check bool) "unread timeline: no bucket line" false
    (List.exists
       (fun l -> contains l "\"type\":\"bucket\"")
       (lines (Export.render ~meta:[] faulted Export.Timeline_jsonl)));
  let scn = Scn.parse (read_scenario "blackhole_e1.scn") in
  let traced = Scn.execute scn in
  let events = Obs.events (Scenario.obs traced) in
  Alcotest.(check bool) "trace-jsonl run captures events" true (events <> []);
  let event_lines =
    Export.render ~meta:(Scn.meta scn ~seed:scn.Scn.params.Scenario.seed) traced Export.Trace_jsonl
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.starts_with ~prefix:"{\"type\":\"event\"" l)
    |> List.length
  in
  Alcotest.(check int) "one trace line per captured event"
    (List.length events) event_lines

(* A report-only run keeps the spans its report reads: baseline_bootstrap
   run with only its own exports writes the report pinned in
   test/golden/baseline_bootstrap.report.json (57 spans, 19 of them
   dad.bootstrap), as [manetsim run] does. *)
let test_report_only_run_keeps_spans () =
  let scn = Scn.parse (read_scenario "baseline_bootstrap.scn") in
  Alcotest.(check bool) "the file asks for report-json" true
    (List.mem Export.Report_json scn.Scn.exports);
  let s = Scn.execute scn in
  let want =
    In_channel.with_open_bin (golden_file "baseline_bootstrap.report.json")
      In_channel.input_all
  in
  Alcotest.(check string) "report-json bytes" want
    (Export.render ~meta:(Scn.meta scn ~seed:scn.Scn.params.Scenario.seed) s
       Export.Report_json)

(* Fanning one scenario across seeds is byte-deterministic in the
   domain count (the Parallel/Merge contract, end to end). *)
let test_sweep_domain_invariant () =
  let scn =
    Scn.parse
      "(scenario\n\
      \  (schema manetsim-scenario 1)\n\
      \  (name chain-sweep)\n\
      \  (nodes 5)\n\
      \  (topology (chain (spacing 200.0)))\n\
      \  (bootstrap (stagger 0.5))\n\
      \  (duration 5.0)\n\
      \  (run-until 30.0)\n\
      \  (traffic (cbr (src 1) (dst 4) (interval 1.0)))\n\
      \  (exports stats-csv))"
  in
  let exports = [ Export.Stats_csv; Export.Audit_jsonl; Export.Trace_jsonl ] in
  let runs1 = Scn.sweep ~domains:1 ~seeds:[ 1; 2 ] ~exports [ scn ] in
  let runs2 = Scn.sweep ~domains:2 ~seeds:[ 1; 2 ] ~exports [ scn ] in
  (match runs1 with
  | r :: _ ->
      Alcotest.(check bool)
        "run key is the scenario meta" true
        (r.Merge.key = Scn.meta scn ~seed:1)
  | [] -> Alcotest.fail "no runs");
  Alcotest.(check string) "merged stats byte-identical"
    (Merge.stats_csv runs1) (Merge.stats_csv runs2);
  Alcotest.(check string) "merged audit byte-identical"
    (Merge.stream_jsonl ~name:"audit" runs1)
    (Merge.stream_jsonl ~name:"audit" runs2);
  Alcotest.(check string) "merged trace byte-identical"
    (Merge.stream_jsonl ~name:"trace" runs1)
    (Merge.stream_jsonl ~name:"trace" runs2)

(* --- the export vocabulary ------------------------------------------- *)

let small_scenario ?(exports = "") () =
  Printf.sprintf
    "(scenario\n\
    \  (schema manetsim-scenario 1)\n\
    \  (name vocab)\n\
    \  (seed 3)\n\
    \  (nodes 5)\n\
    \  (topology (chain (spacing 200.0)))\n\
    \  (bootstrap (stagger 0.5))\n\
    \  (duration 5.0)\n\
    \  (run-until 30.0)\n\
    \  (traffic (cbr (src 1) (dst 4) (interval 1.0)))%s)"
    (if exports = "" then "" else "\n  (exports " ^ exports ^ ")")

(* Every keyword names its own kind, and all eight kinds have one. *)
let test_export_keywords () =
  List.iter
    (fun (keyword, kind) ->
      let scn = Scn.parse (small_scenario ~exports:keyword ()) in
      Alcotest.(check bool) (keyword ^ " decodes to its kind") true
        (scn.Scn.exports = [ kind ]))
    Schema.exports;
  Alcotest.(check (list string)) "export_kinds are the table's keywords"
    (List.map fst Schema.exports) Schema.export_kinds;
  Alcotest.(check int) "eight kinds, each once" 8
    (List.length (List.sort_uniq compare (List.map snd Schema.exports)))

let every_kind = List.map snd Schema.exports

(* The report's wall-clock profile differs between two renders of the
   same run; everything else must match. *)
let without_profile text =
  match Json.parse text with
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "profile") fields)
  | j -> j

(* Each kind's rendering is the direct library call it stands for. *)
let check_renders what ~meta s =
  let obs = Scenario.obs s in
  let render = Export.render ~meta s in
  let same kind direct =
    Alcotest.(check string)
      (Printf.sprintf "%s: %s" what (Export.file ~name:"x" kind))
      direct (render kind)
  in
  same Export.Audit_jsonl (Audit.to_jsonl ~meta (Obs.audit obs));
  same Export.Trace_jsonl (Obs.to_jsonl ~meta obs);
  same Export.Metrics_csv (Metrics.to_csv ~stats:(Scenario.stats s) (Obs.metrics obs));
  same Export.Metrics_prom
    (Metrics.to_prom ~stats:(Scenario.stats s) (Obs.metrics obs));
  same Export.Timeline_jsonl (Scenario.timeline_jsonl ~meta s);
  let det text = Json.member "deterministic" (Json.parse text) in
  Alcotest.(check bool) (what ^ ": perf-json deterministic section") true
    (det (Export.render ~meta s Export.Perf_json)
    = det (Json.to_string (Scenario.perf_json ~meta s)));
  Alcotest.(check bool) (what ^ ": perf-json ends with a newline") true
    (String.ends_with ~suffix:"}\n" (render Export.Perf_json));
  Alcotest.(check bool) (what ^ ": report-json without its profile") true
    (without_profile (render Export.Report_json)
    = without_profile
        (Json.to_string
           (Manetsec.Obs_report.run_report ~engine:(Scenario.engine s) ~obs
              ~extra:meta ())))

let test_export_renders () =
  (* A run built directly on the Manetsec API, with no scenario file. *)
  let s =
    Scenario.create
      {
        Scenario.default_params with
        n = 5;
        seed = 3;
        topology = Scenario.Chain { spacing = 200.0 };
      }
  in
  Export.prepare every_kind s;
  Scenario.bootstrap s;
  Scenario.start_cbr s ~flows:[ (1, 4) ] ~interval:1.0 ~duration:5.0 ();
  Scenario.run s ~until:30.0;
  check_renders "flag-built run" ~meta:[ ("seed", Json.Int 3) ] s;
  (* A file run asking for all eight kinds. *)
  let scn =
    Scn.parse (small_scenario ~exports:(String.concat " " Schema.export_kinds) ())
  in
  Alcotest.(check int) "the file asks for every kind" 8 (List.length scn.Scn.exports);
  check_renders "file run" ~meta:(Scn.meta scn ~seed:3) (Scn.execute scn)

let test_prepare_sinks () =
  List.iter
    (fun (keyword, kind) ->
      let s = Scenario.create { Scenario.default_params with n = 3 } in
      Export.prepare [ kind ] s;
      let obs = Scenario.obs s in
      Alcotest.(check bool) (keyword ^ ": capture")
        (kind = Export.Trace_jsonl || kind = Export.Report_json)
        (Obs.wants_events obs);
      (* A record lands in the export only while metrics are on. *)
      let m = Obs.metrics obs in
      let before = Metrics.to_csv m in
      Metrics.record m ~node:0 ~by:1 (Manet_sim.Stats.key "probe");
      Alcotest.(check bool) (keyword ^ ": metrics")
        (kind = Export.Metrics_csv || kind = Export.Metrics_prom)
        (not (String.equal before (Metrics.to_csv m))))
    Schema.exports

let test_sweep_rejects_unmerged () =
  let scn = Scn.parse (small_scenario ()) in
  List.iter
    (fun (keyword, kind) ->
      let rejected f =
        match f () with
        | [] | _ :: _ -> false
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool)
        (keyword ^ ": Scn.sweep rejects it iff it has no merged form")
        (not (Export.mergeable kind))
        (rejected (fun () -> Scn.sweep ~domains:1 ~seeds:[ 1 ] ~exports:[ kind ] [ scn ])))
    Schema.exports;
  Alcotest.(check (list string)) "the three kinds with no merged form"
    [ "metrics-csv"; "metrics-prom"; "report-json" ]
    (List.filter_map
       (fun (keyword, kind) -> if Export.mergeable kind then None else Some keyword)
       Schema.exports)

let suites =
  [
    ( "scenario",
      [
        Alcotest.test_case "positioned errors" `Quick test_error_positions;
        Alcotest.test_case "vocabulary decode" `Quick test_vocabulary;
        Alcotest.test_case "defaults" `Quick test_defaults;
        Alcotest.test_case "examples validate" `Quick test_examples_validate;
        prop_mutated_files;
        Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
        Alcotest.test_case "golden exports" `Quick test_golden_exports;
        Alcotest.test_case "capture only on demand" `Quick
          test_capture_on_demand;
        Alcotest.test_case "report-only run keeps its spans" `Quick
          test_report_only_run_keeps_spans;
        Alcotest.test_case "file run equals hand-coded run" `Slow
          test_file_equals_hand_coded;
        Alcotest.test_case "export keywords decode" `Quick test_export_keywords;
        Alcotest.test_case "export renders = library calls" `Quick
          test_export_renders;
        Alcotest.test_case "prepare switches only the sinks read" `Quick
          test_prepare_sinks;
        Alcotest.test_case "sweep rejects unmerged kinds" `Quick
          test_sweep_rejects_unmerged;
        Alcotest.test_case "sweep domain-invariant" `Slow
          test_sweep_domain_invariant;
      ] );
  ]
