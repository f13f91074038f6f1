(* Self-tests for manetlint: each rule must fire on a synthetic bad
   input, stay quiet on the matching good input, and honour its
   suppression annotation. *)

module Lint = Manetlint.Lint

let count rule files =
  List.length (List.filter (fun f -> f.Lint.rule = rule) (Lint.lint_files files))

let fires name rule files = Alcotest.(check bool) name true (count rule files > 0)
let clean name rule files = Alcotest.(check int) name 0 (count rule files)

(* --- determinism ------------------------------------------------------- *)

let test_determinism () =
  fires "gettimeofday in lib" "determinism"
    [ ("lib/sim/clock.ml", {|let now () = Unix.gettimeofday ()|}) ];
  clean "same code outside lib" "determinism"
    [ ("bin/clock.ml", {|let now () = Unix.gettimeofday ()|}) ];
  fires "Random.self_init" "determinism"
    [ ("lib/a.ml", {|let () = Random.self_init ()|}) ];
  fires "Sys.time" "determinism" [ ("lib/a.ml", {|let t = Sys.time ()|}) ];
  fires "Hashtbl.hash" "determinism"
    [ ("lib/a.ml", {|let h x = Hashtbl.hash x|}) ];
  clean "comments are ignored" "determinism"
    [ ("lib/a.ml", "(* Unix.gettimeofday *)\nlet x = 1\n") ];
  clean "string literals are ignored" "determinism"
    [ ("lib/a.ml", {|let s = "Unix.gettimeofday"|}) ];
  (* Stdlib Random draws are banned everywhere under lib/, and the rule
     covers the fault-injection library like any other — a seeded fault
     plan that drew from Random would silently stop being replayable. *)
  fires "Random.int in lib" "determinism"
    [ ("lib/a.ml", {|let pick n = Random.int n|}) ];
  fires "Random.float in lib/faults" "determinism"
    [ ("lib/faults/jitter.ml", {|let j () = Random.float 1.0|}) ];
  fires "Random.bool in lib/faults" "determinism"
    [ ("lib/faults/coin.ml", {|let flip () = Random.bool ()|}) ];
  fires "Random.init in lib/faults" "determinism"
    [ ("lib/faults/seed.ml", {|let () = Random.init 42|}) ];
  clean "Prng draws are fine in lib/faults" "determinism"
    [ ("lib/faults/ok.ml", {|let j g = Manet_crypto.Prng.float g 1.0|}) ];
  clean "Random in test code" "determinism"
    [ ("test/a.ml", {|let pick n = Random.int n|}) ]

let test_determinism_suppression () =
  clean "allow on the line above" "determinism"
    [ ("lib/a.ml", "(* manetlint: allow determinism *)\nlet t = Sys.time ()\n") ];
  (* A multi-line allow comment anchors to its *last* line: the flagged
     construct directly below the closing line is suppressed... *)
  clean "multi-line allow anchors to its last line" "determinism"
    [
      ( "lib/a.ml",
        "(* manetlint: allow determinism\n   because the rationale\n   spans \
         lines *)\nlet t = Sys.time ()\n" );
    ];
  (* ...but a construct past that anchor line is not. *)
  fires "line beyond the anchor is not suppressed" "determinism"
    [
      ( "lib/a.ml",
        "(* manetlint: allow determinism\n   spanning lines *)\nlet ok = 1\n\
         let t = Sys.time ()\n" );
    ];
  fires "blank line breaks the anchor" "determinism"
    [
      ( "lib/a.ml",
        "(* manetlint: allow determinism\n   spanning lines *)\n\nlet t = \
         Sys.time ()\n" );
    ];
  clean "allow-file" "determinism"
    [
      ( "lib/a.ml",
        "(* manetlint: allow-file determinism *)\n\nlet t = Sys.time ()\n" );
    ];
  (* An allow for one rule must not silence another rule on the same line. *)
  fires "unrelated rule unaffected" "failwith"
    [
      ( "lib/a.ml",
        "(* manetlint: allow determinism *)\nlet f () = failwith (Sys.time ())\n"
      );
    ]

(* --- hygiene: obj-magic, catch-all, failwith --------------------------- *)

let test_obj_magic () =
  fires "Obj.magic" "obj-magic" [ ("bin/a.ml", {|let coerce x = Obj.magic x|}) ];
  clean "suppressed" "obj-magic"
    [
      ("bin/a.ml", "(* manetlint: allow obj-magic *)\nlet coerce x = Obj.magic x\n");
    ]

let test_catch_all () =
  fires "try ... with _ ->" "catch-all"
    [ ("bin/a.ml", {|let f g = try g () with _ -> 0|}) ];
  fires "with | _ ->" "catch-all"
    [ ("bin/a.ml", {|let f x = match x with | _ -> 0|}) ];
  clean "record update is not a catch-all" "catch-all"
    [ ("bin/a.ml", {|let f d route = { d with route }|}) ];
  clean "named exception is fine" "catch-all"
    [ ("bin/a.ml", {|let f g = try g () with Not_found -> 0|}) ];
  clean "suppressed" "catch-all"
    [
      ( "bin/a.ml",
        "(* manetlint: allow catch-all *)\nlet f g = try g () with _ -> 0\n" );
    ]

let test_failwith () =
  fires "failwith in lib" "failwith"
    [ ("lib/a.ml", {|let f () = failwith "no"|}) ];
  clean "failwith outside lib" "failwith"
    [ ("bin/a.ml", {|let f () = failwith "no"|}) ];
  clean "suppressed" "failwith"
    [
      ( "lib/a.ml",
        "(* manetlint: allow failwith *)\nlet f () = failwith \"no\"\n" );
    ]

(* --- obs-no-printf ------------------------------------------------------ *)

let test_obs_no_printf () =
  fires "Printf.printf in lib" "obs-no-printf"
    [ ("lib/a.ml", {|let f x = Printf.printf "%d\n" x|}) ];
  fires "print_endline in lib" "obs-no-printf"
    [ ("lib/a.ml", {|let f s = print_endline s|}) ];
  fires "Format.printf in lib" "obs-no-printf"
    [ ("lib/a.ml", {|let f s = Format.printf "%s" s|}) ];
  fires "print_string in lib" "obs-no-printf"
    [ ("lib/a.ml", {|let f s = print_string s|}) ];
  clean "same code in bin" "obs-no-printf"
    [ ("bin/a.ml", {|let f s = print_endline s|}) ];
  clean "same code in bench" "obs-no-printf"
    [ ("bench/a.ml", {|let f s = print_endline s|}) ];
  clean "sprintf builds a value" "obs-no-printf"
    [ ("lib/a.ml", {|let f x = Printf.sprintf "%d" x|}) ];
  clean "formatter combinators are fine" "obs-no-printf"
    [ ("lib/a.ml", {|let pp fmt a = Format.pp_print_string fmt a|}) ];
  clean "comments are ignored" "obs-no-printf"
    [ ("lib/a.ml", "(* Printf.printf \"x\" *)\nlet x = 1\n") ];
  clean "string literals are ignored" "obs-no-printf"
    [ ("lib/a.ml", {|let s = "print_endline"|}) ];
  clean "suppressed" "obs-no-printf"
    [
      ( "lib/a.ml",
        "(* manetlint: allow obs-no-printf *)\nlet f s = print_endline s\n" );
    ];
  (* An allow for obs-no-printf must not silence other rules. *)
  fires "unrelated rule unaffected" "failwith"
    [
      ( "lib/a.ml",
        "(* manetlint: allow obs-no-printf *)\nlet f s = print_endline s; \
         failwith s\n" );
    ]

(* --- placeholder-sig --------------------------------------------------- *)

let placeholder_src = {|let entry = { Messages.ip = me; sig_ = ""; pk = "" }|}

let test_placeholder_sig () =
  fires "empty sig_ in lib/secure" "placeholder-sig"
    [ ("lib/secure/x.ml", placeholder_src) ];
  fires "empty sig_ in lib/dad" "placeholder-sig"
    [ ("lib/dad/x.ml", placeholder_src) ];
  clean "out of scope in lib/dsr (unauthenticated baseline)" "placeholder-sig"
    [ ("lib/dsr/x.ml", placeholder_src) ];
  clean "non-empty signature is fine" "placeholder-sig"
    [ ("lib/secure/x.ml", {|let entry = { ip = me; sig_ = sign t payload }|}) ];
  clean "suppressed" "placeholder-sig"
    [
      ( "lib/secure/x.ml",
        "(* manetlint: allow placeholder-sig *)\n" ^ placeholder_src ^ "\n" );
    ]

(* --- poly-compare ------------------------------------------------------ *)

let test_poly_compare () =
  fires "bare compare" "poly-compare"
    [ ("lib/a.ml", {|let sort l = List.sort compare l|}) ];
  fires "Stdlib.compare" "poly-compare"
    [ ("lib/a.ml", {|let c = Stdlib.compare|}) ];
  clean "Int.compare is fine" "poly-compare"
    [ ("lib/a.ml", {|let sort l = List.sort Int.compare l|}) ];
  clean "module-local compare used after its definition" "poly-compare"
    [
      ( "lib/a.ml",
        "let compare a b = Int.compare a b\n\nlet sort l = List.sort compare l\n"
      );
    ];
  fires "polymorphic = on address fields" "poly-compare"
    [ ("lib/a.ml", {|let same a b = a.sip = b.sip|}) ];
  fires "polymorphic <> on address fields" "poly-compare"
    [ ("lib/a.ml", {|let differ a b = a.old_ip <> b.new_ip|}) ];
  clean "record-field binding is not an equality" "poly-compare"
    [ ("lib/a.ml", {|let mk other = { sip = other.dip; n = 1 }|}) ];
  clean "out of scope outside lib" "poly-compare"
    [ ("bin/a.ml", {|let same a b = a.sip = b.sip|}) ];
  clean "suppressed" "poly-compare"
    [
      ( "lib/a.ml",
        "(* manetlint: allow poly-compare *)\nlet same a b = a.sip = b.sip\n" );
    ]

(* --- audit-counter ------------------------------------------------------ *)

let test_audit_counter () =
  fires "Ctx.stat on a rejection counter in lib/secure" "audit-counter"
    [ ("lib/secure/x.ml", {|let f t = Ctx.stat t.ctx "secure.rrep_rejected"|}) ];
  fires "Stats.incr on a replay counter in lib/dsr" "audit-counter"
    [ ("lib/dsr/x.ml", {|let f s = Stats.incr s "rrep.replayed"|}) ];
  fires "suspicion counter in lib/dad" "audit-counter"
    [ ("lib/dad/x.ml", {|let f t = Ctx.stat t.ctx "dad.collision"|}) ];
  fires "literal on the following line still found" "audit-counter"
    [
      ( "lib/dns/x.ml",
        "let f t =\n  Ctx.stat t.ctx\n    \"dns.warning_rejected\"\n" );
    ];
  clean "neutral counter name is fine" "audit-counter"
    [ ("lib/secure/x.ml", {|let f t = Ctx.stat t.ctx "data.delivered"|}) ];
  clean "out of scope outside the protocol dirs" "audit-counter"
    [ ("lib/sim/x.ml", {|let f s = Stats.incr s "queue.rejected"|}) ];
  clean "the audit path itself is the fix, not a finding" "audit-counter"
    [
      ( "lib/secure/x.ml",
        {|let f t src = Ctx.audit t.ctx ~kind:Audit.Replay_rejected ~subject_node:src ~stats:[ "secure.rrep_rejected" ] ~cause:"replayed rrep" ()|}
      );
    ];
  clean "suppressed" "audit-counter"
    [
      ( "lib/secure/x.ml",
        "(* manetlint: allow audit-counter *)\nlet f t = Ctx.stat t.ctx \
         \"secure.rrep_rejected\"\n" );
    ]

(* --- mli coverage ------------------------------------------------------ *)

let test_mli_coverage () =
  fires "lib module without mli" "mli-coverage"
    [ ("lib/foo/a.ml", "let x = 1\n") ];
  clean "lib module with mli" "mli-coverage"
    [ ("lib/foo/a.ml", "let x = 1\n"); ("lib/foo/a.mli", "val x : int\n") ];
  clean "bin module needs no mli" "mli-coverage"
    [ ("bin/a.ml", "let x = 1\n") ];
  clean "suppressed via allow-file" "mli-coverage"
    [ ("lib/foo/a.ml", "(* manetlint: allow-file mli-coverage *)\nlet x = 1\n") ]

(* --- security ----------------------------------------------------------- *)

let bad_handler =
  {|let handle_rrep t msg =
  match msg with
  | Messages.Rrep { sip; sig_; _ } -> accept t sip
  | _ -> ()
|}

let test_security_fires () =
  fires "unverified destructuring in a handler" "security"
    [ ("lib/fake/handler.ml", bad_handler) ];
  fires "consume_* counts as a handler" "security"
    [
      ( "lib/fake/handler.ml",
        {|let consume_rerr t msg =
  match msg with
  | Messages.Rerr { reporter; _ } -> drop_link t reporter
  | _ -> ()
|}
      );
    ]

let test_security_verified_ok () =
  clean "verify call in the arm body" "security"
    [
      ( "lib/fake/handler.ml",
        {|let consume_rrep t msg =
  match msg with
  | Messages.Rrep { sip; sig_; _ } ->
      if verify_rrep t sip sig_ then accept t sip
  | _ -> ()
|}
      );
    ];
  clean "MAC recomputation in the guard" "security"
    [
      ( "lib/fake/handler.ml",
        {|let handle_rreq t msg =
  match msg with
  | Messages.Rreq { sip; srr; _ } when rreq_mac t srr -> relay t sip
  | _ -> ()
|}
      );
    ];
  clean "verification via a same-module helper (transitive)" "security"
    [
      ( "lib/fake/handler.ml",
        {|let check_reply t m = Suite.verify t m

let consume_rrep t msg =
  match msg with
  | Messages.Rrep { sip; _ } -> check_reply t sip
  | _ -> ()
|}
      );
    ]

let test_security_scoping () =
  clean "constructing a signed message is not destructuring" "security"
    [
      ( "lib/fake/handler.ml",
        {|let handle_fwd t msg =
  match msg with
  | Data x -> send t (Messages.Rrep { dip = x; rr = [] })
  | _ -> ()
|}
      );
    ];
  clean "non-handler functions may destructure freely" "security"
    [
      ( "lib/fake/pp.ml",
        {|let describe msg =
  match msg with
  | Messages.Rrep { sip; _ } -> pp sip
  | _ -> ()
|}
      );
    ];
  clean "wildcard dispatch is not destructuring" "security"
    [
      ( "lib/fake/handler.ml",
        {|let handle t msg =
  match msg with
  | Messages.Rrep _ -> dispatch t msg
  | _ -> ()
|}
      );
    ]

let test_security_suppression () =
  clean "annotated arm" "security"
    [
      ( "lib/fake/handler.ml",
        {|let handle_rrep t msg =
  match msg with
  (* manetlint: allow security *)
  | Messages.Rrep { sip; _ } -> accept t sip
  | _ -> ()
|}
      );
    ]

(* --- proto-schema ------------------------------------------------------- *)

let messages_mli =
  {|type t =
  | Ping of { x : int }
  | Pong of { y : int }

val tag : t -> int
|}

let binary_good =
  {|let encode m =
  let buf = Buffer.create 16 in
  match m with
  | M.Ping { x } ->
      put_u8 buf 1;
      put_int buf x
  | M.Pong { y } ->
      put_u8 buf 2;
      put_int buf y

let decode_body tag buf =
  match tag with
  | 1 -> M.Ping { x = get_int buf }
  | 2 -> M.Pong { y = get_int buf }
  | _ -> fail buf
|}

let tests_good = {|let roundtrip = [ check Ping; check Pong ]|}

let proto_files ?(messages = messages_mli) ?(binary = binary_good)
    ?(tests = tests_good) () =
  [
    ("lib/proto/messages.mli", messages);
    ("lib/proto/binary.ml", binary);
    ("test/test_binary.ml", tests);
  ]

let test_proto_schema_clean () =
  clean "consistent schema" "proto-schema" (proto_files ())

let test_proto_schema_missing_encode () =
  let binary =
    {|let encode m =
  let buf = Buffer.create 16 in
  match m with
  | M.Ping { x } ->
      put_u8 buf 1;
      put_int buf x

let decode_body tag buf =
  match tag with
  | 1 -> M.Ping { x = get_int buf }
  | _ -> fail buf
|}
  in
  fires "missing encode branch" "proto-schema" (proto_files ~binary ())

let test_proto_schema_duplicate_tag () =
  let binary =
    {|let encode m =
  let buf = Buffer.create 16 in
  match m with
  | M.Ping { x } ->
      put_u8 buf 1;
      put_int buf x
  | M.Pong { y } ->
      put_u8 buf 1;
      put_int buf y

let decode_body tag buf =
  match tag with
  | 1 -> M.Ping { x = get_int buf }
  | _ -> fail buf
|}
  in
  fires "duplicate wire tag" "proto-schema" (proto_files ~binary ())

let test_proto_schema_decode_mismatch () =
  let binary =
    {|let encode m =
  let buf = Buffer.create 16 in
  match m with
  | M.Ping { x } ->
      put_u8 buf 1;
      put_int buf x
  | M.Pong { y } ->
      put_u8 buf 2;
      put_int buf y

let decode_body tag buf =
  match tag with
  | 1 -> M.Ping { x = get_int buf }
  | 2 -> M.Ping { x = get_int buf }
  | _ -> fail buf
|}
  in
  fires "decode yields the wrong constructor" "proto-schema"
    (proto_files ~binary ())

let test_proto_schema_missing_decode () =
  let binary =
    {|let encode m =
  let buf = Buffer.create 16 in
  match m with
  | M.Ping { x } ->
      put_u8 buf 1;
      put_int buf x
  | M.Pong { y } ->
      put_u8 buf 2;
      put_int buf y

let decode_body tag buf =
  match tag with
  | 1 -> M.Ping { x = get_int buf }
  | _ -> fail buf
|}
  in
  fires "missing decode arm" "proto-schema" (proto_files ~binary ())

let test_proto_schema_missing_test () =
  fires "constructor without roundtrip test" "proto-schema"
    (proto_files ~tests:{|let roundtrip = [ check Ping ]|} ())

let test_proto_schema_suppression () =
  let messages =
    {|type t =
  | Ping of { x : int }
  (* manetlint: allow proto-schema *)
  | Pong of { y : int }

val tag : t -> int
|}
  in
  clean "annotated constructor" "proto-schema"
    (proto_files ~messages ~tests:{|let roundtrip = [ check Ping ]|} ())

(* --- scenario-keyword --------------------------------------------------- *)

let scenario_schema =
  {|let kw_blackhole = "blackhole"
let kw_nodes = "nodes"
|}

let test_scenario_keyword_fires () =
  fires "stray vocabulary literal outside schema.ml" "scenario-keyword"
    [
      ("lib/scenario/schema.ml", scenario_schema);
      ("lib/scenario/scn.ml", {|let k = "blackhole"|});
    ]

let test_scenario_keyword_clean () =
  clean "schema.ml itself and non-vocabulary strings" "scenario-keyword"
    [
      ("lib/scenario/schema.ml", scenario_schema);
      ("lib/scenario/scn.ml", {|let msg = "not a keyword here"|});
    ]

let test_scenario_keyword_outside_tree () =
  clean "vocabulary literal outside lib/scenario" "scenario-keyword"
    [
      ("lib/scenario/schema.ml", scenario_schema);
      ("lib/core/other.ml", {|let k = "blackhole"|});
    ]

let test_scenario_keyword_missing_schema () =
  fires "lib/scenario without a schema.ml keyword table" "scenario-keyword"
    [ ("lib/scenario/scn.ml", {|let k = "blackhole"|}) ]

let test_scenario_keyword_suppression () =
  clean "annotated stray literal" "scenario-keyword"
    [
      ("lib/scenario/schema.ml", scenario_schema);
      ( "lib/scenario/scn.ml",
        {|(* manetlint: allow scenario-keyword *)
let k = "blackhole"|} );
    ]

(* --- schedule-label ---------------------------------------------------- *)

let test_schedule_label_fires () =
  fires "unlabeled schedule" "schedule-label"
    [
      ( "lib/dsr/dsr.ml",
        {|let arm t = Engine.schedule t.engine ~delay:1.0 (fun () -> fire t)|}
      );
    ];
  fires "unlabeled schedule_at" "schedule-label"
    [
      ( "lib/faults/faults.ml",
        {|let arm t = Engine.schedule_at t.engine ~time:3.0 (fun () -> fire t)|}
      );
    ];
  fires "unlabeled eta-passed callback" "schedule-label"
    [ ("lib/a.ml", {|let arm t cb = Engine.schedule t.engine ~delay:0.1 cb|}) ]

let test_schedule_label_clean () =
  clean "labeled schedule" "schedule-label"
    [
      ( "lib/dsr/dsr.ml",
        {|let arm t =
  Engine.schedule t.engine ~label:"dsr" ~delay:1.0 (fun () -> fire t)|}
      );
    ];
  clean "labeled schedule_at" "schedule-label"
    [
      ( "lib/faults/faults.ml",
        {|let arm t =
  Engine.schedule_at t.engine ~label:"fault" ~time:3.0 (fun () -> fire t)|}
      );
    ];
  (* A ~label inside the scheduled closure must not satisfy the call
     site: the window stops at the first "(fun". *)
  fires "label only inside the closure" "schedule-label"
    [
      ( "lib/a.ml",
        {|let arm t =
  Engine.schedule t.engine ~delay:1.0 (fun () ->
      Engine.schedule t.engine ~label:"x" ~delay:1.0 ignore)|}
      );
    ];
  clean "same code outside lib" "schedule-label"
    [
      ( "bin/main.ml",
        {|let arm t = Engine.schedule t.engine ~delay:1.0 (fun () -> fire t)|}
      );
    ]

let test_schedule_label_suppression () =
  clean "annotated unlabeled schedule" "schedule-label"
    [
      ( "lib/a.ml",
        {|(* manetlint: allow schedule-label — generic timer helper *)
let arm t cb = Engine.schedule t.engine ~delay:0.1 cb|}
      );
    ]

(* --- flood-origin-label ------------------------------------------------- *)

let test_flood_origin_label_fires () =
  fires "broadcast without flood recording" "flood-origin-label"
    [
      ( "lib/dsr/dsr.ml",
        {|let send t msg = Ctx.broadcast t.ctx msg|} );
    ];
  fires "broadcast in lib/secure" "flood-origin-label"
    [
      ( "lib/secure/srp.ml",
        {|let relay t msg = Ctx.broadcast t.ctx msg|} );
    ]

let test_flood_origin_label_clean () =
  clean "recorded origination" "flood-origin-label"
    [
      ( "lib/dad/dad.ml",
        {|let send t key msg =
  let flood = Flood.handle (floods t) ~key ~origin:0 in
  Flood.sent (floods t) flood;
  Ctx.broadcast t.ctx msg|}
      );
    ];
  clean "recorded relay inside the closure" "flood-origin-label"
    [
      ( "lib/secure/secure_routing.ml",
        {|let relay t flood msg =
  Engine.schedule t.engine ~label:"secure" ~delay:0.01 (fun () ->
      Flood.sent (floods t) flood;
      Ctx.broadcast t.ctx msg)|}
      );
    ];
  clean "same code outside the flooding protocols" "flood-origin-label"
    [ ("lib/attacks/adversary.ml", {|let x t msg = Ctx.broadcast t.ctx msg|}) ]

let test_flood_origin_label_suppression () =
  clean "annotated non-flood broadcast" "flood-origin-label"
    [
      ( "lib/dad/dad.ml",
        {|let warn t msg =
  (* manetlint: allow flood-origin-label — warning AREP, not a flood *)
  Ctx.broadcast t.ctx msg|}
      );
    ]

(* --- the repo itself is clean ------------------------------------------ *)

let test_rule_names_documented () =
  (* Every rule id used above must be an official rule, so suppression
     annotations can name it. *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is a registered rule" r)
        true (List.mem r Lint.rules))
    [
      "proto-schema"; "security"; "placeholder-sig"; "determinism"; "obj-magic";
      "catch-all"; "failwith"; "mli-coverage"; "poly-compare"; "obs-no-printf";
      "audit-counter"; "scenario-keyword"; "schedule-label";
      "flood-origin-label";
    ]

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "lint",
      [
        tc "determinism" test_determinism;
        tc "determinism suppression" test_determinism_suppression;
        tc "obj-magic" test_obj_magic;
        tc "catch-all" test_catch_all;
        tc "failwith" test_failwith;
        tc "obs-no-printf" test_obs_no_printf;
        tc "placeholder-sig" test_placeholder_sig;
        tc "poly-compare" test_poly_compare;
        tc "audit-counter" test_audit_counter;
        tc "mli-coverage" test_mli_coverage;
        tc "security fires" test_security_fires;
        tc "security verified ok" test_security_verified_ok;
        tc "security scoping" test_security_scoping;
        tc "security suppression" test_security_suppression;
        tc "proto-schema clean" test_proto_schema_clean;
        tc "proto-schema missing encode" test_proto_schema_missing_encode;
        tc "proto-schema duplicate tag" test_proto_schema_duplicate_tag;
        tc "proto-schema decode mismatch" test_proto_schema_decode_mismatch;
        tc "proto-schema missing decode" test_proto_schema_missing_decode;
        tc "proto-schema missing test" test_proto_schema_missing_test;
        tc "proto-schema suppression" test_proto_schema_suppression;
        tc "scenario-keyword fires" test_scenario_keyword_fires;
        tc "scenario-keyword clean" test_scenario_keyword_clean;
        tc "scenario-keyword scoping" test_scenario_keyword_outside_tree;
        tc "scenario-keyword missing schema" test_scenario_keyword_missing_schema;
        tc "scenario-keyword suppression" test_scenario_keyword_suppression;
        tc "schedule-label fires" test_schedule_label_fires;
        tc "schedule-label clean" test_schedule_label_clean;
        tc "schedule-label suppression" test_schedule_label_suppression;
        tc "flood-origin-label fires" test_flood_origin_label_fires;
        tc "flood-origin-label clean" test_flood_origin_label_clean;
        tc "flood-origin-label suppression" test_flood_origin_label_suppression;
        tc "rule registry" test_rule_names_documented;
      ] );
  ]
