(* Self-tests for manetcheck: every rule must fire on a synthetic bad
   input, stay quiet on the matching good input, and honour the
   directive grammar.  The suites keep the grouping of the rule
   families: the conventions ported from the old lexical pass ("lint"),
   the security-argument rules ("manetsem"), domain safety ("manetdom")
   and the hot path ("manethot"); "manetcheck" covers the grammar and
   the one-rule-per-site contract. *)

module Check = Manetcheck.Check
module C = Analyzer_common.Common

(* The hot-path roster the fixtures run under: [M.hot] is the seed. *)
let roster = ("tools/manetcheck/hotpaths.sexp", "(M hot)\n")

let analyze ?uses ?tests ?(roster = roster) files =
  Check.analyze ?uses ?tests ~roster files

let count ?uses ?tests ?roster rule files =
  List.length
    (List.filter (fun f -> f.C.rule = rule) (analyze ?uses ?tests ?roster files))

let fires ?uses ?tests ?roster name rule files =
  Alcotest.(check bool) name true (count ?uses ?tests ?roster rule files > 0)

let clean ?uses ?tests ?roster name rule files =
  Alcotest.(check int) name 0 (count ?uses ?tests ?roster rule files)

module Lint = struct
  (* --- determinism ------------------------------------------------------- *)

  let test_determinism () =
    fires "gettimeofday in lib" "determinism"
      [ ("lib/sim/clock.ml", {|let now () = Unix.gettimeofday ()|}) ];
    clean "same code outside lib" "determinism"
      [ ("bin/clock.ml", {|let now () = Unix.gettimeofday ()|}) ];
    (* The stdlib Random is global-rng's alone: one site, one rule. *)
    fires "Random.self_init" "global-rng"
      [ ("lib/a.ml", {|let () = Random.self_init ()|}) ];
    fires "Sys.time" "determinism" [ ("lib/a.ml", {|let t = Sys.time ()|}) ];
    fires "Hashtbl.hash" "determinism"
      [ ("lib/a.ml", {|let h x = Hashtbl.hash x|}) ];
    clean "comments are ignored" "determinism"
      [ ("lib/a.ml", "(* Unix.gettimeofday *)\nlet x = 1\n") ];
    clean "string literals are ignored" "determinism"
      [ ("lib/a.ml", {|let s = "Unix.gettimeofday"|}) ];
    (* Stdlib Random draws are banned everywhere under lib/, the
       fault-injection library included — a seeded fault plan that drew
       from Random would silently stop being replayable. *)
    fires "Random.int in lib" "global-rng"
      [ ("lib/a.ml", {|let pick n = Random.int n|}) ];
    fires "Random.float in lib/faults" "global-rng"
      [ ("lib/faults/jitter.ml", {|let j () = Random.float 1.0|}) ];
    fires "Random.bool in lib/faults" "global-rng"
      [ ("lib/faults/coin.ml", {|let flip () = Random.bool ()|}) ];
    fires "Random.init in lib/faults" "global-rng"
      [ ("lib/faults/seed.ml", {|let () = Random.init 42|}) ];
    clean "Prng draws are fine in lib/faults" "global-rng"
      [ ("lib/faults/ok.ml", {|let j g = Manet_crypto.Prng.float g 1.0|}) ];
    clean "Random in test code" "global-rng"
      [ ("test/a.ml", {|let pick n = Random.int n|}) ]

  let test_determinism_suppression () =
    clean "allow on the line above" "determinism"
      [ ("lib/a.ml", "(* manetcheck: allow determinism — reviewed site. *)\nlet t = Sys.time ()\n") ];
    (* A multi-line allow comment anchors to its *last* line: the flagged
       construct directly below the closing line is suppressed... *)
    clean "multi-line allow anchors to its last line" "determinism"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow determinism\n   because the rationale\n   spans \
           lines *)\nlet t = Sys.time ()\n" );
      ];
    (* ...but a construct past that anchor line is not. *)
    fires "line beyond the anchor is not suppressed" "determinism"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow determinism\n   spanning lines *)\nlet ok = 1\n\
           let t = Sys.time ()\n" );
      ];
    fires "blank line breaks the anchor" "determinism"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow determinism\n   spanning lines *)\n\nlet t = \
           Sys.time ()\n" );
      ];
    clean "allow-file" "determinism"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow-file determinism — reviewed site. *)\n\nlet t = Sys.time ()\n" );
      ];
    (* An allow for one rule must not silence another rule on the same line. *)
    fires "unrelated rule unaffected" "failwith"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow determinism — reviewed site. *)\nlet f () = failwith (Sys.time ())\n"
        );
      ]

  (* --- hygiene: obj-magic, catch-all, failwith --------------------------- *)

  let test_obj_magic () =
    fires "Obj.magic" "obj-magic" [ ("bin/a.ml", {|let coerce x = Obj.magic x|}) ];
    clean "suppressed" "obj-magic"
      [
        ("bin/a.ml", "(* manetcheck: allow obj-magic — reviewed site. *)\nlet coerce x = Obj.magic x\n");
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
          "(* manetcheck: allow catch-all — reviewed site. *)\nlet f g = try g () with _ -> 0\n" );
      ]

  let test_failwith () =
    fires "failwith in lib" "failwith"
      [ ("lib/a.ml", {|let f () = failwith "no"|}) ];
    clean "failwith outside lib" "failwith"
      [ ("bin/a.ml", {|let f () = failwith "no"|}) ];
    clean "suppressed" "failwith"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow failwith — reviewed site. *)\nlet f () = failwith \"no\"\n" );
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
          "(* manetcheck: allow obs-no-printf — reviewed site. *)\nlet f s = print_endline s\n" );
      ];
    (* An allow for obs-no-printf must not silence other rules. *)
    fires "unrelated rule unaffected" "failwith"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow obs-no-printf — reviewed site. *)\nlet f s = print_endline s; \
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
          "(* manetcheck: allow placeholder-sig — reviewed site. *)\n" ^ placeholder_src ^ "\n" );
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
          "(* manetcheck: allow poly-compare — reviewed site. *)\nlet same a b = a.sip = b.sip\n" );
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
    (* Counters are bumped by key; the rule reads the name through the
       key's binding. *)
    fires "key bound in a submodule" "audit-counter"
      [
        ( "lib/secure/x.ml",
          "module Key = struct
          \  let rrep_rejected = Stats.key \"secure.rrep_rejected\"
           end

           let f t = Ctx.stat t.ctx Key.rrep_rejected
" );
      ];
    fires "key bound at top level, bumped by Stats.add" "audit-counter"
      [
        ( "lib/dsr/x.ml",
          "let replayed = Stats.key \"rrep.replayed\"
let f s = Stats.add s replayed 2
" );
      ];
    fires "inline key" "audit-counter"
      [ ("lib/dad/x.ml", {|let f t = Ctx.stat_by t.ctx (Stats.key "dad.collision") 1|}) ];
    clean "neutral key is fine" "audit-counter"
      [
        ( "lib/secure/x.ml",
          "let delivered = Stats.key \"data.delivered\"
let f t = Ctx.stat t.ctx delivered
" );
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
          "(* manetcheck: allow audit-counter — reviewed site. *)\nlet f t = Ctx.stat t.ctx \
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
      [ ("lib/foo/a.ml", "(* manetcheck: allow-file mli-coverage — reviewed site. *)\nlet x = 1\n") ]

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
    (* manetcheck: allow security — reviewed site. *)
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
    (* manetcheck: allow proto-schema — reviewed site. *)
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
          {|(* manetcheck: allow scenario-keyword — reviewed site. *)
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
          {|(* manetcheck: allow schedule-label — generic timer helper *)
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
    (* manetcheck: allow flood-origin-label — warning AREP, not a flood *)
    Ctx.broadcast t.ctx msg|}
        );
      ]

  (* --- the registry is the README catalogue ---------------------------- *)

  let test_rule_names_documented () =
    let readme = In_channel.with_open_bin "../README.md" In_channel.input_all in
    List.iter
      (fun r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s is in the README rule catalogue" r)
          true
          (C.contains readme ("`" ^ r ^ "`")))
      Check.rules

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
          tc "scenario-keyword missing schema"
            test_scenario_keyword_missing_schema;
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
end

module Sem = struct
  (* --- taint: verify-before-use ------------------------------------------ *)

  let test_taint_fires () =
    fires "unverified signed payload reaches a named sink" "taint"
      [
        ( "lib/x/h.ml",
          {|let consume t msg =
    match msg with
    | Messages.Arep p ->
        Route_cache.insert t.cache ~dst:p ~route:[] ~meta:() ~now:0.
    | _ -> ()|}
        );
      ];
    fires "Hashtbl.replace on a protocol state field" "taint"
      [
        ( "lib/x/h.ml",
          {|let consume t msg =
    match msg with Messages.Name_reply n -> Hashtbl.replace t.table n n | _ -> ()|}
        );
      ];
    fires "mutation of a protocol state field" "taint"
      [
        ( "lib/x/h.ml",
          {|let consume t msg =
    match msg with Messages.Drep d -> t.trusted <- d | _ -> ()|}
        );
      ];
    (* The taint must survive one call-graph hop: a helper that reaches a
       sink makes its (unverified) callers findings too. *)
    fires "sink reached through a helper function" "taint"
      [
        ( "lib/x/h.ml",
          {|let remember t p = Route_cache.insert t.cache ~dst:p ~route:[] ~meta:() ~now:0.
  let consume t msg =
    match msg with Messages.Rrep p -> remember t p | _ -> ()|}
        );
      ]

  let test_taint_not_a_source () =
    (* Areq is unsigned — destructuring it is not a taint source. *)
    clean "unsigned constructor payload" "taint"
      [
        ( "lib/x/h.ml",
          {|let consume t msg =
    match msg with
    | Messages.Areq a ->
        Route_cache.insert t.cache ~dst:a ~route:[] ~meta:() ~now:0.
    | _ -> ()|}
        );
      ];
    (* A bare [Ctor _] dispatch pattern binds nothing of the payload. *)
    clean "pattern that binds no payload" "taint"
      [
        ( "lib/x/h.ml",
          {|let consume t x =
    match t.last with
    | Messages.Arep _ ->
        Route_cache.insert t.cache ~dst:x ~route:[] ~meta:() ~now:0.
    | _ -> ()|}
        );
      ]

  let test_taint_verified_ok () =
    clean "verify in the case guard blesses the body" "taint"
      [
        ( "lib/x/h.ml",
          {|let consume t msg =
    match msg with
    | Messages.Arep p when Suite.verify t.suite p ->
        Route_cache.insert t.cache ~dst:p ~route:[] ~meta:() ~now:0.
    | _ -> ()|}
        );
      ];
    clean "verify in an if condition blesses the branch" "taint"
      [
        ( "lib/x/h.ml",
          {|let consume t msg =
    match msg with
    | Messages.Drep p ->
        if Cga.verify p then
          Route_cache.insert t.cache ~dst:p ~route:[] ~meta:() ~now:0.
    | _ -> ()|}
        );
      ];
    (* The verifier fixpoint: a helper whose body calls verify counts. *)
    clean "verification through a helper function" "taint"
      [
        ( "lib/x/h.ml",
          {|let check_arep t p = Suite.verify t.suite p
  let consume t msg =
    match msg with
    | Messages.Arep p when check_arep t p ->
        Route_cache.insert t.cache ~dst:p ~route:[] ~meta:() ~now:0.
    | _ -> ()|}
        );
      ];
    (* SRP verifies by MAC recomputation: *_mac helpers are verifiers. *)
    clean "MAC recomputation counts as verification" "taint"
      [
        ( "lib/x/h.ml",
          {|let rrep_mac t p = Suite.mac t.key p
  let consume t msg =
    match msg with
    | Messages.Rrep p when String.equal (rrep_mac t p) p ->
        Route_cache.insert t.cache ~dst:p ~route:[] ~meta:() ~now:0.
    | _ -> ()|}
        );
      ]

  (* The ISSUE acceptance check, as a fixture pair: a handler modelled on
     Dad.consume_arep passes with its verify guard and fails the moment
     the guard is deleted. *)
  let test_taint_verify_deletion_regression () =
    let with_verify =
      {|let verify_arep t ~sig_ ~pk = Suite.verify t.suite ~sig_ ~pk
  let consume_arep t msg =
    match msg with
    | Messages.Arep (sig_, pk) when verify_arep t ~sig_ ~pk ->
        Route_cache.insert t.cache ~dst:pk ~route:[] ~meta:() ~now:0.
    | _ -> ()|}
    in
    let without_verify =
      {|let consume_arep t msg =
    match msg with
    | Messages.Arep (sig_, pk) ->
        ignore sig_;
        Route_cache.insert t.cache ~dst:pk ~route:[] ~meta:() ~now:0.
    | _ -> ()|}
    in
    clean "handler with verify guard" "taint" [ ("lib/dad/h.ml", with_verify) ];
    fires "same handler, verify deleted" "taint"
      [ ("lib/dad/h.ml", without_verify) ]

  (* --- dispatch coverage -------------------------------------------------- *)

  let msgs_mli =
    ( "lib/proto/messages.mli",
      "type t = Areq | Arep of string | Rreq of int | Data of string\n" )

  let test_dispatch () =
    fires "catch-all arm in a dispatch dir" "dispatch"
      [
        msgs_mli;
        ( "lib/dad/h.ml",
          {|let handle t msg = match msg with Areq -> ignore t | _ -> ()|} );
      ];
    fires "missing constructor, no catch-all" "dispatch"
      [
        msgs_mli;
        ( "lib/dsr/h.ml",
          {|let handle t msg =
    match msg with
    | Areq -> ignore t
    | Arep _ -> ()
    | Rreq _ -> ()|}
        );
      ];
    clean "full enumeration" "dispatch"
      [
        msgs_mli;
        ( "lib/secure/h.ml",
          {|let handle t msg =
    match msg with
    | Areq -> ignore t
    | Arep _ -> ()
    | Rreq _ -> ()
    | Data _ -> ()|}
        );
      ];
    clean "catch-all outside the dispatch dirs" "dispatch"
      [
        msgs_mli;
        ( "lib/sim/h.ml",
          {|let handle t msg = match msg with Areq -> ignore t | _ -> ()|} );
      ];
    clean "function not named handle" "dispatch"
      [
        msgs_mli;
        ( "lib/dad/h.ml",
          {|let process t msg = match msg with Areq -> ignore t | _ -> ()|} );
      ]

  (* --- codec pairing ------------------------------------------------------ *)

  let codec_mli = ("lib/proto/codec.mli", "val areq_payload : string -> string\n")

  let sign_use =
    {|let sign_it suite p = Suite.sign suite (Codec.areq_payload p)|}

  let verify_use =
    {|let verify_it suite p s = Suite.verify suite (Codec.areq_payload p) s|}

  let test_codec () =
    clean "builder signed and verified" "codec"
      [ codec_mli; ("lib/x/a.ml", sign_use ^ "\n" ^ verify_use) ];
    fires "builder never verified" "codec" [ codec_mli; ("lib/x/a.ml", sign_use) ];
    fires "builder never signed" "codec" [ codec_mli; ("lib/x/a.ml", verify_use) ];
    fires "orphan builder" "codec" [ codec_mli; ("lib/x/a.ml", "let z = 1\n") ]

  (* --- semantic determinism ----------------------------------------------- *)

  let test_determinism () =
    fires "wall-clock read" "determinism"
      [ ("lib/a.ml", {|let now () = Unix.gettimeofday ()|}) ];
    fires "Hashtbl.iter leaks bucket order" "determinism"
      [
        ( "lib/a.ml",
          {|let dump tbl = Hashtbl.iter (fun k v -> print_string k; print_int v) tbl|}
        );
      ];
    fires "unordered Hashtbl.fold" "determinism"
      [ ("lib/a.ml", {|let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []|}) ];
    clean "fold into a sort" "determinism"
      [
        ( "lib/a.ml",
          {|let keys tbl =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])|}
        );
      ];
    clean "commutative fold" "determinism"
      [ ("lib/a.ml", {|let total tbl = Hashtbl.fold (fun _ v acc -> v + acc) tbl 0|}) ];
    (* Top-level mutable state is toplevel-state's alone. *)
    fires "top-level mutable state" "toplevel-state"
      [ ("lib/a.ml", {|let cache = Hashtbl.create 16|}) ];
    clean "top-level mutable state is not determinism" "determinism"
      [ ("lib/a.ml", {|let cache = Hashtbl.create 16|}) ];
    clean "function-local mutable state" "determinism"
      [ ("lib/a.ml", {|let f () = let h = Hashtbl.create 16 in Hashtbl.length h|}) ]

  (* --- dead exports ------------------------------------------------------- *)

  let util = [ ("lib/util.mli", "val helper : int -> int\n"); ("lib/util.ml", "let helper x = x + 1\n") ]

  let test_dead_export () =
    fires "unreferenced export" "dead-export" util;
    clean "referenced from a use-site file" "dead-export" util
      ~uses:[ ("bin/main.ml", "let () = print_int (Util.helper 1)\n") ];
    clean "referenced from a sibling lib module" "dead-export"
      (util @ [ ("lib/other.ml", "let y = Util.helper 3\n") ]);
    (* A module using its own export keeps it dead. *)
    fires "intra-module use does not count" "dead-export"
      [
        ("lib/util.mli", "val helper : int -> int\n");
        ("lib/util.ml", "let helper x = x + 1\nlet double x = helper (helper x)\n");
      ];
    (* A stale local alias in an unrelated file must not capture a direct
       sibling reference (the bin-aliases-Json regression). *)
    clean "unrelated alias does not shadow a real module" "dead-export"
      (util @ [ ("lib/other.ml", "let y = Util.helper 3\n") ])
      ~uses:[ ("bin/main.ml", "module Util = Manetsec.Helpers\nlet () = ()\n") ]

  (* --- test-only exports ---------------------------------------------------- *)

  let test_use = [ ("test/test_util.ml", "let () = assert (Util.helper 1 = 2)\n") ]

  let test_test_only_export () =
    fires "called only from a test root" "test-only-export" util ~tests:test_use;
    clean "a test-only value is not dead" "dead-export" util ~tests:test_use;
    List.iter
      (fun path ->
        clean ("also called from " ^ path) "test-only-export" util ~tests:test_use
          ~uses:[ (path, "let () = print_int (Util.helper 1)\n") ])
      [ "bin/main.ml"; "bench/b.ml"; "layerbench/w.ml" ];
    clean "also called from a sibling lib module" "test-only-export"
      (util @ [ ("lib/other.ml", "let y = Util.helper 3\n") ])
      ~tests:test_use;
    (* A [let module] alias counts like a structure-level one. *)
    clean "called through a local module alias" "test-only-export" util
      ~tests:test_use
      ~uses:[ ("bench/b.ml", "let f () = let module U = Util in U.helper 1\n") ];
    (* A reference a test compares against lives in [Oracle]: exempt. *)
    let oracle =
      [
        ("lib/util.mli", "module Oracle : sig val helper : int -> int end\n");
        ("lib/util.ml", "module Oracle = struct let helper x = x + 1 end\n");
      ]
    and oracle_use =
      [ ("test/test_util.ml", "let () = assert (Util.Oracle.helper 1 = 2)\n") ]
    in
    clean "an Oracle value is exempt" "test-only-export" oracle ~tests:oracle_use;
    clean "an Oracle value is not dead either" "dead-export" oracle
      ~tests:oracle_use;
    (* An allow keeps a value whose rationale names its caller; without a
       rationale it is an annotation finding and suppresses nothing. *)
    let allowed why =
      [
        ( "lib/util.mli",
          "(* manetcheck: allow test-only-export" ^ why ^ " *)\n\
           val helper : int -> int\n" );
        ("lib/util.ml", "let helper x = x + 1\n");
      ]
    in
    clean "allow naming the caller" "test-only-export"
      (allowed " — test_util.ml checks it") ~tests:test_use;
    fires "allow without a rationale" "annotation" (allowed "") ~tests:test_use;
    fires "a bare allow suppresses nothing" "test-only-export" (allowed "")
      ~tests:test_use

  (* --- suppression -------------------------------------------------------- *)

  let test_suppression () =
    clean "allow on the line above" "determinism"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow determinism -- wall clock ok here *)\n\
           let now () = Unix.gettimeofday ()\n" );
      ];
    (* A multi-line comment anchors to its last line. *)
    clean "multi-line allow reaches the next line" "determinism"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow determinism --\n\
          \   a longer rationale spanning lines *)\n\
           let now () = Unix.gettimeofday ()\n" );
      ];
    fires "a blank line breaks the anchor" "determinism"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow determinism *)\n\nlet now () = Unix.gettimeofday ()\n"
        );
      ];
    fires "allow for another rule does not apply" "determinism"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow taint — reviewed site. *)\nlet now () = Unix.gettimeofday ()\n" );
      ];
    clean "allow-file" "determinism"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow-file determinism — reviewed file. *)\n\n\
           let now () = Unix.gettimeofday ()\n" );
      ];
    (* One grammar everywhere: a rationale is mandatory... *)
    let bare =
      [
        ( "lib/a.ml",
          "(* manetcheck: allow determinism *)\nlet now () = Unix.gettimeofday ()\n"
        );
      ]
    in
    fires "rationale-free allow does not suppress" "determinism" bare;
    fires "rationale-free allow is an annotation finding" "annotation" bare;
    (* ...and the directive may sit anywhere inside a comment. *)
    clean "mid-comment directive is honoured" "determinism"
      [
        ( "lib/a.ml",
          "(* see also: manetcheck: allow determinism — wall clock ok here *)\n\
           let now () = Unix.gettimeofday ()\n" );
      ]

  (* --- baseline semantics ------------------------------------------------- *)

  let clock_fixture = [ ("lib/a.ml", "let now () = Unix.gettimeofday ()\n") ]

  let test_baseline () =
    let fs = Check.analyze clock_fixture in
    Alcotest.(check bool) "fixture produces findings" true (fs <> []);
    let fresh, stale = C.diff_baseline ~baseline:[] fs in
    Alcotest.(check int) "everything fresh against empty baseline"
      (List.length fs) (List.length fresh);
    Alcotest.(check int) "no stale entries against empty baseline" 0
      (List.length stale);
    (* Pinning suppresses, and regeneration is a no-op: rendering the
       current findings and diffing against the parse of that rendering
       yields nothing fresh and nothing stale (baseline minimality). *)
    let pinned = C.parse_baseline (C.render_baseline fs) in
    let fresh, stale = C.diff_baseline ~baseline:pinned fs in
    Alcotest.(check int) "pinned findings are not fresh" 0 (List.length fresh);
    Alcotest.(check int) "rendered baseline has no stale keys" 0
      (List.length stale);
    (* An entry that no longer fires is itself an error. *)
    let fresh, stale =
      C.diff_baseline ~baseline:(pinned @ [ "lib/gone.ml|taint|old" ]) fs
    in
    Alcotest.(check int) "no fresh findings" 0 (List.length fresh);
    Alcotest.(check (list string)) "stale key reported"
      [ "lib/gone.ml|taint|old" ] stale

  let test_json () =
    let fs = Check.analyze clock_fixture in
    let js = C.to_json ~baseline:[] fs in
    Alcotest.(check bool) "unbaselined finding flagged false" true
      (C.contains js "\"baselined\":false");
    let pinned = C.parse_baseline (C.render_baseline fs) in
    let js = C.to_json ~baseline:pinned fs in
    Alcotest.(check bool) "baselined finding flagged true" true
      (C.contains js "\"baselined\":true")

  (* --- parse failures ----------------------------------------------------- *)

  let test_parse_rule () =
    fires "unparseable file is a finding" "parse"
      [ ("lib/bad.ml", "let let let = (((\n") ];
    clean "parse failures in use-site files are tolerated" "parse"
      [ ("lib/ok.ml", "let x = 1\n") ]
      ~uses:[ ("bin/bad.ml", "let let let = (((\n") ]

  let tc name f = Alcotest.test_case name `Quick f

  let suites =
    [
      ( "manetsem",
        [
          tc "taint fires" test_taint_fires;
          tc "taint non-sources" test_taint_not_a_source;
          tc "taint verified ok" test_taint_verified_ok;
          tc "taint verify-deletion regression"
            test_taint_verify_deletion_regression;
          tc "dispatch" test_dispatch;
          tc "codec" test_codec;
          tc "determinism" test_determinism;
          tc "dead-export" test_dead_export;
          tc "test-only-export" test_test_only_export;
          tc "suppression" test_suppression;
          tc "baseline" test_baseline;
          tc "json" test_json;
          tc "parse rule" test_parse_rule;
        ] );
    ]
end

module Dom = struct
  (* --- toplevel-state ----------------------------------------------------- *)

  let test_toplevel_state_fires () =
    fires "top-level ref cell" "toplevel-state"
      [ ("lib/x/m.ml", "let counter = ref 0\n") ];
    fires "top-level non-empty array literal" "toplevel-state"
      [ ("lib/x/m.ml", "let table = [| 1; 2; 3 |]\n") ];
    fires "top-level Hashtbl" "toplevel-state"
      [ ("lib/x/m.ml", "let cache = Hashtbl.create 16\n") ];
    fires "top-level Bytes builder" "toplevel-state"
      [ ("lib/x/m.ml", "let scratch = Bytes.create 64\n") ];
    fires "mutable state bound through a local let" "toplevel-state"
      [ ("lib/x/m.ml", "let t = let h = Hashtbl.create 8 in h\n") ];
    fires "mutable record literal" "toplevel-state"
      [
        ( "lib/x/m.ml",
          "type t = { mutable hits : int }\nlet global = { hits = 0 }\n" );
      ];
    fires "nested module is not a hiding place" "toplevel-state"
      [ ("lib/x/m.ml", "module Inner = struct let q = Queue.create () end\n") ];
    (* A constructor function returning mutable state taints its full
       applications at top level (the Bignum.of_int shape). *)
    fires "call to a mutable-returning constructor" "toplevel-state"
      [
        ( "lib/x/m.ml",
          "type cell = { mutable v : int }\nlet make n = { v = n }\nlet shared = make 0\n"
        );
      ]

  let test_toplevel_state_clean () =
    clean "immutable scalars and strings" "toplevel-state"
      [ ("lib/x/m.ml", "let x = 42\nlet s = \"hi\"\nlet p = (1, \"a\")\n") ];
    clean "empty array literal has no cells" "toplevel-state"
      [ ("lib/x/m.ml", "let empty = [||]\n") ];
    clean "immutable record" "toplevel-state"
      [
        ( "lib/x/m.ml",
          "type t = { hits : int }\nlet zero = { hits = 0 }\n" );
      ];
    clean "functions allocate per call, not at init" "toplevel-state"
      [
        ( "lib/x/m.ml",
          "let f () = ref 0\nlet g x = Hashtbl.create x\nlet h = fun () -> [| 1 |]\n"
        );
      ];
    clean "local mutable state inside a function body" "toplevel-state"
      [
        ( "lib/x/m.ml",
          "let sum xs =\n  let acc = ref 0 in\n  List.iter (fun x -> acc := !acc + x) xs;\n  !acc\n"
        );
      ]

  (* --- toplevel-lazy / escaping-memo -------------------------------------- *)

  let test_lazy_and_memo () =
    fires "top-level lazy thunk" "toplevel-lazy"
      [ ("lib/x/m.ml", "let table = lazy (List.init 10 (fun i -> i))\n") ];
    fires "memo table captured by returned closure" "escaping-memo"
      [
        ( "lib/x/m.ml",
          "let memo =\n  let tbl = Hashtbl.create 16 in\n  fun x ->\n    match Hashtbl.find_opt tbl x with\n    | Some y -> y\n    | None -> Hashtbl.add tbl x (x * x); x * x\n"
        );
      ];
    clean "per-call table is fine" "escaping-memo"
      [
        ( "lib/x/m.ml",
          "let f x =\n  let tbl = Hashtbl.create 16 in\n  Hashtbl.add tbl x x;\n  Hashtbl.length tbl\n"
        );
      ]

  (* --- global-rng ---------------------------------------------------------- *)

  let test_global_rng () =
    fires "Random.self_init" "global-rng"
      [ ("lib/x/m.ml", "let seed () = Random.self_init ()\n") ];
    fires "Random.int draws from the process-global state" "global-rng"
      [ ("lib/x/m.ml", "let roll () = Random.int 6\n") ];
    fires "Random.State.make_self_init" "global-rng"
      [ ("lib/x/m.ml", "let s () = Random.State.make_self_init ()\n") ];
    (* Reachability: the exported entry point reaches the global RNG
       through a private helper, so it is reported too. *)
    let files =
      [
        ( "lib/x/m.ml",
          "let helper () = Random.int 10\nlet entry () = helper () + 1\n" );
        ("lib/x/m.mli", "val entry : unit -> int\n");
      ]
    in
    Alcotest.(check bool)
      "exported entry point reaching Random is reported" true
      (List.exists
         (fun f ->
           f.C.rule = "global-rng"
           && f.C.line = 2 (* the entry, beyond the direct use on line 1 *))
         (Check.analyze files));
    clean "engine-owned Prng streams are fine" "global-rng"
      [ ("lib/x/m.ml", "let roll g = Prng.int g 6\n") ]

  (* --- domain-primitive ---------------------------------------------------- *)

  let test_domain_primitive () =
    fires "Domain.spawn outside the scheduler" "domain-primitive"
      [ ("lib/x/m.ml", "let go f = Domain.join (Domain.spawn f)\n") ];
    fires "Atomic outside the scheduler" "domain-primitive"
      [ ("lib/x/m.ml", "let c = fun () -> Atomic.make 0\n") ];
    fires "open Domain counts too" "domain-primitive"
      [ ("lib/x/m.ml", "open Domain\nlet f x = x\n") ];
    clean "lib/sim/parallel.ml is allowlisted" "domain-primitive"
      [ ("lib/sim/parallel.ml", "let go f = Domain.join (Domain.spawn f)\n") ]

  (* --- annotations --------------------------------------------------------- *)

  let test_annotation_suppresses () =
    clean "allow with rationale suppresses" "toplevel-state"
      [
        ( "lib/x/m.ml",
          "(* manetcheck: allow toplevel-state — read-only constant table. *)\nlet k = [| 1; 2 |]\n"
        );
      ];
    clean "allow-file with rationale suppresses everywhere" "toplevel-state"
      [
        ( "lib/x/m.ml",
          "(* manetcheck: allow-file toplevel-state — fixture module. *)\nlet a = ref 0\nlet b = ref 1\n"
        );
      ];
    (* The directive may sit anywhere inside a shared comment block. *)
    clean "directive embedded mid-comment" "toplevel-state"
      [
        ( "lib/x/m.ml",
          "(* A constant table.\n   manetcheck: allow toplevel-state — never written after init. *)\nlet k = [| 1 |]\n"
        );
      ]

  let test_annotation_requires_rationale () =
    (* No prose after the rule names: the allow is rejected and reported,
       and the underlying finding still fires. *)
    let files =
      [ ("lib/x/m.ml", "(* manetcheck: allow toplevel-state *)\nlet r = ref 0\n") ]
    in
    fires "rationale-free allow is an annotation finding" "annotation" files;
    fires "rationale-free allow does not suppress" "toplevel-state" files;
    (* And the annotation finding itself cannot be allowed away. *)
    fires "annotation findings are unsuppressible" "annotation"
      [
        ( "lib/x/m.ml",
          "(* manetcheck: allow-file annotation — because. *)\n(* manetcheck: allow toplevel-state *)\nlet r = ref 0\n"
        );
      ]

  (* --- parse + baseline plumbing ------------------------------------------- *)

  let test_parse_and_baseline () =
    fires "syntax errors are findings" "parse"
      [ ("lib/x/m.ml", "let let let\n") ];
    (* The empty interface keeps mli-coverage out of the counts. *)
    let findings =
      Check.analyze [ ("lib/x/m.ml", "let r = ref 0\n"); ("lib/x/m.mli", "") ]
    in
    let baseline =
      C.parse_baseline (C.render_baseline findings)
    in
    let fresh, stale = C.diff_baseline ~baseline findings in
    Alcotest.(check int) "pinned findings are not fresh" 0 (List.length fresh);
    Alcotest.(check int) "no stale keys when all still fire" 0 (List.length stale);
    (* Fix the code: the pinned key must now be reported stale. *)
    let fresh', stale' = C.diff_baseline ~baseline [] in
    Alcotest.(check int) "nothing fresh after the fix" 0 (List.length fresh');
    Alcotest.(check int) "fixed finding leaves a stale key" 1 (List.length stale');
    (* And a new finding in another file is fresh against the old pin. *)
    let fresh'', _ =
      C.diff_baseline ~baseline
        (Check.analyze
           [ ("lib/y/n.ml", "let q = Queue.create ()\n"); ("lib/y/n.mli", "") ])
    in
    Alcotest.(check int) "new finding is fresh" 1 (List.length fresh'')

  let test_real_tree_shape () =
    (* The committed baseline is empty, so the real tree must analyze
       clean — the same invariant @lint enforces, checked here without
       the file system walk: rules list is stable and non-empty. *)
    Alcotest.(check bool) "rule catalogue non-empty" true (Check.rules <> []);
    List.iter
      (fun r ->
        Alcotest.(check bool) "annotation is not an allowable rule" true
          (r <> "annotation"))
      Check.rules

  let tc name f = Alcotest.test_case name `Quick f

  let suites =
    [
      ( "manetdom",
        [
          tc "toplevel-state fires" test_toplevel_state_fires;
          tc "toplevel-state clean" test_toplevel_state_clean;
          tc "lazy and escaping memo" test_lazy_and_memo;
          tc "global rng" test_global_rng;
          tc "domain primitives" test_domain_primitive;
          tc "annotations suppress" test_annotation_suppresses;
          tc "annotations need rationale" test_annotation_requires_rationale;
          tc "parse and baseline" test_parse_and_baseline;
          tc "rule catalogue" test_real_tree_shape;
        ] );
    ]
end

module Hot = struct
  (* --- hot-alloc ----------------------------------------------------------- *)

  let test_hot_alloc_fires () =
    fires "tuple per call" "hot-alloc"
      [ ("lib/x/m.ml", "let hot x = (x, x + 1)\n") ];
    fires "record per call" "hot-alloc"
      [ ("lib/x/m.ml", "type r = { a : int }\nlet hot x = { a = x }\n") ];
    fires "closure per call" "hot-alloc"
      [ ("lib/x/m.ml", "let hot xs = List.iter (fun x -> print_int x) xs\n") ];
    fires "list cell per call" "hot-alloc"
      [ ("lib/x/m.ml", "let hot x acc = x :: acc\n") ];
    fires "ref cell per call" "hot-alloc"
      [ ("lib/x/m.ml", "let hot n =\n  let i = ref n in\n  !i\n") ];
    fires "string concatenation" "hot-alloc"
      [ ("lib/x/m.ml", "let hot a b = a ^ b\n") ];
    fires "array literal" "hot-alloc"
      [ ("lib/x/m.ml", "let hot x = [| x |]\n") ];
    fires "builder call" "hot-alloc"
      [ ("lib/x/m.ml", "let hot n = Hashtbl.create n\n") ];
    fires "sprintf builds a string" "hot-alloc"
      [ ("lib/x/m.ml", "let hot n = Printf.sprintf \"%d\" n\n") ]

  let test_cold_code_is_quiet () =
    (* Identical allocation sites, but the function is not on (or
       reachable from) the roster: no findings at all. *)
    clean "cold tuple" "hot-alloc"
      [ ("lib/x/m.ml", "let cold x = (x, x + 1)\nlet hot x = x + 1\n") ];
    clean "no roster match means nothing is hot" "hot-alloc"
      ~roster:("tools/manetcheck/hotpaths.sexp", "")
      [ ("lib/x/m.ml", "let f x = (x, x)\n") ];
    (* Non-allocating hot code is clean. *)
    clean "pure arithmetic" "hot-alloc"
      [ ("lib/x/m.ml", "let hot a b = (a * 31) + b\n") ];
    clean "empty array literal" "hot-alloc"
      [ ("lib/x/m.ml", "let hot () = ([||] : int array)\n") ]

  (* --- hot-poly ------------------------------------------------------------ *)

  let test_hot_poly () =
    fires "bare compare" "hot-poly"
      [ ("lib/x/m.ml", "let hot a b = compare a b\n") ];
    fires "Stdlib.min" "hot-poly"
      [ ("lib/x/m.ml", "let hot a b = Stdlib.min a b\n") ];
    fires "structural equality on a constructed operand" "hot-poly"
      [ ("lib/x/m.ml", "let hot a b = a = (b, b)\n") ];
    fires "generic Hashtbl op hashes polymorphically" "hot-poly"
      [ ("lib/x/m.ml", "let hot tbl k = Hashtbl.find tbl k\n") ];
    clean "functor instance is monomorphic by construction" "hot-poly"
      [
        ( "lib/x/m.ml",
          "module Stbl = Hashtbl.Make (struct\n\
          \  type t = string\n\n\
          \  let equal = String.equal\n\
          \  let hash = String.hash\n\
           end)\n\n\
           let hot tbl k = Stbl.find tbl k\n" );
      ];
    clean "monomorphic compare" "hot-poly"
      [ ("lib/x/m.ml", "let hot a b = Int.compare a b\n") ];
    clean "equality between plain variables is left alone" "hot-poly"
      [ ("lib/x/m.ml", "let hot a b = a = b\n") ]

  (* --- hot-string-key ------------------------------------------------------ *)

  let test_hot_string_key () =
    let stbl = "module Stbl = Hashtbl.Make (String)\n" in
    fires "string-keyed table on the hot path" "hot-string-key"
      [ ("lib/x/m.ml", stbl ^ "let hot tbl k = Stbl.replace tbl k 1\n") ];
    fires "instance in a submodule, reached through a callee" "hot-string-key"
      [
        ( "lib/x/m.ml",
          "module Inner = struct\n  module Names = Hashtbl.Make (String)\nend\n\n\
           let count tbl k = Inner.Names.find tbl k\n\
           let hot tbl = count tbl \"x\"\n" );
      ];
    clean "the same table off the hot path" "hot-string-key"
      [ ("lib/x/m.ml", stbl ^ "let cold tbl k = Stbl.replace tbl k 1\nlet hot x = x\n") ];
    clean "int-keyed instance" "hot-string-key"
      [
        ( "lib/x/m.ml",
          "module Itbl = Hashtbl.Make (Int)\nlet hot tbl k = Itbl.replace tbl k 1\n" );
      ];
    clean "instance declared in another file" "hot-string-key"
      [
        ("lib/x/names.ml", stbl);
        ("lib/x/m.ml", "let hot tbl k = Names.Stbl.find tbl k\n");
      ];
    clean "allowed with a rationale" "hot-string-key"
      [
        ( "lib/x/m.ml",
          stbl
          ^ "(* manetcheck: allow hot-string-key — keyed by message content, \
             so no name can be bound once. *)\n\
             let hot tbl k = Stbl.find tbl k\n" );
      ]

  (* --- hot-list ------------------------------------------------------------ *)

  let test_hot_list () =
    fires "List.length is O(n)" "hot-list"
      [ ("lib/x/m.ml", "let hot xs = List.length xs\n") ];
    fires "List.assoc is O(n)" "hot-list"
      [ ("lib/x/m.ml", "let hot k xs = List.assoc k xs\n") ];
    fires "@ copies the left list" "hot-list"
      [ ("lib/x/m.ml", "let hot a b = a @ b\n") ];
    clean "array access is constant-time" "hot-list"
      [ ("lib/x/m.ml", "let hot a i = Array.length a + a.(i)\n") ]

  (* --- hot-partial --------------------------------------------------------- *)

  let test_hot_partial () =
    fires "partially applied callback rebuilt per call" "hot-partial"
      [ ("lib/x/m.ml", "let g a b = a + b\nlet hot xs = List.iter (g 1) xs\n") ];
    (* A direct function reference allocates nothing at the call. *)
    clean "named callback is fine" "hot-partial"
      [ ("lib/x/m.ml", "let g x = print_int x\nlet hot xs = List.iter g xs\n") ];
    (* A literal lambda is a hot-alloc closure, not a hot-partial. *)
    clean "literal lambda is hot-alloc, not hot-partial" "hot-partial"
      [ ("lib/x/m.ml", "let hot xs = List.iter (fun x -> print_int x) xs\n") ]

  (* --- hot-boxed-store ------------------------------------------------------ *)

  let prng_roster = ("tools/manetcheck/hotpaths.sexp", "(Prng bits64)\n")

  (* The generator as it was: four mutable int64 fields, each store a
     fresh box. *)
  let boxed_prng =
    "type t = {\n\
    \  mutable s0 : int64;\n\
    \  mutable s1 : int64;\n\
    \  mutable s2 : int64;\n\
    \  mutable s3 : int64;\n\
     }\n\n\
     let bits64 g =\n\
    \  let result = Int64.mul g.s1 9L in\n\
    \  let t = Int64.shift_left g.s1 17 in\n\
    \  g.s2 <- Int64.logxor g.s2 g.s0;\n\
    \  g.s3 <- Int64.logxor g.s3 g.s1;\n\
    \  g.s1 <- Int64.logxor g.s1 g.s2;\n\
    \  g.s0 <- Int64.logxor g.s0 g.s3;\n\
    \  g.s2 <- Int64.logxor g.s2 t;\n\
    \  result\n"

  (* The same step over a flat 32-byte buffer. *)
  let flat_prng =
    "type t = Bytes.t\n\n\
     let bits64 g =\n\
    \  let s0 = Bytes.get_int64_ne g 0 and s1 = Bytes.get_int64_ne g 8 in\n\
    \  let s2 = Int64.logxor (Bytes.get_int64_ne g 16) s0 in\n\
    \  let s3 = Int64.logxor (Bytes.get_int64_ne g 24) s1 in\n\
    \  Bytes.set_int64_ne g 8 (Int64.logxor s1 s2);\n\
    \  Bytes.set_int64_ne g 0 (Int64.logxor s0 s3);\n\
    \  Bytes.set_int64_ne g 16 (Int64.logxor s2 (Int64.shift_left s1 17));\n\
    \  Bytes.set_int64_ne g 24 s3;\n\
    \  Int64.mul s1 9L\n"

  let test_hot_boxed_store () =
    let files src = [ ("lib/crypto/prng.ml", src) ] in
    Alcotest.(check int)
      "every int64 store of the record generator fires" 5
      (count ~roster:prng_roster "hot-boxed-store" (files boxed_prng));
    clean ~roster:prng_roster "the Bytes-backed generator is clean" "hot-boxed-store"
      (files flat_prng);
    fires "float field of a mixed record" "hot-boxed-store"
      [
        ( "lib/x/m.ml",
          "type t = { mutable now : float; mutable n : int }\n\
           let hot t x = t.now <- x +. 1.0\n" );
      ];
    fires "inline records are never flat" "hot-boxed-store"
      [
        ( "lib/x/m.ml",
          "type s = Wp of { mutable tx : float; mutable ty : float } | Still\n\
           let hot s x = match s with Wp w -> w.tx <- x | Still -> ()\n" );
      ];
    fires "field qualified through its module" "hot-boxed-store"
      [
        ("lib/x/clock.ml", "type t = { mutable at : float; name : string }\n");
        ("lib/x/m.ml", "let hot c x = c.Clock.at <- x\n");
      ];
    clean "an all-float record is stored flat" "hot-boxed-store"
      [
        ( "lib/x/m.ml",
          "type t = { mutable x0 : float; mutable x1 : float }\n\
           let hot t x = t.x0 <- x; t.x1 <- x +. 1.0\n" );
      ];
    clean "int and immutable fields never box" "hot-boxed-store"
      [
        ( "lib/x/m.ml",
          "type t = { mutable n : int; w : float }\nlet hot t = t.n <- t.n + 1\n" );
      ];
    clean "the same store off the hot path" "hot-boxed-store"
      [
        ( "lib/x/m.ml",
          "type t = { mutable now : float; mutable n : int }\n\
           let cold t x = t.now <- x\nlet hot x = x + 1\n" );
      ];
    clean "allow with rationale suppresses" "hot-boxed-store"
      [
        ( "lib/x/m.ml",
          "type t = { mutable now : float; mutable n : int }\n\
           let hot t x =\n\
          \  (* manetcheck: allow hot-boxed-store — x arrives boxed; the store \
           copies the pointer. *)\n\
          \  t.now <- x\n" );
      ]

  (* --- roster propagation -------------------------------------------------- *)

  let test_roster_propagation () =
    (* hot calls helper, helper calls deep: all three are hot; lone is
       not referenced and stays cold. *)
    let files =
      [
        ( "lib/x/m.ml",
          "let deep x = (x, x)\n\
           let helper x = deep x\n\
           let hot x = helper x\n\
           let lone x = (x, x)\n" );
      ]
    in
    Alcotest.(check (list (pair string string)))
      "transitive callees are hot"
      [ ("M", "deep"); ("M", "helper"); ("M", "hot") ]
      (Check.hot_set ~roster:"(M hot)\n" files);
    (* The deep callee's allocation is reported even though only the
       root is on the roster. *)
    Alcotest.(check bool)
      "deep allocation reported" true
      (List.exists
         (fun f -> f.C.rule = "hot-alloc" && f.C.line = 1)
         (analyze files));
    (* Cross-module propagation through a module alias. *)
    let files2 =
      [
        ("lib/x/util.ml", "let pair x = (x, x)\n");
        ("lib/x/m.ml", "module U = Util\nlet hot x = U.pair x\n");
      ]
    in
    Alcotest.(check (list (pair string string)))
      "alias-resolved cross-module callee is hot"
      [ ("M", "hot"); ("Util", "pair") ]
      (Check.hot_set ~roster:"(M hot)\n" files2)

  let test_roster_errors () =
    fires "stale roster entry" "roster"
      [ ("lib/x/m.ml", "let hot x = x\n") ]
      ~roster:("tools/manetcheck/hotpaths.sexp", "(M hot)\n(M gone)\n");
    fires "roster entry naming a non-function value" "roster"
      [ ("lib/x/m.ml", "let hot = 42\n") ];
    fires "lowercase module name" "roster"
      ~roster:("tools/manetcheck/hotpaths.sexp", "(m hot)\n")
      [ ("lib/x/m.ml", "let hot x = x\n") ];
    fires "malformed entry" "roster"
      ~roster:("tools/manetcheck/hotpaths.sexp", "(M hot extra)\n")
      [ ("lib/x/m.ml", "let hot x = x\n") ];
    clean "comments and blank lines are fine" "roster"
      ~roster:("tools/manetcheck/hotpaths.sexp", "; seeds\n\n(M hot)\n")
      [ ("lib/x/m.ml", "let hot x = x + 1\n") ]

  (* --- cold branches ------------------------------------------------------- *)

  let sink_fixture ~directive =
    [
      ( "lib/x/m.ml",
        "let detail x = Printf.sprintf \"%d\" x\n\
         let hot on x =\n\
        \  if on then\n"
        ^ directive
        ^ "    print_string (detail x);\n\
          \  x + 1\n" );
    ]

  let test_cold_branch () =
    let warm = sink_fixture ~directive:"" in
    let cold =
      sink_fixture
        ~directive:"    (* manetcheck: cold — only a listening sink wants this. *)\n"
    in
    (* Without the directive the branch is hot, and so is its callee. *)
    fires "unmarked branch reaches the formatter" "hot-alloc" warm;
    Alcotest.(check (list (pair string string)))
      "callee of an unmarked branch is hot"
      [ ("M", "detail"); ("M", "hot") ]
      (Check.hot_set ~roster:"(M hot)\n" warm);
    (* The directive cuts both the rules and the propagation. *)
    clean "cold branch is not analyzed" "hot-alloc" cold;
    Alcotest.(check (list (pair string string)))
      "callee of a cold branch stays cold"
      [ ("M", "hot") ]
      (Check.hot_set ~roster:"(M hot)\n" cold);
    clean "a placed directive is no annotation finding" "annotation" cold;
    (* Only the marked arm is cut: the other arm and the condition stay
       hot. *)
    fires "the unmarked arm is still hot" "hot-alloc"
      [
        ( "lib/x/m.ml",
          "let hot on x =\n\
          \  if on then\n\
          \    (* manetcheck: cold — only a listening sink wants this. *)\n\
          \    ignore (Printf.sprintf \"%d\" x)\n\
          \  else ignore (x, x)\n" );
      ];
    fires "match case bodies can be marked too" "hot-alloc"
      [
        ( "lib/x/m.ml",
          "let hot k x =\n\
          \  match k with\n\
          \  | 0 ->\n\
          \      (* manetcheck: cold — error path, reached once per run. *)\n\
          \      ignore (Printf.sprintf \"%d\" x)\n\
          \  | _ -> ignore (x, x)\n" );
      ];
    clean "a marked match case is cut" "hot-alloc"
      [
        ( "lib/x/m.ml",
          "let hot k x =\n\
          \  match k with\n\
          \  | 0 ->\n\
          \      (* manetcheck: cold — error path, reached once per run. *)\n\
          \      ignore (Printf.sprintf \"%d\" x)\n\
          \  | _ -> x\n" );
      ]

  let test_cold_directive_grammar () =
    let bare = sink_fixture ~directive:"    (* manetcheck: cold *)\n" in
    fires "cold without a rationale is an annotation finding" "annotation" bare;
    fires "cold without a rationale cuts nothing" "hot-alloc" bare;
    fires "cold directive that marks no branch" "annotation"
      [
        ( "lib/x/m.ml",
          "(* manetcheck: cold — nothing below is a branch. *)\n\n\
           let hot x = x + 1\n" );
      ]

  (* --- annotations --------------------------------------------------------- *)

  let test_annotation_suppresses () =
    clean "allow with rationale suppresses" "hot-alloc"
      [
        ( "lib/x/m.ml",
          "let hot x =\n\
          \  (* manetcheck: allow hot-alloc — boxed once per run, not per \
           event. *)\n\
          \  (x, x)\n" );
      ];
    clean "allow-file with rationale suppresses everywhere" "hot-alloc"
      [
        ( "lib/x/m.ml",
          "(* manetcheck: allow-file hot-alloc — fixture: allocation is the \
           point. *)\n\
           let hot x = (x, x)\n\
           let hot2 x = [ x ]\n" );
      ]

  let test_annotation_requires_rationale () =
    let files =
      [
        ( "lib/x/m.ml",
          "let hot x =\n  (* manetcheck: allow hot-alloc *)\n  (x, x)\n" );
      ]
    in
    fires "rationale-free allow is an annotation finding" "annotation" files;
    fires "rationale-free allow does not suppress" "hot-alloc" files;
    fires "annotation findings are unsuppressible" "annotation"
      [
        ( "lib/x/m.ml",
          "(* manetcheck: allow-file annotation — because. *)\n\
           (* manetcheck: allow hot-alloc *)\n\
           let hot x = (x, x)\n" );
      ]

  (* --- baseline plumbing --------------------------------------------------- *)

  let test_baseline () =
    let files = [ ("lib/x/m.ml", "let hot x = (x, x)\n"); ("lib/x/m.mli", "") ] in
    let findings = analyze files in
    Alcotest.(check bool) "fixture fires" true (findings <> []);
    let baseline =
      C.parse_baseline (C.render_baseline findings)
    in
    let fresh, stale = C.diff_baseline ~baseline findings in
    Alcotest.(check int) "pinned findings are not fresh" 0 (List.length fresh);
    Alcotest.(check int) "no stale keys while they fire" 0 (List.length stale);
    let fresh', stale' = C.diff_baseline ~baseline [] in
    Alcotest.(check int) "nothing fresh after the fix" 0 (List.length fresh');
    Alcotest.(check int) "fixed finding leaves a stale key" 1
      (List.length stale')

  let test_rule_catalogue () =
    Alcotest.(check bool) "rule catalogue non-empty" true (Check.rules <> []);
    (* The README table documents every one; a new rule moves this pin.
       [parse] is the parser's own finding, not an analysis rule. *)
    Alcotest.(check int) "rule count" 31
      (List.length (List.filter (fun r -> r <> "parse") Check.rules));
    List.iter
      (fun r ->
        Alcotest.(check bool) "annotation is not an allowable rule" true
          (r <> "annotation"))
      Check.rules

  let tc name f = Alcotest.test_case name `Quick f

  let suites =
    [
      ( "manethot",
        [
          tc "hot-alloc fires" test_hot_alloc_fires;
          tc "cold code is quiet" test_cold_code_is_quiet;
          tc "hot-poly" test_hot_poly;
          tc "hot-string-key" test_hot_string_key;
          tc "hot-list" test_hot_list;
          tc "hot-partial" test_hot_partial;
          tc "hot-boxed-store" test_hot_boxed_store;
          tc "roster propagation" test_roster_propagation;
          tc "roster errors" test_roster_errors;
          tc "cold branches" test_cold_branch;
          tc "cold directive grammar" test_cold_directive_grammar;
          tc "annotations suppress" test_annotation_suppresses;
          tc "annotations need rationale" test_annotation_requires_rationale;
          tc "baseline plumbing" test_baseline;
          tc "rule catalogue" test_rule_catalogue;
        ] );
    ]
end

module Grammar = struct
  let test_unused_allow () =
    fires "allow that suppresses nothing" "annotation"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow determinism — the clock read moved away. *)\n\
           let now () = 0.\n" );
      ];
    fires "one rule of two suppresses nothing" "annotation"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow determinism failwith — profiler clock. *)\n\
           let now () = Unix.gettimeofday ()\n" );
      ];
    clean "allow that suppresses a finding" "annotation"
      [
        ( "lib/a.ml",
          "(* manetcheck: allow determinism — profiler clock. *)\n\
           let now () = Unix.gettimeofday ()\n" );
      ]

  let test_retired_prefix () =
    let old =
      [
        ( "lib/a.ml",
          "(* manet" ^ "sem: allow determinism — old grammar. *)\n\
           let now () = Unix.gettimeofday ()\n" );
      ]
    in
    fires "a retired prefix is an annotation finding" "annotation" old;
    fires "a retired prefix suppresses nothing" "determinism" old

  let test_one_rule_per_site () =
    let only rule other files =
      fires (rule ^ " reports the site") rule files;
      clean (other ^ " does not") other files
    in
    only "global-rng" "determinism" [ ("lib/a.ml", "let pick n = Random.int n\n") ];
    only "toplevel-state" "determinism" [ ("lib/a.ml", "let cache = ref 0\n") ];
    only "hot-poly" "poly-compare" [ ("lib/x/m.ml", "let hot a b = compare a b\n") ];
    only "determinism" "hot-poly" [ ("lib/x/m.ml", "let hot x = Hashtbl.hash x\n") ];
    Alcotest.(check int) "one parse finding per file" 1
      (count "parse" [ ("lib/bad.ml", "let let let = (((\n") ])

  let tc name f = Alcotest.test_case name `Quick f

  let suites =
    [
      ( "manetcheck",
        [
          tc "unused allows" test_unused_allow;
          tc "retired prefixes" test_retired_prefix;
          tc "one rule per site" test_one_rule_per_site;
        ] );
    ]
end

let suites = Lint.suites @ Sem.suites @ Dom.suites @ Hot.suites @ Grammar.suites
