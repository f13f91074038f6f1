(* Self-tests for manethot, the hot-path allocation & complexity
   analyzer: every rule must fire on a synthetic hot fixture, stay
   quiet when the same code is cold (not reachable from the roster),
   and honour the roster propagation and strict annotation grammar.
   Fixtures live in string literals, so manetlint's lexical pass never
   sees them. *)

module Hot = Manethot.Hot
module Sem = Manetsem.Sem

let roster = ("tools/manethot/hotpaths.sexp", "(M hot)\n")

let analyze ?(roster = roster) files = Hot.analyze ~roster files

let count ?roster rule files =
  List.length
    (List.filter (fun f -> f.Hot.rule = rule) (analyze ?roster files))

let fires ?roster name rule files =
  Alcotest.(check bool) name true (count ?roster rule files > 0)

let clean ?roster name rule files =
  Alcotest.(check int) name 0 (count ?roster rule files)

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
    ~roster:("tools/manethot/hotpaths.sexp", "")
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

let prng_roster = ("tools/manethot/hotpaths.sexp", "(Prng bits64)\n")

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
        \  (* manethot: allow hot-boxed-store — x arrives boxed; the store \
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
    (Hot.hot_set ~roster:"(M hot)\n" files);
  (* The deep callee's allocation is reported even though only the
     root is on the roster. *)
  Alcotest.(check bool)
    "deep allocation reported" true
    (List.exists
       (fun f -> f.Hot.rule = "hot-alloc" && f.Hot.line = 1)
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
    (Hot.hot_set ~roster:"(M hot)\n" files2)

let test_roster_errors () =
  fires "stale roster entry" "roster"
    [ ("lib/x/m.ml", "let hot x = x\n") ]
    ~roster:("tools/manethot/hotpaths.sexp", "(M hot)\n(M gone)\n");
  fires "roster entry naming a non-function value" "roster"
    [ ("lib/x/m.ml", "let hot = 42\n") ];
  fires "lowercase module name" "roster"
    ~roster:("tools/manethot/hotpaths.sexp", "(m hot)\n")
    [ ("lib/x/m.ml", "let hot x = x\n") ];
  fires "malformed entry" "roster"
    ~roster:("tools/manethot/hotpaths.sexp", "(M hot extra)\n")
    [ ("lib/x/m.ml", "let hot x = x\n") ];
  clean "comments and blank lines are fine" "roster"
    ~roster:("tools/manethot/hotpaths.sexp", "; seeds\n\n(M hot)\n")
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
      ~directive:"    (* manethot: cold — only a listening sink wants this. *)\n"
  in
  (* Without the directive the branch is hot, and so is its callee. *)
  fires "unmarked branch reaches the formatter" "hot-alloc" warm;
  Alcotest.(check (list (pair string string)))
    "callee of an unmarked branch is hot"
    [ ("M", "detail"); ("M", "hot") ]
    (Hot.hot_set ~roster:"(M hot)\n" warm);
  (* The directive cuts both the rules and the propagation. *)
  clean "cold branch is not analyzed" "hot-alloc" cold;
  Alcotest.(check (list (pair string string)))
    "callee of a cold branch stays cold"
    [ ("M", "hot") ]
    (Hot.hot_set ~roster:"(M hot)\n" cold);
  clean "a placed directive is no annotation finding" "annotation" cold;
  (* Only the marked arm is cut: the other arm and the condition stay
     hot. *)
  fires "the unmarked arm is still hot" "hot-alloc"
    [
      ( "lib/x/m.ml",
        "let hot on x =\n\
        \  if on then\n\
        \    (* manethot: cold — only a listening sink wants this. *)\n\
        \    ignore (Printf.sprintf \"%d\" x)\n\
        \  else ignore (x, x)\n" );
    ];
  fires "match case bodies can be marked too" "hot-alloc"
    [
      ( "lib/x/m.ml",
        "let hot k x =\n\
        \  match k with\n\
        \  | 0 ->\n\
        \      (* manethot: cold — error path, reached once per run. *)\n\
        \      ignore (Printf.sprintf \"%d\" x)\n\
        \  | _ -> ignore (x, x)\n" );
    ];
  clean "a marked match case is cut" "hot-alloc"
    [
      ( "lib/x/m.ml",
        "let hot k x =\n\
        \  match k with\n\
        \  | 0 ->\n\
        \      (* manethot: cold — error path, reached once per run. *)\n\
        \      ignore (Printf.sprintf \"%d\" x)\n\
        \  | _ -> x\n" );
    ]

let test_cold_directive_grammar () =
  let bare = sink_fixture ~directive:"    (* manethot: cold *)\n" in
  fires "cold without a rationale is an annotation finding" "annotation" bare;
  fires "cold without a rationale cuts nothing" "hot-alloc" bare;
  fires "cold directive that marks no branch" "annotation"
    [
      ( "lib/x/m.ml",
        "(* manethot: cold — nothing below is a branch. *)\n\n\
         let hot x = x + 1\n" );
    ]

(* --- annotations --------------------------------------------------------- *)

let test_annotation_suppresses () =
  clean "allow with rationale suppresses" "hot-alloc"
    [
      ( "lib/x/m.ml",
        "let hot x =\n\
        \  (* manethot: allow hot-alloc — boxed once per run, not per \
         event. *)\n\
        \  (x, x)\n" );
    ];
  clean "allow-file with rationale suppresses everywhere" "hot-alloc"
    [
      ( "lib/x/m.ml",
        "(* manethot: allow-file hot-alloc — fixture: allocation is the \
         point. *)\n\
         let hot x = (x, x)\n\
         let hot2 x = [ x ]\n" );
    ]

let test_annotation_requires_rationale () =
  let files =
    [
      ( "lib/x/m.ml",
        "let hot x =\n  (* manethot: allow hot-alloc *)\n  (x, x)\n" );
    ]
  in
  fires "rationale-free allow is an annotation finding" "annotation" files;
  fires "rationale-free allow does not suppress" "hot-alloc" files;
  fires "annotation findings are unsuppressible" "annotation"
    [
      ( "lib/x/m.ml",
        "(* manethot: allow-file annotation — because. *)\n\
         (* manethot: allow hot-alloc *)\n\
         let hot x = (x, x)\n" );
    ]

(* --- baseline plumbing --------------------------------------------------- *)

let test_baseline () =
  let files = [ ("lib/x/m.ml", "let hot x = (x, x)\n") ] in
  let findings = analyze files in
  Alcotest.(check bool) "fixture fires" true (findings <> []);
  let baseline =
    Sem.parse_baseline (Sem.render_baseline ~tool:"manethot" findings)
  in
  let fresh, stale = Sem.diff_baseline ~baseline findings in
  Alcotest.(check int) "pinned findings are not fresh" 0 (List.length fresh);
  Alcotest.(check int) "no stale keys while they fire" 0 (List.length stale);
  let fresh', stale' = Sem.diff_baseline ~baseline [] in
  Alcotest.(check int) "nothing fresh after the fix" 0 (List.length fresh');
  Alcotest.(check int) "fixed finding leaves a stale key" 1
    (List.length stale')

let test_rule_catalogue () =
  Alcotest.(check bool) "rule catalogue non-empty" true (Hot.rules <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "annotation is not an allowable rule" true
        (r <> "annotation"))
    Hot.rules

let suites =
  [
    ( "manethot",
      [
        Alcotest.test_case "hot-alloc fires" `Quick test_hot_alloc_fires;
        Alcotest.test_case "cold code is quiet" `Quick test_cold_code_is_quiet;
        Alcotest.test_case "hot-poly" `Quick test_hot_poly;
        Alcotest.test_case "hot-list" `Quick test_hot_list;
        Alcotest.test_case "hot-partial" `Quick test_hot_partial;
        Alcotest.test_case "hot-boxed-store" `Quick test_hot_boxed_store;
        Alcotest.test_case "roster propagation" `Quick test_roster_propagation;
        Alcotest.test_case "roster errors" `Quick test_roster_errors;
        Alcotest.test_case "cold branches" `Quick test_cold_branch;
        Alcotest.test_case "cold directive grammar" `Quick
          test_cold_directive_grammar;
        Alcotest.test_case "annotations suppress" `Quick
          test_annotation_suppresses;
        Alcotest.test_case "annotations need rationale" `Quick
          test_annotation_requires_rationale;
        Alcotest.test_case "baseline plumbing" `Quick test_baseline;
        Alcotest.test_case "rule catalogue" `Quick test_rule_catalogue;
      ] );
  ]
