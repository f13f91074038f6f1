(* Tests for the causal telemetry layer: span lifecycle, cross-node
   parenting through the correlation registry, the JSON codec, JSONL
   byte-determinism across replays, and the report renderers. *)

module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Trace = Manet_sim.Trace
module Obs = Manetsec.Obs
module Metrics = Manetsec.Metrics
module Json = Manetsec.Obs_json
module Report = Manetsec.Obs_report
module Scenario = Manetsec.Scenario
module Faults = Manetsec.Faults
module Directory = Manetsec.Proto.Directory
module Identity = Manetsec.Proto.Identity

(* ------------------------------------------------------------------ *)
(* Span primitives                                                    *)
(* ------------------------------------------------------------------ *)

let test_span_lifecycle () =
  let e = Engine.create ~seed:1 () in
  let o = Obs.create e in
  let root = Obs.start o ~kind:"route.discovery" ~node:1 ~detail:"d" () in
  Engine.schedule e ~delay:2.0 (fun () ->
      let child = Obs.start o ~parent:root ~kind:"rreq.flood" ~node:1 () in
      Obs.note o child ~node:3 "relay";
      Engine.schedule e ~delay:1.0 (fun () ->
          Obs.finish o child Obs.Ok;
          Obs.finish o root (Obs.Rejected "nope");
          (* finish is first-wins. *)
          Obs.finish o root Obs.Ok));
  Engine.run e;
  match Obs.spans o with
  | [ r; c ] ->
      Alcotest.(check int) "ids dense from 1" 1 r.Obs.id;
      Alcotest.(check bool) "root has no parent" true (r.Obs.parent = None);
      Alcotest.(check bool) "child parent" true (c.Obs.parent = Some root);
      Alcotest.(check (float 1e-9)) "child start" 2.0 c.Obs.start_time;
      Alcotest.(check bool) "child end" true (c.Obs.end_time = Some 3.0);
      Alcotest.(check bool) "child outcome" true (c.Obs.outcome = Some Obs.Ok);
      Alcotest.(check bool) "first finish wins" true
        (r.Obs.outcome = Some (Obs.Rejected "nope"));
      Alcotest.(check bool) "note recorded" true
        (c.Obs.notes = [ (2.0, 3, "relay") ])
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_correlation_registry () =
  let e = Engine.create ~seed:1 () in
  let o = Obs.create e in
  let a = Obs.start o ~kind:"k" ~node:0 () in
  let b = Obs.start o ~kind:"k" ~node:1 () in
  Alcotest.(check bool) "missing key" true (Obs.lookup o "x" = None);
  Obs.correlate o "x" a;
  Alcotest.(check bool) "bound" true (Obs.lookup o "x" = Some a);
  Obs.correlate o "x" b;
  Alcotest.(check bool) "rebinding replaces" true (Obs.lookup o "x" = Some b)

let test_event_capture_ring () =
  let e = Engine.create ~seed:1 () in
  let o = Obs.create ~event_capacity:2 e in
  Obs.log o ~node:0 ~event:"e0" ~detail:"";
  Alcotest.(check int) "capture off by default" 0 (List.length (Obs.events o));
  Obs.set_capture o true;
  for i = 1 to 5 do
    Obs.log o ~node:i ~event:(Printf.sprintf "e%d" i) ~detail:""
  done;
  Alcotest.(check (list string)) "newest kept" [ "e4"; "e5" ]
    (List.map (fun ev -> ev.Obs.name) (Obs.events o));
  Alcotest.(check int) "drops counted" 3 (Obs.events_dropped o)

(* ------------------------------------------------------------------ *)
(* JSON codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Float 2.5);
        ("s", Json.String "line\nquote\"tab\tend");
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Int (-7) ]);
        ("nested", Json.Obj [ ("empty", Json.List []) ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (Json.parse (Json.to_string v) = v);
  (* Canonical printing: a value renders to the same bytes every time. *)
  Alcotest.(check string) "stable bytes" (Json.to_string v) (Json.to_string v)

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with
    | (_ : Json.t) -> false
    | exception Json.Parse_error _ -> true
  in
  Alcotest.(check bool) "trailing garbage" true (bad "{} x");
  Alcotest.(check bool) "unterminated string" true (bad {|{"a": "b|});
  Alcotest.(check bool) "bare word" true (bad "nope");
  Alcotest.(check bool) "empty" true (bad "")

let test_json_float_canonical () =
  Alcotest.(check string) "integral floats get .1f" "2.0" (Json.float_str 2.0);
  Alcotest.(check string) "negative zero" "-0.0" (Json.float_str (-0.0));
  Alcotest.(check string) "dyadic fraction exact" "0.25" (Json.float_str 0.25);
  Alcotest.(check bool) "large magnitudes use %g" true
    (float_of_string (Json.float_str 1e18) = 1e18)

let test_json_nonfinite_rejected () =
  let rejects x =
    match Json.float_str x with
    | (_ : string) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "nan" true (rejects Float.nan);
  Alcotest.(check bool) "+inf" true (rejects Float.infinity);
  Alcotest.(check bool) "-inf" true (rejects Float.neg_infinity);
  (* The printers inherit the rejection, however deep the atom sits —
     a non-finite float must never reach an exported line. *)
  let printer_rejects v =
    match Json.to_string v with
    | (_ : string) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "to_string Float nan" true
    (printer_rejects (Json.Float Float.nan));
  Alcotest.(check bool) "nested inf" true
    (printer_rejects
       (Json.Obj [ ("x", Json.List [ Json.Int 1; Json.Float Float.infinity ]) ]))

(* Exact-byte pins for the canonical formatter.  These strings are what
   live audit/trace exports contain; changing any of them changes every
   export's bytes, so a formatter tweak must be a deliberate,
   test-visible schema decision — not an accident. *)
let test_json_float_pinned () =
  List.iter
    (fun (x, expect) ->
      Alcotest.(check string) expect expect (Json.float_str x))
    [
      (0.0, "0.0");
      (1.0, "1.0");
      (-3.0, "-3.0");
      (0.5, "0.5");
      (0.1, "0.1");
      (1.0 /. 3.0, "0.333333333333");
      (6.50148517107, "6.50148517107");
      (12345.6789, "12345.6789");
      (1.5e-5, "1.5e-05");
      (* the integral-rendering boundary sits exactly at 1e15 *)
      (1e15 -. 1.0, "999999999999999.0");
      (1e15, "1e+15");
      (1e18, "1e+18");
    ]

(* Exact-byte pins for string escaping: the two-character escapes and
   the \u00XX form for other control bytes. *)
let test_json_escape_pinned () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check string) expect expect (Json.to_string (Json.String s)))
    [
      ("a\"b", {|"a\"b"|});
      ("a\\b", {|"a\\b"|});
      ("\n\t", {|"\n\t"|});
      ("\001", {|"\u0001"|});
      ("\"mid\r\\", {|"\"mid\r\\"|});
      ("clean \xc3\xa9 text", "\"clean \xc3\xa9 text\"");
      ("", {|""|});
    ]

(* Arbitrary byte strings reach the escaping path; strings with no byte
   to escape reach the clean fast path.  Both must parse back. *)
let prop_json_string_roundtrip =
  let clean_char c = if c = '"' || c = '\\' || Char.code c < 0x20 then 'x' else c in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"json: parse (to_string (String s)) = String s"
       QCheck.(
         make ~print:(Printf.sprintf "%S")
           Gen.(
             oneof
               [ string_size (int_bound 64); string_size ~gen:(map clean_char char) (int_bound 64) ]))
       (fun s -> Json.parse (Json.to_string (Json.String s)) = Json.String s))

(* The formatter against its specification, [Float_cases.reference]
   (%.1f for integral values below 1e15, %.12g otherwise), over random
   bit patterns, clock readings, near-ties of the 12-digit rounding and
   the boundaries.  CI runs the same comparison over 10M values
   (test/floatcheck). *)
let prop_float_str_matches_printf =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20_000 ~name:"json: float_str = printf reference"
       (QCheck.make ~print:(Printf.sprintf "%h") Float_cases.draw)
       (fun x -> String.equal (Json.float_str x) (Float_cases.reference x)))

(* ------------------------------------------------------------------ *)
(* Export line writers against the Json.t / Printf renderings they     *)
(* replaced                                                            *)
(* ------------------------------------------------------------------ *)

(* The span and event lines as a Json.t tree, the form the JSONL export
   was rendered from before its direct line writers. *)
let oracle_span (s : Obs.span) =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    ([
       ("type", Json.String "span");
       ("id", Json.Int s.id);
       ("parent", opt (fun p -> Json.Int p) s.parent);
       ("kind", Json.String s.kind);
       ("node", Json.Int s.node);
       ("detail", Json.String s.detail);
       ("start", Json.Float s.start_time);
       ("end", opt (fun e -> Json.Float e) s.end_time);
       ("outcome", opt (fun o -> Json.String (Obs.outcome_label o)) s.outcome);
     ]
    @ (match Option.bind s.outcome Obs.outcome_reason with
      | Some r -> [ ("reason", Json.String r) ]
      | None -> [])
    @
    match s.notes with
    | [] -> []
    | l ->
        [
          ( "notes",
            Json.List
              (List.rev_map
                 (fun (t, node, text) ->
                   Json.Obj
                     [
                       ("t", Json.Float t);
                       ("node", Json.Int node);
                       ("text", Json.String text);
                     ])
                 l) );
        ])

let oracle_event (e : Obs.event) =
  Json.Obj
    [
      ("type", Json.String "event");
      ("t", Json.Float e.time);
      ("node", Json.Int e.node);
      ("name", Json.String e.name);
      ("detail", Json.String e.detail);
    ]

let oracle_jsonl ~meta o =
  let events = Obs.events o in
  let header =
    Json.Obj
      ([
         ("schema", Json.String Obs.schema);
         ("version", Json.Int Obs.schema_version);
         ("spans", Json.Int (Obs.span_count o));
         ("events", Json.Int (List.length events));
         ("events_dropped", Json.Int (Obs.events_dropped o));
       ]
      @ meta)
  in
  String.concat ""
    (List.map
       (fun v -> Json.to_string v ^ "\n")
       ((header :: List.map oracle_span (Obs.spans o)) @ List.map oracle_event events))

let check_lines what want got =
  List.iter2
    (fun w g -> Alcotest.(check string) what w g)
    (String.split_on_char '\n' want)
    (String.split_on_char '\n' got)

(* Every span shape (parent or root, open or closed, each outcome, with
   and without a reason and notes) and strings that need escaping. *)
let test_jsonl_writers_match_tree () =
  let e = Engine.create ~seed:1 () in
  let o = Obs.create e in
  Obs.set_capture o true;
  let awkward = "q\"b\\s\nn\tt\r\001\031 \xc3\xa9 end" in
  let root = Obs.start o ~kind:"route.discovery" ~node:(-1) ~detail:awkward () in
  let outcomes =
    [ Obs.Ok; Obs.Timeout; Obs.Rejected "bad \"sig\""; Obs.Failed awkward ]
  in
  List.iteri
    (fun i outcome ->
      Engine.schedule e ~delay:(0.1 *. float_of_int (i + 1)) (fun () ->
          let id = Obs.start o ~parent:root ~kind:awkward ~node:i () in
          for k = 1 to i do
            Obs.note o id ~node:(k - 1) (Printf.sprintf "hop %d %s" k awkward)
          done;
          Obs.log o ~node:i ~event:awkward ~detail:(String.make (i * 9) '\n');
          Obs.finish o id outcome))
    outcomes;
  ignore (Obs.start o ~kind:"open" ~node:7 ());
  Engine.run e;
  Obs.note o root ~node:3 "late";
  let meta = [ ("seed", Json.Int 3) ] in
  check_lines "line" (oracle_jsonl ~meta o) (Obs.to_jsonl ~meta o)

(* A to_jsonl export whose events were dropped at capacity, with meta,
   span notes and a rejection reason: the length pass must size every
   line, and the lines must be those of the tree. *)
let test_jsonl_exact_size_with_drops () =
  let e = Engine.create ~seed:1 () in
  let o = Obs.create ~event_capacity:3 e in
  Obs.set_capture o true;
  let root = Obs.start o ~kind:"route.discovery" ~node:2 ~detail:"to \"fec0::9\"" () in
  for i = 1 to 9 do
    Engine.schedule e ~delay:(0.37 *. float_of_int i) (fun () ->
        Obs.note o root ~node:i (Printf.sprintf "hop %d\t%c" i (Char.chr (i + 1)));
        Obs.log o ~node:(i - 1) ~event:"tx.rreq" ~detail:(String.make (i * 7) '\\'))
  done;
  Engine.run e;
  Obs.finish o root (Obs.Rejected "bad sig \001");
  Alcotest.(check int) "events dropped at capacity" 6 (Obs.events_dropped o);
  let meta = [ ("seed", Json.Int 5); ("label", Json.String "n\"1") ] in
  let got = Obs.to_jsonl ~meta o in
  let want = oracle_jsonl ~meta o in
  Alcotest.(check int) "exact length" (String.length want) (String.length got);
  check_lines "line" want got

(* ------------------------------------------------------------------ *)
(* The event log: Trace's one store behind the ring and the capture     *)
(* ------------------------------------------------------------------ *)

(* The two sinks as they were before they shared one store: the ring a
   bounded Queue in Trace, the capture a bounded Queue in Obs. *)
type model_sink = {
  q : Trace.entry Queue.t;
  cap : int;
  mutable on : bool;
  mutable dropped : int;
}

let model_push m (e : Trace.entry) =
  if m.on then begin
    if Queue.length m.q >= m.cap then begin
      ignore (Queue.pop m.q);
      m.dropped <- m.dropped + 1
    end;
    Queue.push e m.q
  end

type log_op =
  | Obs_log of int * string * string  (** Obs.log: both sinks *)
  | Engine_log of int * string * string  (** Engine.log: the ring only *)
  | Ring of bool
  | Capture of bool
  | Clear  (** Trace.clear *)
  | Check

let pp_log_op = function
  | Obs_log (n, ev, d) -> Printf.sprintf "obs %d %S %S" n ev d
  | Engine_log (n, ev, d) -> Printf.sprintf "engine %d %S %S" n ev d
  | Ring b -> Printf.sprintf "ring %b" b
  | Capture b -> Printf.sprintf "capture %b" b
  | Clear -> "clear"
  | Check -> "check"

(* Details mix clean text, escapes, control and high bytes, and long
   runs; most ops log, so a script stores more than two chunks. *)
let gen_log_script =
  QCheck.Gen.(
    let detail =
      oneof
        [
          string_size ~gen:printable (int_bound 24);
          string_size ~gen:(oneofl [ 'a'; '"'; '\\'; '\n'; '\001'; '\xc3'; '\xa9' ]) (int_bound 20);
          map (fun n -> String.make n 'x') (int_bound 200);
        ]
    in
    let name = oneofl [ "tx.areq"; "dad.configured"; "e"; "q\"t" ] in
    let log k = map3 (fun n ev d -> k (n, ev, d)) (int_range (-1) 40) name detail in
    let op =
      frequency
        [
          (60, log (fun (n, ev, d) -> Obs_log (n, ev, d)));
          (25, log (fun (n, ev, d) -> Engine_log (n, ev, d)));
          (2, map (fun b -> Ring b) bool);
          (2, map (fun b -> Capture b) bool);
          (1, return Clear);
          (1, return Check);
        ]
    in
    let cap = oneofl [ 1; 2; 7; 300; 1500; 5000 ] in
    let step = oneofl [ 0.0; 0.001; 0.25; 1.0 /. 3.0 ] in
    quad cap cap bool (list_size (int_range 2600 3000) (pair step op)))

let print_log_script (ring_cap, cap_cap, start_on, ops) =
  Printf.sprintf "ring capacity %d, capture capacity %d, start on %b, %d ops:\n%s" ring_cap
    cap_cap start_on (List.length ops)
    (String.concat "\n"
       (List.map (fun (dt, op) -> Printf.sprintf "+%g %s" dt (pp_log_op op)) ops))

let model_render ring =
  let buf = Buffer.create 256 in
  if ring.dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "[trace: %d oldest entries dropped at capacity %d]\n" ring.dropped
         ring.cap);
  Queue.iter (fun e -> Buffer.add_string buf (Format.asprintf "%a@." Trace.pp_entry e)) ring.q;
  Buffer.contents buf

let model_jsonl ~meta capture =
  let line (e : Trace.entry) =
    Json.to_string
      (Json.Obj
         [
           ("type", Json.String "event");
           ("t", Json.Float e.time);
           ("node", Json.Int e.node);
           ("name", Json.String e.event);
           ("detail", Json.String e.detail);
         ])
    ^ "\n"
  in
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.String Obs.schema);
          ("version", Json.Int Obs.schema_version);
          ("spans", Json.Int 0);
          ("events", Json.Int (Queue.length capture.q));
          ("events_dropped", Json.Int capture.dropped);
        ]
       @ meta))
  ^ "\n"
  ^ String.concat "" (List.map line (List.of_seq (Queue.to_seq capture.q)))

let entry_list = Alcotest.(list (pair (pair (float 0.0) int) (pair string string)))
let flat (e : Trace.entry) = ((e.time, e.node), (e.event, e.detail))

(* One script against the model, twice: through an engine and its Obs
   (the ring at its default capacity), and through a bare Trace with
   both views at the script's capacities. *)
let run_log_script (ring_cap, cap_cap, start_on, ops) =
  let fail what = QCheck.Test.fail_reportf "%s differs from the two-queue model" what in
  let same what eq a b = if not (eq a b) then fail what in
  let run ~ring_cap ~engine =
    let ring = { q = Queue.create (); cap = ring_cap; on = start_on; dropped = 0 } in
    let capture = { q = Queue.create (); cap = cap_cap; on = start_on; dropped = 0 } in
    let e = Engine.create ~seed:1 () in
    let o = Obs.create ~event_capacity:cap_cap e in
    let tr = if engine then Engine.trace e else Trace.create ~capacity:ring_cap () in
    Trace.set_capture_capacity tr cap_cap;
    let set_ring on = if on then Trace.enable tr else Trace.disable tr in
    let set_capture on = if engine then Obs.set_capture o on else Trace.set_capture tr on in
    set_ring start_on;
    set_capture start_on;
    let check () =
      let model_entries = List.of_seq (Queue.to_seq ring.q) in
      same "Trace.length" Int.equal (Trace.length tr) (Queue.length ring.q);
      same "Trace.dropped" Int.equal (Trace.dropped tr) ring.dropped;
      same "Trace.entries" ( = ) (List.map flat (Trace.entries tr)) (List.map flat model_entries);
      List.iter
        (fun tag ->
          same ("Trace.find " ^ tag) ( = )
            (List.map flat (Trace.find tr ~event:tag))
            (List.filter_map
               (fun (m : Trace.entry) -> if m.event = tag then Some (flat m) else None)
               model_entries))
        [ "e"; "tx.areq"; "absent" ];
      same "Trace.render" String.equal (Trace.render tr) (model_render ring);
      let captured = List.of_seq (Queue.to_seq capture.q) in
      if engine then begin
        same "Obs.events" ( = )
          (List.map (fun (v : Obs.event) -> ((v.time, v.node), (v.name, v.detail))) (Obs.events o))
          (List.map flat captured);
        same "Obs.events_dropped" Int.equal (Obs.events_dropped o) capture.dropped;
        let meta = [ ("seed", Json.Int 1) ] in
        same "Obs.to_jsonl" String.equal (Obs.to_jsonl ~meta o) (model_jsonl ~meta capture)
      end
      else begin
        same "Trace.fold_captured" ( = )
          (List.rev (Trace.fold_captured tr ~init:[] ~f:(fun acc v -> flat v :: acc)))
          (List.map flat captured);
        same "Trace.captured_length" Int.equal (Trace.captured_length tr)
          (Queue.length capture.q);
        same "Trace.captured_dropped" Int.equal (Trace.captured_dropped tr) capture.dropped
      end
    in
    (* Entries the store has taken; the full check also runs each time
       this crosses a chunk boundary. *)
    let stored = ref 0 in
    let store_one () =
      incr stored;
      if !stored land 1023 = 0 then check ()
    in
    let time = ref 0.0 in
    let apply = function
      | Obs_log (node, event, detail) ->
          let m = { Trace.time = !time; node; event; detail } in
          model_push ring m;
          model_push capture m;
          if engine then Obs.log o ~node ~event ~detail
          else Trace.log_shared tr ~time:!time ~node ~event ~detail;
          if ring.on || capture.on then store_one ()
      | Engine_log (node, event, detail) ->
          model_push ring { Trace.time = !time; node; event; detail };
          if engine then Engine.log e ~node ~event ~detail
          else Trace.log tr ~time:!time ~node ~event ~detail;
          if ring.on then store_one ()
      | Ring on ->
          ring.on <- on;
          set_ring on
      | Capture on ->
          capture.on <- on;
          set_capture on
      | Clear ->
          Queue.clear ring.q;
          ring.dropped <- 0;
          Trace.clear tr
      | Check -> check ()
    in
    List.iter
      (fun (dt, op) ->
        time := !time +. dt;
        Engine.schedule_at e ~time:!time (fun () -> apply op);
        Engine.run e;
        same "Trace.length" Int.equal (Trace.length tr) (Queue.length ring.q);
        same "captured length" Int.equal (Trace.captured_length tr) (Queue.length capture.q))
      ops;
    check ()
  in
  run ~ring_cap:100_000 ~engine:true;
  run ~ring_cap ~engine:false;
  true

let prop_event_log_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"event log = two-queue model"
       (QCheck.make ~print:print_log_script gen_log_script)
       run_log_script)

(* Scripts of long phases: each sets both switches, maybe clears the
   ring, then logs 500-2,500 entries, all through Obs.log or a mix with
   Engine.log.  A view switched off while it holds entries pins the
   store while the other logs on, so these runs cross the store's
   compactions, which the short toggles above seldom reach. *)
let gen_phase_script =
  QCheck.Gen.(
    let log ~mixed =
      map3
        (fun shared node detail ->
          if shared || not mixed then Obs_log (node, "e", detail)
          else Engine_log (node, "tx.areq", detail))
        bool (int_range (-1) 9)
        (oneofl [ ""; "d"; "q\"\n" ])
    in
    let phase =
      quad bool bool (frequency [ (4, return false); (1, return true) ]) bool
      >>= fun (ring, capture, clear, mixed) ->
      map
        (fun logs ->
          [ Ring ring; Capture capture ] @ (if clear then [ Clear ] else []) @ logs @ [ Check ])
        (list_size (int_range 500 2500) (log ~mixed))
    in
    let cap = oneofl [ 1; 2; 7; 300 ] in
    map3
      (fun ring_cap cap_cap phases ->
        (ring_cap, cap_cap, true, List.map (fun op -> (0.5, op)) (List.concat phases)))
      cap cap
      (list_size (int_range 4 8) phase))

let prop_event_log_phases_match_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"event log = two-queue model over long phases"
       (QCheck.make ~print:print_log_script gen_phase_script)
       run_log_script)

(* A view switched off keeps its entries; the other view logging on
   past both capacities many times over must not keep the store
   growing with it. *)
let test_store_bounded_with_view_pinned () =
  let t = Trace.create ~capacity:100 () in
  Trace.set_capture_capacity t 100;
  Trace.enable t;
  Trace.set_capture t true;
  for i = 1 to 50 do
    Trace.log_shared t ~time:(float_of_int i) ~node:i ~event:"e" ~detail:"d"
  done;
  Trace.set_capture t false;
  let words () = Obj.reachable_words (Obj.repr t) in
  let peak = ref 0 in
  for i = 51 to 50_000 do
    Trace.log_shared t ~time:(float_of_int i) ~node:i ~event:"e" ~detail:"d";
    if i land 1023 = 0 then peak := Int.max !peak (words ())
  done;
  Alcotest.(check int) "capture keeps its 50" 50 (Trace.captured_length t);
  Alcotest.(check (list int)) "capture's entries"
    (List.init 50 (fun i -> i + 1))
    (List.rev (Trace.fold_captured t ~init:[] ~f:(fun acc e -> e.node :: acc)));
  Alcotest.(check (list int)) "ring's newest 100"
    (List.init 100 (fun i -> 49_901 + i))
    (List.map (fun (e : Trace.entry) -> e.node) (Trace.entries t));
  (* A chunk is about 4,100 words; the views hold 150 entries, so the
     store spans at most 2 x 150 + 1,024 entries before it compacts,
     over at most three chunks. *)
  if !peak > 4 * 4_200 then
    Alcotest.failf "store grew to %d words with 150 entries held" !peak

(* Every Obs.t on one engine shares the engine's capture: its events,
   its switch and its capacity, which only an explicit event_capacity
   changes. *)
let test_two_obs_share_capture () =
  let e = Engine.create ~seed:1 () in
  let a = Obs.create ~event_capacity:4 e in
  Obs.set_capture a true;
  let b = Obs.create e in
  Alcotest.(check bool) "b sees a's switch" true (Obs.wants_events b);
  for i = 1 to 6 do
    Obs.log (if i mod 2 = 0 then a else b) ~node:i ~event:"e" ~detail:""
  done;
  let nodes o = List.map (fun (v : Obs.event) -> v.node) (Obs.events o) in
  Alcotest.(check (list int)) "a default create keeps capacity 4" [ 3; 4; 5; 6 ] (nodes a);
  Alcotest.(check (list int)) "b reads the same events" (nodes a) (nodes b);
  Alcotest.(check int) "two dropped" 2 (Obs.events_dropped b);
  let c = Obs.create ~event_capacity:2 e in
  Alcotest.(check (list int)) "lowering drops down to the new capacity" [ 5; 6 ] (nodes c);
  Alcotest.(check int) "four dropped" 4 (Obs.events_dropped a);
  Obs.log c ~node:7 ~event:"e" ~detail:"";
  Alcotest.(check (list int)) "and holds it" [ 6; 7 ] (nodes a);
  Obs.set_capture b false;
  Alcotest.(check bool) "b's switch is a's" false (Obs.wants_events a)

(* Allocated words (minor + major - promoted) per call of [f]. *)
let words_per_call n f =
  let minor0, promoted0, major0 = Gc.counters () in
  for _ = 1 to n do
    f ()
  done;
  let minor1, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)) /. float_of_int n

let test_log_allocation_budget () =
  (* Settle what earlier tests left behind: finishing their collection
     runs code that allocates inside a measured window. *)
  Gc.full_major ();
  let e = Engine.create ~seed:1 () in
  let o = Obs.create e in
  let detail = String.make 120 'd' in
  Alcotest.(check (float 0.0)) "both sinks off: Obs.log allocates nothing" 0.0
    (Test_crypto.minor_words_per_call 10_000 (fun () ->
         Obs.log o ~node:3 ~event:"tx.data" ~detail));
  Trace.enable (Engine.trace e);
  Obs.set_capture o true;
  let per_event =
    words_per_call 10_000 (fun () -> Obs.log o ~node:3 ~event:"tx.data" ~detail)
  in
  Alcotest.(check int) "every event stored" 10_000 (List.length (Obs.events o));
  if per_event > 5.0 then
    Alcotest.failf "both sinks on: %.2f words per event (budget 5)" per_event

(* ------------------------------------------------------------------ *)
(* The length pass's helpers against the renderings they size          *)
(* ------------------------------------------------------------------ *)

(* Strings of every escaping class, with lengths around the 7-byte scan
   window the escaper reads 8 bytes at a time for. *)
let gen_escape_string =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (8, printable);
             (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\001'; '\031'; '\127' ]);
             (2, map Char.chr (int_range 0x80 0xff));
           ])
      (oneof [ int_bound 24; int_range 6 9; int_range 13 16; int_bound 300 ]))

let prop_escaped_length =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2_000 ~name:"json: escaped_length = rendered length"
       (QCheck.make ~print:(Printf.sprintf "%S") gen_escape_string)
       (fun s -> Json.escaped_length s = String.length (Json.to_string (Json.String s))))

let prop_float_length =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20_000 ~name:"json: float_length = rendered length"
       (QCheck.make ~print:(Printf.sprintf "%h") Float_cases.draw)
       (fun x -> Json.float_length x = String.length (Json.float_str x)))

let test_int_length () =
  List.iter
    (fun n ->
      Alcotest.(check int) (string_of_int n) (String.length (string_of_int n)) (Json.int_length n))
    [ 0; 1; 9; 10; 99; 100; -1; -9; -10; 123_456_789; max_int; min_int; min_int + 1 ]

(* The windowed metrics as a model: cell (name, node, window) -> counter
   total, or the [| count; sum; min; max |] of a series. *)
let oracle_metrics ~window ~stats script =
  let counters = Hashtbl.create 16 and series = Hashtbl.create 16 in
  let add name node w = function
    | `By by ->
        let r = Option.value (Hashtbl.find_opt counters (name, node, w)) ~default:0 in
        Hashtbl.replace counters (name, node, w) (r + by)
    | `Sample x -> (
        match Hashtbl.find_opt series (name, node, w) with
        | None -> Hashtbl.replace series (name, node, w) [| 1.0; x; x; x |]
        | Some a ->
            a.(0) <- a.(0) +. 1.0;
            a.(1) <- a.(1) +. x;
            if x < a.(2) then a.(2) <- x;
            if x > a.(3) then a.(3) <- x)
  in
  List.iter
    (fun (t, node, name, v) ->
      let w = int_of_float (t /. window) in
      add name node w v;
      if node <> -1 then add name (-1) w v)
    script;
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun ((na, ia, wa), _) ((nb, ib, wb), _) ->
           match String.compare na nb with
           | 0 -> ( match Int.compare ia ib with 0 -> Int.compare wa wb | c -> c)
           | c -> c)
  in
  let ws w = Json.float_str (float_of_int w *. window) in
  let fs = Json.float_str in
  let csv = Buffer.create 1024 and prom = Buffer.create 1024 in
  Buffer.add_string csv "kind,name,node,window,count,mean,stddev,min,max\n";
  Printf.bprintf prom "# manetsim windowed metrics, window=%ss\n" (fs window);
  Buffer.add_string prom "# TYPE manetsim_counter gauge\n";
  List.iter
    (fun ((name, node, w), r) ->
      Printf.bprintf csv "counter,%s,%d,%s,%d,,,,\n" name node (ws w) r;
      Printf.bprintf prom "manetsim_counter{name=%S,node=\"%d\",window=%S} %d\n"
        name node (ws w) r)
    (sorted counters);
  let series = sorted series in
  List.iter
    (fun ((name, node, w), a) ->
      Printf.bprintf csv "series,%s,%d,%s,%d,%s,,%s,%s\n" name node (ws w)
        (int_of_float a.(0))
        (fs (a.(1) /. a.(0)))
        (fs a.(2)) (fs a.(3)))
    series;
  List.iter
    (fun (field, value) ->
      Printf.bprintf prom "# TYPE manetsim_series_%s gauge\n" field;
      List.iter
        (fun ((name, node, w), a) ->
          Printf.bprintf prom "manetsim_series_%s{name=%S,node=\"%d\",window=%S} %s\n"
            field name node (ws w) (value a))
        series)
    [
      ("count", fun a -> string_of_int (int_of_float a.(0)));
      ("sum", fun a -> fs a.(1));
      ("min", fun a -> fs a.(2));
      ("max", fun a -> fs a.(3));
    ];
  List.iter
    (fun (name, v) -> Printf.bprintf csv "stat_counter,%s,,,%d,,,,\n" name v)
    (Stats.counters stats);
  List.iter
    (fun (name, s) ->
      Printf.bprintf csv "stat_summary,%s,,,%d,%s,%s,%s,%s\n" name s.Stats.count
        (fs s.Stats.mean) (fs s.Stats.stddev) (fs s.Stats.min) (fs s.Stats.max))
    (Stats.summaries stats);
  Buffer.add_string prom "# TYPE manetsim_stat_total counter\n";
  List.iter
    (fun (name, v) -> Printf.bprintf prom "manetsim_stat_total{name=%S} %d\n" name v)
    (Stats.counters stats);
  Buffer.add_string prom "# TYPE manetsim_stat_summary gauge\n";
  List.iter
    (fun (name, s) ->
      List.iter
        (fun (f, v) ->
          Printf.bprintf prom "manetsim_stat_summary{name=%S,field=%S} %s\n" name f v)
        [
          ("count", string_of_int s.Stats.count);
          ("mean", fs s.Stats.mean);
          ("stddev", fs s.Stats.stddev);
          ("min", fs s.Stats.min);
          ("max", fs s.Stats.max);
        ])
    (Stats.summaries stats);
  (Buffer.contents csv, Buffer.contents prom)

let metric_names = [| "tx.data"; "rx.\"q\""; "lat\\ms"; "a\nb"; "z" |]

let gen_metric_script =
  QCheck.Gen.(
    pair
      (oneofl [ 0.1; 0.25; 1.0; 2.5 ])
      (list_size (int_bound 60)
         (map
            (fun (t, node, name, by, x) ->
              let v = if by = 0 then `Sample x else `By by in
              (t, node, metric_names.(name), v))
            (tup5 (float_bound_exclusive 20.0) (int_range (-1) 3)
               (int_bound (Array.length metric_names - 1))
               (int_bound 3)
               (oneof [ float_range (-5.0) 5.0; map float_of_int (int_range (-9) 9) ])))))

let prop_metrics_writers_match_printf =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"metrics: csv/prom rows = printf renderings"
       (QCheck.make gen_metric_script)
       (fun (window, script) ->
         let e = Engine.create ~seed:1 () in
         let m = Metrics.create ~window e in
         Metrics.set_enabled m true;
         let stats = Stats.create () in
         List.iter
           (fun (t, node, name, v) ->
             Engine.schedule e ~delay:t (fun () ->
                 match v with
                 | `By by ->
                     let k = Stats.key name in
                     Metrics.record m ~node ~by k;
                     Stats.add stats k by
                 | `Sample x ->
                     let k = Stats.key name in
                     Metrics.observe m ~node k x;
                     Stats.observe stats k x))
           script;
         Engine.run e;
         (* The model sees each record at the time the engine ran it. *)
         let script =
           List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> Float.compare a b) script
         in
         let csv, prom = oracle_metrics ~window ~stats script in
         String.equal csv (Metrics.to_csv ~stats m)
         && String.equal prom (Metrics.to_prom ~stats m)))

(* ------------------------------------------------------------------ *)
(* Scenario-level: parenting, determinism, report                      *)
(* ------------------------------------------------------------------ *)

let small_params =
  {
    Scenario.default_params with
    n = 8;
    seed = 3;
    topology = Scenario.Random { width = 600.0; height = 600.0 };
  }

(* One full run: bootstrap, a forced outage (re-DAD), CBR traffic. *)
let run_once ?(params = small_params) ?(profile = false) () =
  let s = Scenario.create params in
  Obs.set_capture (Scenario.obs s) true;
  if profile then Engine.set_profiling (Scenario.engine s) true;
  Scenario.bootstrap s;
  let t0 = Engine.now (Scenario.engine s) in
  Scenario.inject s (Faults.outage ~from:(t0 +. 1.0) ~until:(t0 +. 6.0) 3);
  Scenario.start_cbr s ~flows:[ (1, 5); (2, 6) ] ~interval:0.5 ~duration:10.0 ();
  Scenario.run s ~until:(t0 +. 20.0);
  s

let jsonl_of s =
  Obs.to_jsonl ~meta:[ ("seed", Json.Int (Scenario.params s).Scenario.seed ) ]
    (Scenario.obs s)

let test_jsonl_byte_determinism () =
  let a = jsonl_of (run_once ()) in
  let b = jsonl_of (run_once ()) in
  Alcotest.(check bool) "replay is byte-identical" true (String.equal a b);
  (* Wall-clock profiling must not leak into the deterministic export. *)
  let c = jsonl_of (run_once ~profile:true ()) in
  Alcotest.(check bool) "profiling changes no byte" true (String.equal a c)

(* A whole run's export, line by line, against the tree rendering. *)
let test_scenario_jsonl_matches_tree () =
  let s = run_once () in
  let meta = [ ("seed", Json.Int (Scenario.params s).Scenario.seed) ] in
  check_lines "line" (oracle_jsonl ~meta (Scenario.obs s)) (jsonl_of s)

let test_causal_parenting () =
  let s = run_once () in
  let parsed = Report.parse_jsonl (jsonl_of s) in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun i -> Hashtbl.replace by_id i.Report.i_id i)
    parsed.Report.spans;
  let parent_kind i =
    match i.Report.i_parent with
    | None -> None
    | Some p ->
        Option.map (fun pi -> pi.Report.i_kind) (Hashtbl.find_opt by_id p)
  in
  let count = ref 0 in
  (* Every responder span must hang off the flood that caused it. *)
  List.iter
    (fun i ->
      match i.Report.i_kind with
      | "dns.registration" | "dns.drep" | "dad.arep" ->
          incr count;
          Alcotest.(check (option string))
            (i.Report.i_kind ^ " parented to the AREQ flood")
            (Some "dad.flood") (parent_kind i)
      | "route.rrep" | "route.crep" ->
          incr count;
          Alcotest.(check (option string))
            (i.Report.i_kind ^ " parented to the RREQ flood")
            (Some "rreq.flood") (parent_kind i)
      | "dad.flood" ->
          incr count;
          Alcotest.(check (option string)) "flood under its bootstrap"
            (Some "dad.bootstrap") (parent_kind i)
      | _ -> ())
    parsed.Report.spans;
  Alcotest.(check bool) "invariant exercised" true (!count > 10);
  (* The outage produced a re-DAD whose bootstrap hangs off the outage. *)
  let re_dad =
    List.filter
      (fun i ->
        i.Report.i_kind = "dad.bootstrap" && parent_kind i = Some "fault.outage")
      parsed.Report.spans
  in
  Alcotest.(check int) "one re-DAD parented to its outage" 1 (List.length re_dad);
  match re_dad with
  | [ i ] ->
      Alcotest.(check int) "on the crashed node" 3 i.Report.i_node;
      Alcotest.(check (option string)) "recovered" (Some "ok") i.Report.i_outcome
  | _ -> ()

let test_arep_on_collision () =
  (* Give the joiner node 1's address before bootstrap: node 1 must
     answer the joiner's AREQ flood with an AREP parented to it. *)
  let params = { small_params with seed = 5 } in
  let s = Scenario.create params in
  Obs.set_capture (Scenario.obs s) true;
  let n = params.Scenario.n in
  let victim = Scenario.address_of s 1 in
  let joiner = Scenario.node s (n - 1) in
  let dir = joiner.Scenario.ctx.Manetsec.Proto.Node_ctx.directory in
  Directory.unregister dir (Scenario.address_of s (n - 1)) (n - 1);
  joiner.Scenario.identity.Identity.address <- victim;
  Directory.register dir victim (n - 1);
  Scenario.bootstrap s;
  let parsed = Report.parse_jsonl (jsonl_of s) in
  let by_id = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace by_id i.Report.i_id i) parsed.Report.spans;
  let areps =
    List.filter (fun i -> i.Report.i_kind = "dad.arep") parsed.Report.spans
  in
  Alcotest.(check bool) "an AREP span exists" true (areps <> []);
  List.iter
    (fun i ->
      match i.Report.i_parent with
      | Some p ->
          Alcotest.(check (option string)) "AREP under the colliding flood"
            (Some "dad.flood")
            (Option.map
               (fun pi -> pi.Report.i_kind)
               (Hashtbl.find_opt by_id p))
      | None -> Alcotest.fail "AREP span has no parent")
    areps;
  (* The colliding flood attempt was rejected with the typed reason. *)
  let rejected =
    List.exists
      (fun i ->
        i.Report.i_kind = "dad.flood"
        && i.Report.i_outcome = Some "rejected"
        && i.Report.i_reason = Some "address collision")
      parsed.Report.spans
  in
  Alcotest.(check bool) "collision rejection recorded" true rejected

let test_run_report_shape () =
  let s = run_once ~profile:true () in
  let j =
    Report.run_report ~engine:(Scenario.engine s) ~obs:(Scenario.obs s)
      ~extra:[ ("seed", Json.Int 3) ]
      ()
  in
  let get path =
    List.fold_left
      (fun acc field ->
        match acc with Some v -> Json.member field v | None -> None)
      (Some j) path
  in
  Alcotest.(check (option string)) "schema"
    (Some Report.report_schema)
    (Option.bind (get [ "schema" ]) Json.to_string_opt);
  Alcotest.(check bool) "span aggregates present" true
    (get [ "span_aggregates"; "dad.bootstrap" ] <> None);
  Alcotest.(check bool) "phases present" true
    (get [ "phases"; "dad.convergence" ] <> None);
  Alcotest.(check bool) "re-dad phase measured" true
    (Option.bind (get [ "phases"; "re_dad.convergence"; "count" ])
       Json.to_int_opt
    = Some 1);
  Alcotest.(check (option bool)) "profile enabled"
    (Some true)
    (Option.bind (get [ "profile"; "enabled" ])
       (function Json.Bool b -> Some b | _ -> None));
  Alcotest.(check bool) "profiled classes include fault" true
    (get [ "profile"; "classes"; "fault" ] <> None);
  (* The report is itself valid JSON (reparse need not be bit-equal:
     wall-clock floats go through the 12-digit canonical formatter). *)
  let reparsed = Json.parse (Json.to_string j) in
  Alcotest.(check (option string)) "report reparses with same schema"
    (Some Report.report_schema)
    (Option.bind (Json.member "schema" reparsed) Json.to_string_opt)

let test_parse_jsonl_rejects () =
  let good = jsonl_of (run_once ()) in
  let bad =
    match Report.parse_jsonl good with
    | exception Json.Parse_error _ -> fun _ -> true
    | (_ : Report.parsed) ->
        fun text ->
          (match Report.parse_jsonl text with
          | (_ : Report.parsed) -> false
          | exception Json.Parse_error _ -> true)
  in
  Alcotest.(check bool) "empty input" true (bad "");
  Alcotest.(check bool) "wrong schema" true
    (bad {|{"schema":"other","version":1}|});
  Alcotest.(check bool) "future version" true
    (bad (Printf.sprintf {|{"schema":"%s","version":%d}|} Obs.schema
            (Obs.schema_version + 1)));
  Alcotest.(check bool) "garbage line" true
    (bad
       (Printf.sprintf {|{"schema":"%s","version":%d}|} Obs.schema
          Obs.schema_version
       ^ "\nnot json\n"))

let test_renderers () =
  let s = run_once () in
  let parsed = Report.parse_jsonl (jsonl_of s) in
  let tree = Report.render_tree parsed in
  (* A child renders indented directly under its parent: find the first
     dad.bootstrap line and check the next line is its indented flood. *)
  let lines = String.split_on_char '\n' tree in
  let rec scan = function
    | a :: b :: _
      when String.length a > 2
           && a.[0] = '#'
           && (match String.index_opt a ' ' with
              | Some i ->
                  String.length a > i + 13
                  && String.sub a (i + 1) 13 = "dad.bootstrap"
              | None -> false) ->
        Alcotest.(check string) "child indented under parent" "  #"
          (String.sub b 0 3)
    | _ :: tl -> scan tl
    | [] -> Alcotest.fail "no dad.bootstrap root in tree"
  in
  scan lines;
  let phases = Report.render_phases parsed in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " row present") true
        (let rec has i =
           i + String.length name <= String.length phases
           && (String.sub phases i (String.length name) = name || has (i + 1))
         in
         has 0))
    Report.phase_names;
  let top = Report.render_top ~k:3 parsed in
  Alcotest.(check int) "top-k line count" 3
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' top)))

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "obs",
      [
        tc "span lifecycle" test_span_lifecycle;
        tc "correlation registry" test_correlation_registry;
        tc "event capture ring" test_event_capture_ring;
        tc "json roundtrip" test_json_roundtrip;
        tc "json parse errors" test_json_parse_errors;
        tc "json float canonical" test_json_float_canonical;
        tc "json non-finite rejected" test_json_nonfinite_rejected;
        tc "json float pinned bytes" test_json_float_pinned;
        tc "json escape pinned bytes" test_json_escape_pinned;
        prop_json_string_roundtrip;
        prop_float_str_matches_printf;
        tc "jsonl writers = json tree" test_jsonl_writers_match_tree;
        tc "scenario jsonl = json tree" test_scenario_jsonl_matches_tree;
        tc "jsonl exact size with drops" test_jsonl_exact_size_with_drops;
        prop_event_log_matches_model;
        prop_event_log_phases_match_model;
        tc "store bounded with a view pinned" test_store_bounded_with_view_pinned;
        tc "two obs share the capture" test_two_obs_share_capture;
        tc "log allocation budget" test_log_allocation_budget;
        prop_escaped_length;
        prop_float_length;
        tc "json int_length" test_int_length;
        prop_metrics_writers_match_printf;
        tc "jsonl byte determinism" test_jsonl_byte_determinism;
        tc "causal parenting" test_causal_parenting;
        tc "arep on collision" test_arep_on_collision;
        tc "run report shape" test_run_report_shape;
        tc "parse rejects bad input" test_parse_jsonl_rejects;
        tc "renderers" test_renderers;
      ] );
  ]
