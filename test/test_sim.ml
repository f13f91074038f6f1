(* Tests for the discrete-event simulator substrate. *)

module Prng = Manet_crypto.Prng
module Heap = Manet_sim.Heap
module Stats = Manet_sim.Stats
module Trace = Manet_sim.Trace
module Engine = Manet_sim.Engine
module Topology = Manet_sim.Topology
module Mobility = Manet_sim.Mobility
module Net = Manet_sim.Net
module Hist = Manet_sim.Hist

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

(* Read-then-drop against the SoA accessors, as the engine does. *)
let pop h =
  if Heap.is_empty h then None
  else begin
    let p = Heap.min_prio h and v = Heap.min_snd h in
    Heap.drop_min h;
    Some (p, v)
  end

let test_heap_basic () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 3.0 0 () "c";
  Heap.push h 1.0 1 () "a";
  Heap.push h 2.0 2 () "b";
  Alcotest.(check (pair (float 0.0) string)) "peek" (1.0, "a")
    (Heap.min_prio h, Heap.min_snd h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop a" (Some (1.0, "a")) (pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop b" (Some (2.0, "b")) (pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop c" (Some (3.0, "c")) (pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop empty" None (pop h);
  Alcotest.check_raises "min_prio on empty"
    (Invalid_argument "Heap.min_prio: empty heap") (fun () ->
      ignore (Heap.min_prio h));
  Alcotest.check_raises "replace_min on empty"
    (Invalid_argument "Heap.replace_min: empty heap") (fun () ->
      Heap.replace_min h 1.0 0)

(* Equal priorities pop by sequence number, whatever order they were
   pushed in. *)
let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v () v) [ 3; 1; 5; 2; 4 ];
  let order = List.init 5 (fun _ -> match pop h with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "sequence order among ties" [ 1; 2; 3; 4; 5 ] order

let prop_heap_sorts =
  qtest "heap: pops in sorted order"
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun floats ->
      let h = Heap.create () in
      List.iteri (fun i f -> Heap.push h f i () ()) floats;
      let rec drain acc =
        match pop h with None -> List.rev acc | Some (p, ()) -> drain (p :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare floats)

let test_heap_interleaved () =
  (* push/pop interleaving exercises sift-down from mid-states *)
  let h = Heap.create () in
  let g = Prng.create ~seed:5 in
  let reference = ref [] in
  for i = 1 to 1000 do
    if Test_crypto.coin g || !reference = [] then begin
      let p = Prng.float g 100.0 in
      Heap.push h p i () ();
      reference := List.merge compare [ p ] !reference
    end
    else begin
      match (pop h, !reference) with
      | Some (p, ()), r :: rest ->
          Alcotest.(check (float 0.0)) "min matches" r p;
          reference := rest
      | _ -> Alcotest.fail "heap/reference disagree on emptiness"
    end
  done

(* A model of the queue: entries ordered by (priority, seq).  Few
   distinct priorities make ties common, and push-biased runs of up to
   600 operations grow the heap through several capacity doublings
   while pops keep freeing slots for reuse.  A push's seq is drawn out
   of order ([block * 4096 + index], the index unique), as a frame's
   receivers carry seqs sorted by time, not by insertion.  A
   [replace_min] re-keys the minimum to a key no smaller: the same
   priority with a larger seq, or a larger priority with any seq, as a
   frame moves on to its next receiver.  Each payload half names its
   entry's insertion index, so a slot mix-up between [min_fst] and
   [min_snd] shows, and a replace must keep the payload. *)
let prop_heap_model =
  qtest ~count:300 "heap: push/drop_min match a (prio, seq) model, with replace_min"
    QCheck.(list_of_size Gen.(int_range 0 600) (pair (int_bound 6) (int_bound 3)))
    (fun ops ->
      let h = Heap.create () in
      let rec insert e = function
        | [] -> [ e ]
        | x :: rest as l -> if compare e x < 0 then e :: l else x :: insert e rest
      in
      let agrees model =
        match model with
        | [] -> Heap.is_empty h
        | (p, _, i) :: _ ->
            Heap.min_prio h = p && Heap.min_fst h = i
            && Heap.min_snd h = string_of_int i
      in
      let step (model, next) (op, block) =
        let fresh = (block * 4096) + next in
        if op < 4 then begin
          let p = float_of_int op in
          Heap.push h p fresh next (string_of_int next);
          (insert (p, fresh, next) model, next + 1)
        end
        else
          match model with
          | [] -> (model, next + 1)
          | (p, q, i) :: rest when op = 5 ->
              let p', q' =
                if block land 1 = 0 then (p, (((q / 4096) + 1 + block) * 4096) + next)
                else (p +. float_of_int block, fresh)
              in
              Heap.replace_min h p' q';
              (insert (p', q', i) rest, next + 1)
          | _ :: rest ->
              Heap.drop_min h;
              (rest, next + 1)
      in
      let drain = List.init (List.length ops) (fun _ -> (6, 0)) in
      let rec go state = function
        | [] -> true
        | op :: rest ->
            let state = step state op in
            agrees (fst state) && go state rest
      in
      go ([], 0) (ops @ drain))

(* A smaller key (or a NaN priority) would break the heap order for
   every later sift, so [replace_min] refuses it. *)
let test_heap_replace_min_refuses_smaller () =
  let h = Heap.create () in
  Heap.push h 2.0 5 () ();
  Heap.push h 3.0 6 () ();
  let refused p q =
    Alcotest.check_raises (Printf.sprintf "(%g, %d)" p q)
      (Invalid_argument "Heap.replace_min: smaller key") (fun () ->
        Heap.replace_min h p q)
  in
  refused 1.0 9;
  refused 2.0 4;
  refused Float.nan 9;
  Heap.replace_min h 2.0 5;
  Heap.replace_min h 4.0 0;
  Alcotest.(check (float 0.0)) "re-keyed root sank below the other" 3.0
    (Heap.min_prio h)

(* A popped payload must not stay reachable from its free slot until a
   later push reuses it: the engine's closures hold whole messages.
   (The first payload ever pushed stays, as the free-slot filler.) *)
let test_heap_releases_popped () =
  let h = Heap.create () in
  let w = Weak.create 2 in
  let push_tracked i prio =
    let v = ref i in
    Weak.set w i (Some v);
    Heap.push h prio i () v
  in
  Heap.push h 0.0 (-1) () (ref (-1));
  push_tracked 0 1.0;
  push_tracked 1 2.0;
  Heap.push h 3.0 2 () (ref 2);
  for _ = 1 to 3 do
    Heap.drop_min h
  done;
  Gc.full_major ();
  Alcotest.(check (list bool)) "popped payloads collected" [ false; false ]
    [ Weak.check w 0; Weak.check w 1 ];
  Alcotest.(check int) "live entry kept" 2 !(Heap.min_snd h)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

(* Keys of the counters and series below. *)
let k_x = Stats.key "x"
let k_y = Stats.key "y"
let k_v = Stats.key "v"

let test_stats_counters () =
  let s = Stats.create () in
  Alcotest.(check int) "missing is 0" 0 (Stats.get s "x");
  Stats.incr s k_x;
  Stats.add s k_x 4;
  Stats.incr s k_y;
  Alcotest.(check int) "x" 5 (Stats.get s "x");
  Alcotest.(check (list (pair string int))) "sorted" [ ("x", 5); ("y", 1) ] (Stats.counters s)

let test_stats_summary () =
  let s = Stats.create () in
  Alcotest.(check bool) "missing summary" true (Stats.summary s "lat" = None);
  List.iter (Stats.observe s (Stats.key "lat")) [ 1.0; 2.0; 3.0; 4.0 ];
  match Stats.summary s "lat" with
  | None -> Alcotest.fail "expected summary"
  | Some sm ->
      Alcotest.(check int) "count" 4 sm.Stats.count;
      Alcotest.(check (float 1e-9)) "mean" 2.5 sm.Stats.mean;
      Alcotest.(check (float 1e-9)) "min" 1.0 sm.Stats.min;
      Alcotest.(check (float 1e-9)) "max" 4.0 sm.Stats.max;
      (* sample stddev of 1,2,3,4 = sqrt(5/3) *)
      Alcotest.(check (float 1e-9)) "stddev" (sqrt (5.0 /. 3.0)) sm.Stats.stddev

(* The sorted-output contract of Stats.counters / Stats.summaries
   (stats.mli): insertion order must never leak through, because the
   byte-determinism of every exporter built on these lists depends on
   it.  Names are inserted in an order chosen to disagree with byte
   order, across enough keys to force Hashtbl resizes. *)
let prop_stats_output_sorted =
  qtest ~count:50 "stats: counters and summaries sorted regardless of insertion"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (int_bound 500))
    (fun keys ->
      let s = Stats.create () in
      List.iter
        (fun k ->
          let key = Stats.key (Printf.sprintf "k%03d" k) in
          Stats.incr s key;
          Stats.observe s key (float_of_int k))
        keys;
      let is_sorted names =
        List.equal String.equal (List.sort String.compare names) names
      in
      is_sorted (List.map fst (Stats.counters s))
      && is_sorted (List.map fst (Stats.summaries s)))

let prop_stats_welford =
  qtest ~count:100 "stats: welford mean matches direct sum"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.observe s k_v) xs;
      match Stats.summary s "v" with
      | None -> false
      | Some sm ->
          let direct = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
          abs_float (sm.Stats.mean -. direct) < 1e-6)

let test_stats_percentiles_exact () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.observe s k_v (float_of_int i)
  done;
  let p q = Option.get (Stats.percentile s "v" q) in
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (p 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 100.0 (p 1.0);
  Alcotest.(check (float 1.01)) "median" 50.5 (p 0.5);
  Alcotest.(check (float 1.01)) "p95" 95.0 (p 0.95);
  Alcotest.(check bool) "missing name" true (Stats.percentile s "nope" 0.5 = None);
  Alcotest.check_raises "bad q" (Invalid_argument "Stats.percentile: q outside [0,1]")
    (fun () -> ignore (Stats.percentile s "v" 1.5))

let test_stats_percentiles_reservoir () =
  (* Beyond the reservoir cap the estimate stays in the right ballpark. *)
  let s = Stats.create () in
  for i = 1 to 50_000 do
    Stats.observe s k_v (float_of_int (i mod 1000))
  done;
  match Stats.percentile s "v" 0.5 with
  | Some p -> Alcotest.(check bool) "median near 500" true (p > 350.0 && p < 650.0)
  | None -> Alcotest.fail "no percentile"

(* Below the 1024-slot reservoir cap the estimator must be *exact*: the
   nearest-rank order statistic sorted.(round (q * (n-1))), bit-for-bit. *)
let prop_percentile_exact_below_cap =
  qtest ~count:300 "stats: percentile exact below reservoir cap"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 1023) (float_bound_exclusive 1000.0))
        (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let s = Stats.create () in
      List.iter (Stats.observe s k_v) xs;
      let sorted = Array.of_list xs in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      let idx = int_of_float (Float.round (q *. float_of_int (n - 1))) in
      Stats.percentile s "v" q = Some sorted.(idx))

(* Beyond the cap the reservoir is a random sample, but its RNG is a
   private LCG seeded from the stat name — so a fixed observation
   sequence must give a bit-identical estimate on every run. *)
let prop_percentile_reservoir_deterministic =
  qtest ~count:30 "stats: reservoir estimate deterministic for fixed sequence"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let mk () =
        let s = Stats.create () in
        let g = Prng.create ~seed in
        for _ = 1 to 3000 do
          Stats.observe s k_v (Prng.float g 100.0)
        done;
        s
      in
      let a = mk () and b = mk () in
      List.for_all
        (fun q -> Stats.percentile a "v" q = Stats.percentile b "v" q)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ])

let prop_percentile_out_of_range =
  qtest ~count:100 "stats: percentile rejects q outside [0,1]"
    QCheck.(float_bound_exclusive 50.0)
    (fun d ->
      let s = Stats.create () in
      Stats.observe s k_v 1.0;
      let bad q =
        match Stats.percentile s "v" q with
        | (_ : float option) -> false
        | exception Invalid_argument _ -> true
      in
      QCheck.assume (d > 0.0);
      bad (1.0 +. d) && bad (-.d))

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

(* The ring's reads, through [Trace.entries] and the drop-count header
   of [Trace.render]. *)
let trace_length t = List.length (Trace.entries t)

let trace_find t ~event =
  List.filter (fun e -> String.equal e.Trace.event event) (Trace.entries t)

let trace_dropped t =
  let r = Trace.render t in
  if String.starts_with ~prefix:"[trace: " r then
    Scanf.sscanf r "[trace: %d oldest" Fun.id
  else 0

let test_trace_disabled_by_default () =
  let t = Trace.create () in
  Trace.log t ~time:1.0 ~node:0 ~event:"e" ~detail:"d";
  Alcotest.(check int) "nothing recorded" 0 (trace_length t)

let test_trace_record_and_find () =
  let t = Trace.create () in
  Trace.enable t;
  Trace.log t ~time:1.0 ~node:0 ~event:"areq" ~detail:"first";
  Trace.log t ~time:2.0 ~node:1 ~event:"arep" ~detail:"second";
  Trace.log t ~time:3.0 ~node:2 ~event:"areq" ~detail:"third";
  Alcotest.(check int) "length" 3 (trace_length t);
  let areqs = trace_find t ~event:"areq" in
  Alcotest.(check int) "two areqs" 2 (List.length areqs);
  Alcotest.(check string) "order" "first" (List.hd areqs).Trace.detail

let test_trace_capacity () =
  let t = Trace.create ~capacity:3 () in
  Trace.enable t;
  for i = 1 to 5 do
    Trace.log t ~time:(float_of_int i) ~node:0 ~event:"e" ~detail:(string_of_int i)
  done;
  let details = List.map (fun e -> e.Trace.detail) (Trace.entries t) in
  Alcotest.(check (list string)) "keeps newest" [ "3"; "4"; "5" ] details

let test_trace_dropped () =
  let t = Trace.create ~capacity:3 () in
  Trace.enable t;
  Alcotest.(check int) "no drops yet" 0 (trace_dropped t);
  for i = 1 to 5 do
    Trace.log t ~time:(float_of_int i) ~node:0 ~event:"e" ~detail:(string_of_int i)
  done;
  Alcotest.(check int) "two drops counted" 2 (trace_dropped t);
  let rendered = Trace.render t in
  Alcotest.(check bool) "render reports drops" true
    (String.length rendered > 0
    && String.sub rendered 0 8 = "[trace: ");
  Trace.clear t;
  Alcotest.(check int) "clear resets drops" 0 (trace_dropped t);
  Trace.log t ~time:1.0 ~node:0 ~event:"e" ~detail:"x";
  Alcotest.(check bool) "no header below capacity" true
    (String.sub (Trace.render t) 0 1 <> "[")

let test_trace_capacity_one () =
  let t = Trace.create ~capacity:1 () in
  Trace.enable t;
  for i = 1 to 4 do
    Trace.log t ~time:(float_of_int i) ~node:0 ~event:"e" ~detail:(string_of_int i)
  done;
  Alcotest.(check int) "length stays 1" 1 (trace_length t);
  Alcotest.(check int) "three dropped" 3 (trace_dropped t);
  Alcotest.(check (list string)) "newest survives" [ "4" ]
    (List.map (fun e -> e.Trace.detail) (Trace.entries t));
  (* find scans the ring: dropped entries are gone from it too. *)
  Alcotest.(check int) "find follows ring drops" 1
    (List.length (trace_find t ~event:"e"))

let test_trace_drops_across_clear () =
  let t = Trace.create ~capacity:2 () in
  Trace.enable t;
  for i = 1 to 5 do
    Trace.log t ~time:(float_of_int i) ~node:0 ~event:"e" ~detail:(string_of_int i)
  done;
  Alcotest.(check int) "drops before clear" 3 (trace_dropped t);
  Trace.clear t;
  Alcotest.(check int) "clear resets the counter" 0 (trace_dropped t);
  Alcotest.(check int) "clear empties the buffer" 0 (trace_length t);
  Alcotest.(check int) "find empty after clear" 0
    (List.length (trace_find t ~event:"e"));
  for i = 1 to 3 do
    Trace.log t ~time:(float_of_int i) ~node:0 ~event:"e" ~detail:(string_of_int i)
  done;
  Alcotest.(check int) "counting resumes from zero" 1 (trace_dropped t)

let test_trace_render_header_gated_on_drops () =
  let t = Trace.create ~capacity:3 () in
  Trace.enable t;
  Trace.log t ~time:1.0 ~node:0 ~event:"e" ~detail:"x";
  Alcotest.(check bool) "no header without drops" true
    (String.sub (Trace.render t) 0 1 <> "[");
  Trace.log t ~time:2.0 ~node:0 ~event:"e" ~detail:"y";
  Trace.log t ~time:3.0 ~node:0 ~event:"e" ~detail:"z";
  Trace.log t ~time:4.0 ~node:0 ~event:"e" ~detail:"w";
  Alcotest.(check string) "header once dropping" "[trace: "
    (String.sub (Trace.render t) 0 8)

let test_trace_disabled_noop () =
  let t = Trace.create ~capacity:2 () in
  for i = 1 to 10 do
    Trace.log t ~time:(float_of_int i) ~node:0 ~event:"e" ~detail:"d"
  done;
  Alcotest.(check bool) "disabled" false (Trace.is_enabled t);
  Alcotest.(check int) "no entries" 0 (trace_length t);
  Alcotest.(check int) "no drops either" 0 (trace_dropped t);
  Alcotest.(check string) "render sees nothing" "" (Trace.render t)

let test_trace_entries_render_after_wrap () =
  (* After ring wraparound, entries and render keep the newest
     entries, oldest first. *)
  let t = Trace.create ~capacity:4 () in
  Trace.enable t;
  for i = 1 to 10 do
    let event = if i mod 2 = 0 then "even" else "odd" in
    Trace.log t ~time:(float_of_int i) ~node:0 ~event ~detail:(string_of_int i)
  done;
  let entries = Trace.entries t in
  Alcotest.(check (list string)) "entries keep the newest, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun e -> e.Trace.detail) entries);
  (* render folds the same ring: after the drop header, one line per
     entry in the same order. *)
  Alcotest.(check (list string)) "render = entries, oldest first"
    (List.map (fun e -> Format.asprintf "%a" Trace.pp_entry e) entries)
    (match String.split_on_char '\n' (Trace.render t) with
    | _header :: lines -> List.filter (fun l -> l <> "") lines
    | [] -> [])

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let e = Engine.create ~seed:1 () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e);
  Alcotest.(check int) "processed" 3 (Engine.events_processed e)

let test_engine_nested_scheduling () =
  let e = Engine.create ~seed:1 () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      Engine.schedule e ~delay:1.0 (fun () ->
          incr count;
          chain (n - 1))
  in
  chain 10;
  Engine.run e;
  Alcotest.(check int) "all fired" 10 !count;
  Alcotest.(check (float 1e-9)) "time advanced" 10.0 (Engine.now e)

let test_engine_until () =
  let e = Engine.create ~seed:1 () in
  let fired = ref [] in
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> fired := d :: !fired))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.run ~until:2.5 e;
  Alcotest.(check (list (float 1e-9))) "only early events" [ 1.0; 2.0 ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.5 (Engine.now e);
  Alcotest.(check int) "rest pending" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  Alcotest.(check (list (float 1e-9))) "all events" [ 1.0; 2.0; 3.0; 4.0 ] (List.rev !fired)

(* A horizon behind the clock must not rewind it: an event scheduled
   after such a run fires after everything that already ran. *)
let test_engine_until_monotone () =
  let e = Engine.create ~seed:1 () in
  let fired = ref [] in
  let record () = fired := Engine.now e :: !fired in
  Engine.schedule e ~delay:5.0 record;
  Engine.schedule e ~delay:10.0 record;
  Engine.run ~until:6.0 e;
  Alcotest.(check (float 1e-9)) "clock at horizon" 6.0 (Engine.now e);
  Engine.run ~until:2.0 e;
  Alcotest.(check (float 1e-9)) "earlier horizon keeps the clock" 6.0 (Engine.now e);
  Engine.schedule e ~delay:1.0 record;
  Engine.run e;
  Alcotest.(check (list (float 1e-9)))
    "fire times never go backwards" [ 5.0; 7.0; 10.0 ] (List.rev !fired)

let test_engine_max_events () =
  let e = Engine.create ~seed:1 () in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> ())
  done;
  Engine.run ~max_events:4 e;
  Alcotest.(check int) "only 4 fired" 4 (Engine.events_processed e);
  Alcotest.(check int) "6 left" 6 (Engine.pending e)

let test_engine_negative_delay () =
  let e = Engine.create ~seed:1 () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1.0) (fun () -> ()))

let test_engine_same_time_fifo () =
  let e = Engine.create ~seed:1 () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_profiling () =
  let e = Engine.create ~seed:1 () in
  Alcotest.(check bool) "off by default" false (Engine.profiling e);
  Engine.schedule e ~label:"alpha" ~delay:1.0 (fun () -> ());
  Engine.run e;
  Alcotest.(check (list (pair string int))) "nothing profiled while off" []
    (List.map (fun (l, p) -> (l, p.Engine.p_count)) (Engine.profile e));
  Engine.set_profiling e true;
  Engine.schedule e ~label:"alpha" ~delay:1.0 (fun () -> ());
  Engine.schedule e ~label:"alpha" ~delay:2.0 (fun () -> ());
  Engine.schedule e ~delay:3.0 (fun () -> ());
  Engine.run e;
  Alcotest.(check (list (pair string int))) "per-class counts"
    [ ("alpha", 2); ("other", 1) ]
    (List.map (fun (l, p) -> (l, p.Engine.p_count)) (Engine.profile e));
  (* Three no-op events can finish inside one tick of the microsecond
     wall clock, so the throughput check profiles a run long enough to
     register on it. *)
  for i = 1 to 10_000 do
    Engine.schedule e ~delay:(float_of_int i) ignore
  done;
  Engine.run e;
  Alcotest.(check bool) "wall clock accumulated" true (Engine.wall_in_run e > 0.0);
  Alcotest.(check bool) "throughput positive" true (Engine.events_per_sec e > 0.0)

let test_engine_profiling_no_perturbation () =
  (* Profiling must not change event order, sim times or PRNG draws. *)
  let observe profiled =
    let e = Engine.create ~seed:5 () in
    Engine.set_profiling e profiled;
    let log = ref [] in
    let g = Engine.rng e in
    for i = 1 to 20 do
      Engine.schedule e ~label:(if i mod 2 = 0 then "a" else "b")
        ~delay:(Prng.float g 10.0)
        (fun () -> log := (i, Engine.now e) :: !log)
    done;
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check bool) "identical schedule" true (observe false = observe true)

let test_engine_rejects_nan () =
  let e = Engine.create ~seed:1 () in
  Alcotest.check_raises "NaN delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:Float.nan ignore);
  Alcotest.check_raises "NaN time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~time:Float.nan ignore);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e)

(* The dispatch loop's only allocations are the boxed clock value
   [Heap.min_prio] returns and the boxed [now +. delay] handed to
   [Heap.push]: 2 words each. *)
let test_engine_dispatch_allocation () =
  let e = Engine.create ~seed:1 () in
  let rec tick () = Engine.schedule e ~label:"tick" ~delay:1.0 tick in
  for _ = 1 to 40 do
    tick ()
  done;
  Engine.run ~max_events:1000 e;
  let per_event =
    Test_crypto.minor_words_per_call 10_000 (fun () -> Engine.run ~max_events:1 e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "self-rescheduling event: %.2f minor words <= 4" per_event)
    true (per_event <= 4.0);
  Alcotest.(check int) "every event ran" 11_000 (Engine.events_processed e)

let test_engine_label_interning () =
  let e = Engine.create ~seed:1 () in
  Engine.set_profiling e true;
  let built = String.concat "" [ "n"; "et" ] in
  Engine.schedule e ~label:"net" ~delay:1.0 ignore;
  Engine.schedule e ~label:built ~delay:2.0 ignore;
  Engine.schedule e ~label:"net" ~delay:3.0 ignore;
  Engine.schedule e ~label:"late" ~delay:10.0 ignore;
  Engine.run ~until:5.0 e;
  Alcotest.(check (list (pair string int))) "run-time label merges with the literal"
    [ ("net", 3) ] (Engine.label_counts e);
  Alcotest.(check (list (pair string int))) "profile merges it too" [ ("net", 3) ]
    (List.map (fun (l, p) -> (l, p.Engine.p_count)) (Engine.profile e));
  (* 100 labels outgrow the initial tables several times over. *)
  let e = Engine.create ~seed:1 () in
  Engine.set_profiling e true;
  let name i = Printf.sprintf "l%03d" i in
  for i = 0 to 99 do
    for _ = 0 to i mod 3 do
      Engine.schedule e ~label:(name i) ~delay:(float_of_int (99 - i)) ignore
    done
  done;
  Engine.run e;
  let expected = List.init 100 (fun i -> (name i, (i mod 3) + 1)) in
  Alcotest.(check (list (pair string int))) "100 labels counted exactly" expected
    (Engine.label_counts e);
  Alcotest.(check (list (pair string int))) "and profiled exactly" expected
    (List.map (fun (l, p) -> (l, p.Engine.p_count)) (Engine.profile e))

(* The occupancy series against the definition it samples: every
   processed index that is a multiple of the current stride, with the
   buffer halved and the stride doubled when it overflows 512. *)
let test_engine_occupancy_reference () =
  let n = 20_000 in
  let e = Engine.create ~seed:1 () in
  for i = 1 to n do
    Engine.schedule e ~delay:(float_of_int i) ignore
  done;
  Engine.run e;
  let stride = ref 1 and samples = ref [] in
  for p = 1 to n do
    if p mod !stride = 0 then begin
      samples := (p, n - p) :: !samples;
      if List.length !samples > 512 then begin
        stride := !stride * 2;
        samples := List.filter (fun (i, _) -> i mod !stride = 0) !samples
      end
    end
  done;
  Alcotest.(check int) "stride" !stride (Engine.occupancy_stride e);
  Alcotest.(check (list (pair int int))) "series" (List.rev !samples)
    (Engine.occupancy e)

(* Fan-out frames against a reference engine that schedules every
   receiver as its own event, in index order.  A generated program
   schedules ordinary events and frames; each handler runs its own
   sub-program, so handlers schedule at delay 0 and commit frames of
   their own.  Delays come mostly from three values, so exact time ties
   (a jitter of 0) are common.  A receiver marked down hears nothing
   but is still an event, and events flip receivers down and up, so
   the flag is read at delivery time.  Both engines take the same
   [~until] horizons and [~max_events] budgets, then drain; the
   (time, tag, pending) log of every processed event, [pending] after
   every run, [max_pending], the occupancy series, the label counts and
   the clock must all agree. *)
type frame_prog =
  | P_event of float * string * frame_prog list
  | P_frame of string * (float * bool * frame_prog list) list
  | P_flip of int

let gen_frame_prog =
  let open QCheck.Gen in
  let delay = frequency [ (4, oneofl [ 0.0; 0.5; 1.0 ]); (1, float_bound_exclusive 2.0) ] in
  let label = oneofl [ "a"; "b"; "net" ] in
  let rec progs depth =
    if depth = 0 then return []
    else list_size (if depth = 3 then int_range 1 8 else int_range 0 3) (prog depth)
  and prog depth =
    frequency
      [
        (2, map3 (fun d l k -> P_event (d, l, k)) delay label (progs (depth - 1)));
        ( 3,
          map2
            (fun l rs -> P_frame (l, rs))
            label
            (list_size (int_range 0 6)
               (triple delay (map (fun k -> k = 0) (int_bound 4)) (progs (depth - 1)))) );
        (1, map (fun i -> P_flip i) small_nat);
      ]
  in
  let horizon = pair (opt (float_bound_exclusive 1.5)) (opt (int_bound 30)) in
  pair (progs 3) (list_size (int_range 0 4) horizon)

(* Tags are numbered before either engine runs, so they name the same
   event in both. *)
type tagged =
  | T_event of int * float * string * tagged list
  | T_frame of string * (int * float * tagged list) list
  | T_flip of int

let number progs =
  let next = ref 0 and down = ref [] in
  let tag () =
    let t = !next in
    incr next;
    t
  in
  let rec go = function
    | P_event (d, l, k) ->
        let t = tag () in
        T_event (t, d, l, List.map go k)
    | P_frame (l, rs) ->
        T_frame
          ( l,
            List.map
              (fun (d, dn, k) ->
                let t = tag () in
                if dn then down := t :: !down;
                (t, d, List.map go k))
              rs )
    | P_flip i -> T_flip i
  in
  let tagged = List.map go progs in
  (tagged, !next, !down)

let run_frame_prog ~frames (progs, runs) =
  let tagged, n, down0 = number progs in
  let e = Engine.create ~seed:1 () in
  let down = Array.make (max 1 n) false in
  List.iter (fun t -> down.(t) <- true) down0;
  let kids = Array.make (max 1 n) [] in
  let log = ref [] in
  let note tag = log := (Engine.now e, tag, Engine.pending e, down.(tag)) :: !log in
  let rec perform = function
    | T_event (tag, delay, label, k) ->
        Engine.schedule e ~label ~delay (fun () ->
            note tag;
            List.iter perform k)
    | T_frame (label, rs) ->
        List.iter (fun (t, _, k) -> kids.(t) <- k) rs;
        let rcvs = Array.of_list (List.map (fun (t, _, _) -> t) rs) in
        let delays = Array.of_list (List.map (fun (_, d, _) -> d) rs) in
        let deliver r =
          note r;
          if not down.(r) then List.iter perform kids.(r)
        in
        if frames then
          Engine.schedule_frame e ~label (Array.length rcvs) rcvs delays deliver
        else
          Array.iteri
            (fun i r -> Engine.schedule e ~label ~delay:delays.(i) (fun () -> deliver r))
            rcvs
    | T_flip i -> if n > 0 then down.(i mod n) <- not down.(i mod n)
  in
  List.iter perform tagged;
  let after =
    List.map
      (fun (until, max_events) ->
        let until = Option.map (fun u -> Engine.now e +. u) until in
        Engine.run ?until ?max_events e;
        Engine.pending e)
      runs
  in
  Engine.run e;
  ( List.rev !log,
    after,
    Engine.pending e,
    Engine.max_pending e,
    Engine.occupancy e,
    Engine.label_counts e,
    Engine.events_processed e,
    Engine.now e )

let prop_engine_frames_match_reference =
  qtest ~count:300 "frames = one event per receiver"
    (QCheck.make gen_frame_prog)
    (fun prog -> run_frame_prog ~frames:true prog = run_frame_prog ~frames:false prog)

(* A frame refuses a bad delay before it schedules any receiver. *)
let test_engine_frame_rejects_bad_delay () =
  let e = Engine.create ~seed:1 () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_frame: negative delay") (fun () ->
      Engine.schedule_frame e 3 [| 0; 1; 2 |] [| 0.5; -1.0; 0.5 |] ignore);
  Alcotest.check_raises "NaN delay"
    (Invalid_argument "Engine.schedule_frame: negative delay") (fun () ->
      Engine.schedule_frame e 2 [| 0; 1 |] [| 0.5; Float.nan |] ignore);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e);
  let heard = ref [] in
  Engine.schedule_frame e 2 [| 7; 8 |] [| 1.0; 0.5 |] (fun r -> heard := r :: !heard);
  Engine.run e;
  Alcotest.(check (list int)) "the pool record is reused cleanly" [ 8; 7 ]
    (List.rev !heard)

(* ------------------------------------------------------------------ *)
(* Topology                                                           *)
(* ------------------------------------------------------------------ *)

let distance t i j =
  let (xi, yi), (xj, yj) = (Topology.position t i, Topology.position t j) in
  Float.hypot (xi -. xj) (yi -. yj)

(* Whether the unit-disk graph is one component, by exhaustive search. *)
let brute_connected t ~range =
  let n = Topology.size t in
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      for j = 0 to n - 1 do
        if Topology.in_range t ~range i j then visit j
      done
    end
  in
  visit 0;
  Array.for_all Fun.id seen

(* A uniformly random placement, drawn as the placement generator
   draws it. *)
let random_topology g ~n ~width ~height =
  let t = Topology.create ~n ~width ~height in
  for i = 0 to n - 1 do
    let x = Prng.float g width in
    Topology.set_position t i (x, Prng.float g height)
  done;
  t

let test_topology_chain () =
  let t = Topology.chain ~n:5 ~spacing:100.0 in
  Alcotest.(check int) "size" 5 (Topology.size t);
  Alcotest.(check (float 1e-9)) "distance" 100.0 (distance t 0 1);
  Alcotest.(check (float 1e-9)) "distance 0-4" 400.0 (distance t 0 4);
  Alcotest.(check (list int)) "middle neighbors" [ 1; 3 ]
    (Topology.neighbors t ~range:150.0 2);
  Alcotest.(check (list int)) "end neighbors" [ 1 ] (Topology.neighbors t ~range:150.0 0);
  Alcotest.(check (list int)) "no neighbors at 50" []
    (Topology.neighbors t ~range:50.0 2)

let test_topology_grid () =
  let t = Topology.grid ~rows:3 ~cols:4 ~spacing:10.0 in
  Alcotest.(check int) "size" 12 (Topology.size t);
  (* node 5 = row 1, col 1: neighbors at range 10 are 1, 4, 6, 9 *)
  Alcotest.(check (list int)) "cross neighbors" [ 1; 4; 6; 9 ]
    (Topology.neighbors t ~range:10.5 5)

let test_topology_random_connected () =
  let g = Prng.create ~seed:3 in
  let t = Topology.random_connected g ~n:30 ~width:500.0 ~height:500.0 ~range:150.0 in
  Alcotest.(check bool) "connected" true (brute_connected t ~range:150.0);
  for i = 0 to 29 do
    let x, y = Topology.position t i in
    Alcotest.(check bool) "in field" true (x >= 0.0 && x < 500.0 && y >= 0.0 && y < 500.0)
  done

let test_topology_set_position () =
  let t = Topology.create ~n:2 ~width:10.0 ~height:10.0 in
  Topology.set_position t 1 (3.0, 4.0);
  Alcotest.(check (float 1e-9)) "distance 3-4-5" 5.0 (distance t 0 1);
  Alcotest.(check bool) "in range" true (Topology.in_range t ~range:5.0 0 1);
  Alcotest.(check bool) "self never in range" false (Topology.in_range t ~range:5.0 0 0)

(* Neighbour index.  Random placements on a lattice whose step divides
   the candidate ranges, so the generator hits the edge cases on
   purpose: coincident nodes, nodes on cell borders, pairs at exactly
   [range] (on an axis and on 3-4-5 diagonals), points outside the
   field, ranges <= 0 and ranges wider than the field.  Moves between
   queries exercise the rebuild. *)

type world = {
  pts : (float * float) array;
  ranges : float list;  (* queried in turn, so the index is rebuilt *)
  moves : (int * (float * float)) list;
}

let gen_coord =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> 25.0 *. float_of_int k) (int_range (-4) 24));
        (1, float_range (-150.0) 650.0);
      ])

let gen_range =
  QCheck.Gen.(
    frequency
      [
        (4, oneofl [ 25.0; 50.0; 75.0; 125.0 ]);
        (1, oneofl [ -10.0; 0.0; 1e6; infinity ]);
        (2, float_range 0.5 300.0);
      ])

let gen_world =
  QCheck.Gen.(
    int_range 1 40 >>= fun n ->
    array_repeat n (pair gen_coord gen_coord) >>= fun pts ->
    list_size (int_range 1 3) gen_range >>= fun ranges ->
    list_size (int_range 0 6) (pair (int_bound (n - 1)) (pair gen_coord gen_coord))
    >>= fun moves -> return { pts; ranges; moves })

let print_world w =
  let pt (x, y) = Printf.sprintf "(%g, %g)" x y in
  Printf.sprintf "pts = [%s]; ranges = [%s]; moves = [%s]"
    (String.concat "; " (Array.to_list (Array.map pt w.pts)))
    (String.concat "; " (List.map string_of_float w.ranges))
    (String.concat "; "
       (List.map (fun (i, p) -> Printf.sprintf "%d -> %s" i (pt p)) w.moves))

let arb_world = QCheck.make ~print:print_world gen_world

let topology_of w =
  let t = Topology.create ~n:(Array.length w.pts) ~width:500.0 ~height:500.0 in
  Array.iteri (Topology.set_position t) w.pts;
  t

let rec strictly_ascending = function
  | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
  | _ -> true

(* Every source, every range: the candidates are ascending, and
   filtering them through [in_range] gives exactly the brute-force
   neighbour set. *)
let index_agrees t ranges =
  let n = Topology.size t in
  let buf = Array.make n 0 in
  List.for_all
    (fun range ->
      List.for_all
        (fun src ->
          let m = Topology.candidates t ~range src buf in
          let cands = Array.to_list (Array.sub buf 0 m) in
          let brute =
            List.filter (Topology.in_range t ~range src) (List.init n Fun.id)
          in
          strictly_ascending cands
          && List.filter (Topology.in_range t ~range src) cands = brute
          && Topology.neighbors t ~range src = brute)
        (List.init n Fun.id))
    ranges

(* The radio's neighbour cache, through the one place it shows: on a
   lossless, jitter-free radio every delivery of a frame lands at one
   instant, in the order the radio scheduled it, so a broadcast from
   [src] is heard by exactly the brute-force neighbour set, ascending.
   Each lookup adds the size of the 3x3 index block around [src] to the
   scan histogram. *)
type radio = { e : Engine.t; net : unit Net.t; heard : int list ref }

let radio_on t range =
  let e = Engine.create ~seed:1 () in
  let cfg = { Net.default_config with range; jitter = 0.0 } in
  let net = Net.create ~config:cfg e t in
  let heard = ref [] in
  for i = 0 to Topology.size t - 1 do
    Net.set_handler net i (fun ~src:_ () -> heard := i :: !heard)
  done;
  { e; net; heard }

let radio_agrees t (range, r) =
  let n = Topology.size t in
  let buf = Array.make n 0 in
  List.for_all
    (fun src ->
      let scans = Hist.sum (Net.scan_hist r.net) in
      r.heard := [];
      Net.broadcast r.net ~src ~size:1 ();
      Engine.run r.e;
      List.rev !(r.heard)
      = List.filter (Topology.in_range t ~range src) (List.init n Fun.id)
      && Hist.sum (Net.scan_hist r.net) - scans
         = Topology.candidates t ~range src buf)
    (List.init n Fun.id)

let prop_index_matches_brute_force =
  qtest ~count:300 "neighbour index = brute force" arb_world (fun w ->
      let t = topology_of w in
      let radios = List.map (fun range -> (range, radio_on t range)) w.ranges in
      let agrees () = index_agrees t w.ranges && List.for_all (radio_agrees t) radios in
      agrees ()
      && List.for_all
           (fun (i, p) ->
             Topology.set_position t i p;
             agrees ())
           w.moves)

(* The placement generator's connectivity test, through its one
   caller: what [random_connected] returns is connected by exhaustive
   search, and on a 100 x 100 field a range past the diagonal never
   exhausts the attempts. *)
let prop_is_connected_matches_brute_force =
  qtest ~count:200 "is_connected = brute-force search"
    QCheck.(triple (int_range 2 12) small_nat (float_range 5.0 200.0))
    (fun (n, seed, range) ->
      let g = Prng.create ~seed in
      match
        Topology.random_connected g ~n ~width:100.0 ~height:100.0 ~range
      with
      | t -> brute_connected t ~range
      | exception Topology.No_connected_placement _ -> range < 142.0)

(* ------------------------------------------------------------------ *)
(* Mobility                                                           *)
(* ------------------------------------------------------------------ *)

let positions topo =
  Array.init (Topology.size topo) (Topology.position topo)

let test_mobility_static () =
  let e = Engine.create ~seed:1 () in
  let g = Prng.create ~seed:2 in
  let topo = random_topology g ~n:5 ~width:100.0 ~height:100.0 in
  let before = positions topo in
  let m = Mobility.create e topo g Mobility.Static in
  Mobility.start m;
  Engine.run ~until:100.0 e;
  Alcotest.(check bool) "no movement" true (before = positions topo)

let test_mobility_waypoint_moves_and_stays_in_field () =
  let e = Engine.create ~seed:1 () in
  let g = Prng.create ~seed:2 in
  let topo = random_topology g ~n:10 ~width:100.0 ~height:100.0 in
  let before = positions topo in
  let m =
    Mobility.create e topo g
      (Mobility.Random_waypoint { min_speed = 1.0; max_speed = 5.0; pause = 0.5 })
  in
  Mobility.start m;
  Engine.run ~until:60.0 e;
  let after = positions topo in
  Alcotest.(check bool) "nodes moved" true (before <> after);
  Array.iter
    (fun (x, y) ->
      Alcotest.(check bool) "within field" true
        (x >= 0.0 && x <= 100.0 && y >= 0.0 && y <= 100.0))
    after

let test_mobility_walk_bounded () =
  let e = Engine.create ~seed:7 () in
  let g = Prng.create ~seed:8 in
  let topo = random_topology g ~n:10 ~width:50.0 ~height:50.0 in
  let m =
    Mobility.create e topo g (Mobility.Random_walk { speed = 10.0; turn_interval = 2.0 })
  in
  Mobility.start m;
  Engine.run ~until:30.0 e;
  Array.iter
    (fun (x, y) ->
      Alcotest.(check bool) "within field" true
        (x >= 0.0 && x <= 50.0 && y >= 0.0 && y <= 50.0))
    (positions topo)

let test_mobility_speed_bound () =
  (* Max displacement per tick must respect the speed limit. *)
  let e = Engine.create ~seed:9 () in
  let g = Prng.create ~seed:10 in
  let topo = random_topology g ~n:5 ~width:1000.0 ~height:1000.0 in
  let m =
    Mobility.create ~tick:1.0 e topo g
      (Mobility.Random_waypoint { min_speed = 2.0; max_speed = 4.0; pause = 0.0 })
  in
  Mobility.start m;
  let prev = ref (positions topo) in
  let violations = ref 0 in
  for _ = 1 to 50 do
    Engine.run ~until:(Engine.now e +. 1.0) e;
    let cur = positions topo in
    Array.iteri
      (fun i (x, y) ->
        let px, py = !prev.(i) in
        let d = sqrt (((x -. px) ** 2.0) +. ((y -. py) ** 2.0)) in
        if d > 4.0 +. 1e-6 then incr violations)
      cur;
    prev := cur
  done;
  Alcotest.(check int) "no speed violations" 0 !violations

(* ------------------------------------------------------------------ *)
(* Net                                                                *)
(* ------------------------------------------------------------------ *)

let make_net ?(config = Net.default_config) ~n ~spacing () =
  let e = Engine.create ~seed:11 () in
  let topo = Topology.chain ~n ~spacing in
  let net = Net.create ~config e topo in
  (e, net)

let test_net_broadcast_reaches_neighbors () =
  let e, net = make_net ~n:5 ~spacing:100.0 () in
  (* range 250: node 2 reaches 0,1,3,4 *)
  let received = ref [] in
  for i = 0 to 4 do
    Net.set_handler net i (fun ~src msg ->
        received := (i, src, msg) :: !received)
  done;
  Net.broadcast net ~src:2 ~size:100 "hello";
  Engine.run e;
  let receivers = List.sort compare (List.map (fun (i, _, _) -> i) !received) in
  Alcotest.(check (list int)) "neighbors got it" [ 0; 1; 3; 4 ] receivers;
  List.iter (fun (_, src, msg) ->
      Alcotest.(check int) "src" 2 src;
      Alcotest.(check string) "payload" "hello" msg)
    !received;
  Alcotest.(check int) "one transmission" 1 (Net.transmissions net);
  Alcotest.(check int) "bytes counted once" 100 (Net.bytes_sent net)

let test_net_broadcast_range_limited () =
  let cfg = { Net.default_config with range = 150.0 } in
  let e = Engine.create ~seed:12 () in
  let topo = Topology.chain ~n:5 ~spacing:100.0 in
  let net = Net.create ~config:cfg e topo in
  let received = ref [] in
  for i = 0 to 4 do
    Net.set_handler net i (fun ~src:_ _ -> received := i :: !received)
  done;
  Net.broadcast net ~src:0 ~size:10 "x";
  Engine.run e;
  Alcotest.(check (list int)) "only node 1" [ 1 ] !received

let test_net_unicast_success () =
  let e, net = make_net ~n:3 ~spacing:100.0 () in
  let got = ref None in
  Net.set_handler net 1 (fun ~src msg -> got := Some (src, msg));
  let failed = ref false in
  Net.unicast net ~src:0 ~dst:1 ~size:50 ~on_fail:(fun () -> failed := true) "data";
  Engine.run e;
  Alcotest.(check (option (pair int string))) "delivered" (Some (0, "data")) !got;
  Alcotest.(check bool) "no failure" false !failed;
  Alcotest.(check int) "no unicast failures" 0 (Net.unicast_failures net)

let test_net_unicast_out_of_range_fails () =
  let cfg = { Net.default_config with range = 150.0 } in
  let e = Engine.create ~seed:13 () in
  let topo = Topology.chain ~n:3 ~spacing:100.0 in
  let net = Net.create ~config:cfg e topo in
  let got = ref false and failed = ref false in
  Net.set_handler net 2 (fun ~src:_ _ -> got := true);
  Net.unicast net ~src:0 ~dst:2 ~size:50 ~on_fail:(fun () -> failed := true) "data";
  Engine.run e;
  Alcotest.(check bool) "not delivered" false !got;
  Alcotest.(check bool) "failure reported" true !failed;
  Alcotest.(check int) "counted" 1 (Net.unicast_failures net)

let test_net_down_node () =
  let e, net = make_net ~n:3 ~spacing:100.0 () in
  let got = ref false and failed = ref false in
  Net.set_handler net 1 (fun ~src:_ _ -> got := true);
  Net.set_down net 1 true;
  Net.unicast net ~src:0 ~dst:1 ~size:50 ~on_fail:(fun () -> failed := true) "data";
  Engine.run e;
  Alcotest.(check bool) "down node got nothing" false !got;
  Alcotest.(check bool) "sender sees failure" true !failed;
  (* down sender transmits nothing *)
  Net.set_down net 1 false;
  Net.set_down net 0 true;
  let before = Net.transmissions net in
  Net.broadcast net ~src:0 ~size:10 "x";
  Engine.run e;
  Alcotest.(check int) "no transmission from down node" before
    (Net.transmissions net)

let test_net_loss_retries () =
  (* loss = 0.5 with 3 retries: most unicasts still get through; failures
     and retries are both visible in the counters. *)
  let cfg = { Net.default_config with loss = 0.5; mac_retries = 3 } in
  let e = Engine.create ~seed:17 () in
  let topo = Topology.chain ~n:2 ~spacing:100.0 in
  let net = Net.create ~config:cfg e topo in
  let delivered = ref 0 and failed = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr delivered);
  for _ = 1 to 200 do
    Net.unicast net ~src:0 ~dst:1 ~size:10 ~on_fail:(fun () -> incr failed) "x"
  done;
  Engine.run e;
  Alcotest.(check int) "accounting adds up" 200 (!delivered + !failed);
  (* P(all 4 attempts lost) = 1/16 -> expect ~12.5 failures of 200. *)
  Alcotest.(check bool) "mostly delivered" true (!delivered > 160);
  Alcotest.(check bool) "some failures" true (!failed > 0);
  Alcotest.(check bool) "retries cost transmissions" true
    (Net.transmissions net > 200)

let test_net_lossy_broadcast () =
  let cfg = { Net.default_config with loss = 0.3 } in
  let e = Engine.create ~seed:19 () in
  let topo = Topology.chain ~n:2 ~spacing:10.0 in
  let net = Net.create ~config:cfg e topo in
  let delivered = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr delivered);
  for _ = 1 to 1000 do
    Net.broadcast net ~src:0 ~size:10 "x"
  done;
  Engine.run e;
  (* Expect ~700 deliveries. *)
  Alcotest.(check bool) "loss rate plausible" true (!delivered > 620 && !delivered < 780)

let test_stats_snapshot_delta () =
  let s = Stats.create () in
  let a = Stats.key "a" and b = Stats.key "b" in
  Stats.incr s a;
  Stats.add s b 3;
  let before = Stats.snapshot s in
  Stats.add s b 2;
  Stats.incr s (Stats.key "c");
  let after = Stats.snapshot s in
  Alcotest.(check int) "snapshot_get present" 3 (Stats.snapshot_get before "b");
  Alcotest.(check int) "snapshot_get absent" 0 (Stats.snapshot_get before "c");
  Alcotest.(check (list (pair string int)))
    "a snapshot is a copy" [ ("a", 1); ("b", 5); ("c", 1) ] after

let test_net_counters_invariant () =
  (* Seeded loss + retries + promiscuous overhear: whatever the channel
     does, bytes are exactly size * transmissions, and every offered
     unicast either reaches its handler or fires on_fail. *)
  let cfg =
    { Net.default_config with loss = 0.3; mac_retries = 3; promiscuous = true }
  in
  let e = Engine.create ~seed:29 () in
  let topo = Topology.chain ~n:3 ~spacing:100.0 in
  let net = Net.create ~config:cfg e topo in
  let got = ref 0 and overheard = ref 0 and failed = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr got);
  Net.set_handler net 2 (fun ~src:_ _ -> incr overheard);
  let offered = 100 in
  for _ = 1 to offered do
    Net.unicast net ~src:0 ~dst:1 ~size:10 ~on_fail:(fun () -> incr failed) "x"
  done;
  Engine.run e;
  Alcotest.(check int) "delivered + failed = offered" offered (!got + !failed);
  Alcotest.(check int) "bytes = size * transmissions"
    (10 * Net.transmissions net)
    (Net.bytes_sent net);
  Alcotest.(check bool) "retries happened" true
    (Net.transmissions net > offered);
  Alcotest.(check bool) "attempts bounded" true
    (Net.transmissions net <= 4 * offered);
  Alcotest.(check int) "failure counter matches callbacks" !failed
    (Net.unicast_failures net);
  Alcotest.(check bool) "promiscuous node overheard" true (!overheard > 0);
  Alcotest.(check int) "handler invocations = deliveries counter"
    (!got + !overheard) (Net.deliveries net)

let test_net_sender_down_mid_retry () =
  (* Certain loss forces the full retry ladder; the sender dies between
     the first and second attempt.  Exactly one frame must have been
     charged, and neither a retry nor on_fail may fire: the MAC state
     died with the node. *)
  let cfg = { Net.default_config with loss = 1.0; mac_retries = 3 } in
  let e = Engine.create ~seed:31 () in
  let topo = Topology.chain ~n:2 ~spacing:100.0 in
  let net = Net.create ~config:cfg e topo in
  let failed = ref false in
  Net.unicast net ~src:0 ~dst:1 ~size:50 ~on_fail:(fun () -> failed := true) "x";
  (* First attempt already happened synchronously; ack timeout is
     ~2.1e-4 s, so down the sender well before the retry. *)
  Engine.schedule e ~delay:1e-4 (fun () -> Net.set_down net 0 true);
  Engine.run e;
  Alcotest.(check int) "one transmission only" 1 (Net.transmissions net);
  Alcotest.(check int) "bytes for one frame" 50 (Net.bytes_sent net);
  Alcotest.(check bool) "no on_fail from a dead sender" false !failed;
  Alcotest.(check int) "no failure counted" 0 (Net.unicast_failures net)

let test_net_link_fault () =
  let e, net = make_net ~n:3 ~spacing:100.0 () in
  let got = ref 0 and failed = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr got);
  Net.set_link net 0 1 ~up:false;
  Net.unicast net ~src:0 ~dst:1 ~size:10 ~on_fail:(fun () -> incr failed) "x";
  Net.broadcast net ~src:0 ~size:10 "y";
  Engine.run e;
  Alcotest.(check int) "nothing crossed the severed link" 0 !got;
  Alcotest.(check int) "unicast failed after full retries" 1 !failed;
  Alcotest.(check int) "all attempts were charged" 5 (Net.transmissions net);
  Net.set_link net 0 1 ~up:true;
  Net.unicast net ~src:0 ~dst:1 ~size:10 ~on_fail:(fun () -> incr failed) "x";
  Engine.run e;
  Alcotest.(check int) "restored link delivers" 1 !got

let test_net_partition () =
  let e, net = make_net ~n:4 ~spacing:100.0 () in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Net.set_handler net i (fun ~src:_ _ -> got.(i) <- got.(i) + 1)
  done;
  Net.set_partition net [ 2; 3 ];
  Net.broadcast net ~src:1 ~size:10 "x";
  Engine.run e;
  Alcotest.(check int) "same side heard" 1 got.(0);
  Alcotest.(check int) "far side silent" 0 got.(2);
  Net.clear_partition net;
  Net.broadcast net ~src:1 ~size:10 "x";
  Engine.run e;
  Alcotest.(check bool) "healed: far side hears" true (got.(2) > 0)

let test_net_gilbert_elliott () =
  (* loss 0 in good, 1 in bad; stationary P(bad) = 0.1/(0.1+0.3) = 0.25,
     so ~75% of frames should get through. *)
  let e = Engine.create ~seed:37 () in
  let topo = Topology.chain ~n:2 ~spacing:10.0 in
  let net = Net.create e topo in
  Net.set_channel net
    (Net.Gilbert_elliott
       {
         p_good_to_bad = 0.1;
         p_bad_to_good = 0.3;
         loss_good = 0.0;
         loss_bad = 1.0;
       });
  let delivered = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr delivered);
  let frames = 2000 in
  for _ = 1 to frames do
    Net.broadcast net ~src:0 ~size:10 "x"
  done;
  Engine.run e;
  let ratio = float_of_int !delivered /. float_of_int frames in
  Alcotest.(check bool) "near stationary good fraction" true
    (ratio > 0.68 && ratio < 0.82);
  (* Burstiness: with loss 0/1 per state, consecutive frames are much
     more correlated than an i.i.d. channel — already implied by the
     Markov chain; here we just pin that the model is switchable back. *)
  Net.set_channel net (Net.Uniform { loss = 0.0 });
  let before = !delivered in
  Net.broadcast net ~src:0 ~size:10 "x";
  Engine.run e;
  Alcotest.(check int) "uniform zero-loss delivers" (before + 1) !delivered

(* A neighbour lookup that hits the radio's cache allocates nothing, so
   a broadcast on a static topology allocates its loss and jitter draws
   per receiver and, once per frame, the delivery closure and the boxed
   time it carries into the engine queue.  An extra receiver costs less
   than the 7-word closure each delivery once allocated on its own.
   The queue is warmed to capacity first, so its growth does not
   count. *)
let test_net_broadcast_allocation () =
  let e = Engine.create ~seed:1 () in
  let topo = Topology.grid ~rows:5 ~cols:5 ~spacing:100.0 in
  let cfg = { Net.default_config with range = 150.0 } in
  let net = Net.create ~config:cfg e topo in
  let frames = 1_000 in
  let words src =
    for _ = 1 to frames do
      Net.broadcast net ~src ~size:64 ()
    done;
    Engine.run e;
    let w =
      Test_crypto.minor_words_per_call frames (fun () ->
          Net.broadcast net ~src ~size:64 ())
    in
    Engine.run e;
    w
  in
  (* Node 12 is the centre of the grid (8 neighbours), node 0 a corner
     (3 neighbours). *)
  let centre = words 12 and corner = words 0 in
  for i = 0 to 24 do
    if i <> 12 then Net.set_down net i true
  done;
  let quiet = words 12 in
  Alcotest.(check (float 0.0)) "cache hit, no receiver up: 0 words" 0.0 quiet;
  let per_extra = (centre -. corner) /. 5.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per extra receiver < 7" per_extra)
    true (per_extra < 7.0);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per delivery <= 16" (centre /. 8.0))
    true
    (centre /. 8.0 <= 16.0)

(* Delivering a frame's receiver boxes the clock value [Heap.min_prio]
   returns and the next receiver's time handed to [Heap.replace_min]:
   2 words each, and nothing per receiver beyond them.  The first pass
   grows the queue and the frame pool, so their growth does not
   count. *)
let test_net_frame_delivery_allocation () =
  let e = Engine.create ~seed:1 () in
  let topo = Topology.grid ~rows:5 ~cols:5 ~spacing:100.0 in
  let cfg = { Net.default_config with range = 150.0 } in
  let net = Net.create ~config:cfg e topo in
  let frames = 1_000 in
  let send () =
    for _ = 1 to frames do
      Net.broadcast net ~src:12 ~size:64 ()
    done
  in
  send ();
  Engine.run e;
  send ();
  let per_delivery =
    Test_crypto.minor_words_per_call (8 * frames) (fun () ->
        Engine.run ~max_events:1 e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per frame delivery <= 4" per_delivery)
    true (per_delivery <= 4.0);
  Alcotest.(check int) "every receiver delivered" 0 (Engine.pending e);
  Alcotest.(check int) "deliveries" (16 * frames) (Net.deliveries net)

(* The engine holds a frame's closure, and through it the message,
   until the last receiver runs, and not after. *)
let test_net_frame_releases_message () =
  let e = Engine.create ~seed:1 () in
  let topo = Topology.grid ~rows:3 ~cols:3 ~spacing:100.0 in
  let cfg = { Net.default_config with range = 150.0 } in
  let net = Net.create ~config:cfg e topo in
  let w = Weak.create 1 in
  let send () =
    let msg = ref 0 in
    Weak.set w 0 (Some msg);
    Net.broadcast net ~src:4 ~size:64 msg
  in
  send ();
  Engine.run ~max_events:7 e;
  Gc.full_major ();
  Alcotest.(check bool) "one receiver left: message kept" true (Weak.check w 0);
  Engine.run e;
  Gc.full_major ();
  Alcotest.(check bool) "all delivered: message collected" false (Weak.check w 0);
  Alcotest.(check int) "8 receivers" 8 (Net.deliveries net)

(* The radio against a reference: the loops [Net.broadcast] and the
   promiscuous [Net.unicast] ran before the neighbour index, walking
   every node id in ascending order and drawing from a copy of the
   radio's stream.  Each operation runs to completion before the next,
   so a delivery's time is the engine clock plus the delay the radio
   drew.  The whole (dst, time) sequence must match, and since every
   later draw depends on how many numbers the earlier frames consumed,
   so must the stream position after each frame.  Moves land halfway
   through a round, between the frames of nodes whose neighbour sets
   the radio has already cached, and every lookup's scan sample is the
   3x3 index block size around the sender at that moment. *)

type ref_radio = {
  topo : Topology.t;
  cfg : Net.config;
  rng : Prng.t;
  down : bool array;
  blocked : int * int;  (* the one severed link, smaller id first *)
  mutable log : (int * float) list;  (* (dst, delivery time), newest first *)
  mutable lookups : int;
  mutable scans : int;  (* block sizes summed over the lookups *)
}

let ref_lookup r src =
  let buf = Array.make (Topology.size r.topo) 0 in
  r.lookups <- r.lookups + 1;
  r.scans <- r.scans + Topology.candidates r.topo ~range:r.cfg.Net.range src buf

let ref_hears r src dst =
  Topology.in_range r.topo ~range:r.cfg.Net.range src dst
  && (not r.down.(dst))
  && (min src dst, max src dst) <> r.blocked
  && Prng.float r.rng 1.0 >= r.cfg.Net.loss

let ref_broadcast r ~now ~src ~size =
  if not r.down.(src) then begin
    ref_lookup r src;
    let base = (float_of_int (size * 8) /. r.cfg.Net.bit_rate) +. r.cfg.Net.prop_delay in
    for dst = 0 to Topology.size r.topo - 1 do
      if ref_hears r src dst then
        r.log <- (dst, now +. (base +. Prng.float r.rng r.cfg.Net.jitter)) :: r.log
    done
  end

let ref_unicast r ~now ~src ~dst ~size =
  let cfg = r.cfg in
  let tx = float_of_int (size * 8) /. cfg.Net.bit_rate in
  let ack_wait = tx +. (2.0 *. cfg.Net.prop_delay) in
  let rec attempt k now =
    if not r.down.(src) then
      if ref_hears r src dst then begin
        let delay = tx +. cfg.Net.prop_delay +. Prng.float r.rng cfg.Net.jitter in
        r.log <- (dst, now +. delay) :: r.log;
        ref_lookup r src;
        for other = 0 to Topology.size r.topo - 1 do
          if other <> dst && ref_hears r src other then
            r.log <-
              (other, now +. (delay +. Prng.float r.rng cfg.Net.jitter)) :: r.log
        done
      end
      else if k + 1 < 1 + cfg.Net.mac_retries then attempt (k + 1) (now +. ack_wait)
      else ignore (Prng.float r.rng cfg.Net.jitter)
  in
  attempt 0 now

let prop_net_matches_reference =
  qtest ~count:150 "radio = brute-force reference" arb_world (fun w ->
      let range = List.hd w.ranges in
      let cfg =
        { Net.default_config with range; loss = 0.3; mac_retries = 2; promiscuous = true }
      in
      let e = Engine.create ~seed:(Array.length w.pts) () in
      let topo = topology_of w in
      let n = Topology.size topo in
      let r =
        {
          topo;
          cfg;
          rng = Prng.split (Engine.rng (Engine.create ~seed:(Array.length w.pts) ()));
          down = Array.init n (fun i -> i mod 5 = 4);
          blocked = (0, 1);
          log = [];
          lookups = 0;
          scans = 0;
        }
      in
      let net = Net.create ~config:cfg e topo in
      Array.iteri (fun i d -> Net.set_down net i d) r.down;
      if n > 1 then Net.set_link net 0 1 ~up:false;
      let heard = ref [] in
      for i = 0 to n - 1 do
        Net.set_handler net i (fun ~src:_ () -> heard := (i, Engine.now e) :: !heard)
      done;
      let by_time l =
        List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) (List.rev l)
      in
      let step op reference =
        heard := [];
        r.log <- [];
        reference ~now:(Engine.now e);
        op ();
        Engine.run e;
        List.rev !heard = by_time r.log
      in
      let scans_agree () =
        let h = Net.scan_hist net in
        Hist.count h = r.lookups && Hist.sum h = r.scans
      in
      let round ?move () =
        List.for_all
          (fun src ->
            if src = n / 2 then
              Option.iter (fun (i, p) -> Topology.set_position topo i p) move;
            step
              (fun () -> Net.broadcast net ~src ~size:64 ())
              (fun ~now -> ref_broadcast r ~now ~src ~size:64)
            &&
            let dst = ((src * 7) + 3) mod n in
            dst = src
            || step
                 (fun () -> Net.unicast net ~src ~dst ~size:128 ())
                 (fun ~now -> ref_unicast r ~now ~src ~dst ~size:128))
          (List.init n Fun.id)
        && scans_agree ()
      in
      round () && List.for_all (fun move -> round ~move ()) w.moves)

let suites =
  [
    ( "sim.heap",
      [
        Alcotest.test_case "basic" `Quick test_heap_basic;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        prop_heap_sorts;
        prop_heap_model;
        Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
        Alcotest.test_case "replace_min refuses a smaller key" `Quick
          test_heap_replace_min_refuses_smaller;
        Alcotest.test_case "drop_min releases payloads" `Quick
          test_heap_releases_popped;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "counters" `Quick test_stats_counters;
        Alcotest.test_case "summary" `Quick test_stats_summary;
        prop_stats_output_sorted;
        prop_stats_welford;
        Alcotest.test_case "percentiles exact" `Quick test_stats_percentiles_exact;
        Alcotest.test_case "percentiles reservoir" `Quick test_stats_percentiles_reservoir;
        prop_percentile_exact_below_cap;
        prop_percentile_reservoir_deterministic;
        prop_percentile_out_of_range;
        Alcotest.test_case "snapshot delta" `Quick test_stats_snapshot_delta;
      ] );
    ( "sim.trace",
      [
        Alcotest.test_case "disabled by default" `Quick test_trace_disabled_by_default;
        Alcotest.test_case "record and find" `Quick test_trace_record_and_find;
        Alcotest.test_case "capacity" `Quick test_trace_capacity;
        Alcotest.test_case "dropped count" `Quick test_trace_dropped;
        Alcotest.test_case "capacity one" `Quick test_trace_capacity_one;
        Alcotest.test_case "drops across clear" `Quick test_trace_drops_across_clear;
        Alcotest.test_case "render header gated on drops" `Quick
          test_trace_render_header_gated_on_drops;
        Alcotest.test_case "disabled no-op" `Quick test_trace_disabled_noop;
        Alcotest.test_case "entries and render after wrap" `Quick
          test_trace_entries_render_after_wrap;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "ordering" `Quick test_engine_ordering;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "until" `Quick test_engine_until;
        Alcotest.test_case "until never rewinds the clock" `Quick
          test_engine_until_monotone;
        Alcotest.test_case "max events" `Quick test_engine_max_events;
        Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
        Alcotest.test_case "same time fifo" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "profiling" `Quick test_engine_profiling;
        Alcotest.test_case "profiling no perturbation" `Quick
          test_engine_profiling_no_perturbation;
        Alcotest.test_case "rejects NaN times" `Quick test_engine_rejects_nan;
        Alcotest.test_case "dispatch allocation" `Quick
          test_engine_dispatch_allocation;
        Alcotest.test_case "label interning" `Quick test_engine_label_interning;
        Alcotest.test_case "occupancy reference" `Quick
          test_engine_occupancy_reference;
        prop_engine_frames_match_reference;
        Alcotest.test_case "frame rejects a bad delay" `Quick
          test_engine_frame_rejects_bad_delay;
      ] );
    ( "sim.topology",
      [
        Alcotest.test_case "chain" `Quick test_topology_chain;
        Alcotest.test_case "grid" `Quick test_topology_grid;
        Alcotest.test_case "random connected" `Quick test_topology_random_connected;
        Alcotest.test_case "set position" `Quick test_topology_set_position;
        prop_index_matches_brute_force;
        prop_is_connected_matches_brute_force;
      ] );
    ( "sim.mobility",
      [
        Alcotest.test_case "static" `Quick test_mobility_static;
        Alcotest.test_case "waypoint in field" `Quick test_mobility_waypoint_moves_and_stays_in_field;
        Alcotest.test_case "walk bounded" `Quick test_mobility_walk_bounded;
        Alcotest.test_case "speed bound" `Quick test_mobility_speed_bound;
      ] );
    ( "sim.net",
      [
        Alcotest.test_case "broadcast reaches neighbors" `Quick test_net_broadcast_reaches_neighbors;
        Alcotest.test_case "broadcast range limited" `Quick test_net_broadcast_range_limited;
        Alcotest.test_case "frame delivery allocation" `Quick
          test_net_frame_delivery_allocation;
        Alcotest.test_case "frame releases its message" `Quick
          test_net_frame_releases_message;
        Alcotest.test_case "unicast success" `Quick test_net_unicast_success;
        Alcotest.test_case "unicast out of range" `Quick test_net_unicast_out_of_range_fails;
        Alcotest.test_case "down node" `Quick test_net_down_node;
        Alcotest.test_case "loss retries" `Quick test_net_loss_retries;
        Alcotest.test_case "lossy broadcast" `Quick test_net_lossy_broadcast;
        Alcotest.test_case "counters invariant" `Quick test_net_counters_invariant;
        Alcotest.test_case "sender down mid-retry" `Quick test_net_sender_down_mid_retry;
        Alcotest.test_case "link fault" `Quick test_net_link_fault;
        Alcotest.test_case "partition" `Quick test_net_partition;
        Alcotest.test_case "gilbert-elliott" `Quick test_net_gilbert_elliott;
        Alcotest.test_case "broadcast allocation" `Quick
          test_net_broadcast_allocation;
        prop_net_matches_reference;
      ] );
  ]
