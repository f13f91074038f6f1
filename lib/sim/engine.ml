module Prng = Manet_crypto.Prng

type profile_entry = { p_count : int; p_wall_s : float }

(* The occupancy series decimates itself to stay bounded: samples are
   taken every [occ_stride] processed events, and when the buffer would
   exceed [occ_capacity] every other sample is dropped and the stride
   doubles.  Both operations depend only on the processed-event count,
   so the series is a pure function of the run — byte-identical across
   replays and domain counts.  Samples live in two parallel int arrays
   (index, pending) so sampling allocates nothing, and the next sample
   point is kept as a threshold ([occ_next], always the next multiple
   of the stride) so the per-event check is one comparison. *)
let occ_capacity = 512

(* Labels are interned per engine to small ints: [names.(id)] spells
   label [id], and the queue, the per-label counts and the profiler
   cells all carry the id, so processing an event hashes and compares
   no string.  The tables start with room for [label_capacity] labels
   and double when full. *)
let label_capacity = 8

type t = {
  mutable now : float;
  queue : (int, unit -> unit) Heap.t; (* label id, event closure *)
  rng : Prng.t;
  stats : Stats.t;
  trace : Trace.t;
  mutable processed : int;
  (* Deterministic perf accounting (always on): per-label processed
     event counts, queue high-water mark, and the sampled occupancy
     series.  All are pure functions of the event sequence — they read
     no clock and draw no randomness — so keeping them on costs a few
     array updates per event and perturbs nothing. *)
  mutable names : string array; (* label of id i *)
  mutable n_labels : int;
  mutable counts : int array; (* processed events of label id i *)
  mutable max_pending : int;
  occ_idx : int array; (* processed index of sample i, oldest first *)
  occ_pend : int array; (* pending depth of sample i *)
  mutable occ_len : int;
  mutable occ_stride : int;
  mutable occ_next : int; (* processed index of the next sample *)
  (* Wall-clock profiling (opt-in).  Lives entirely outside the
     deterministic domain: enabling it changes no event order, no PRNG
     draw and no trace byte. *)
  mutable profiling : bool;
  mutable prof_count : int array; (* profiled events of label id i *)
  mutable prof_wall : float array; (* their wall seconds *)
  mutable wall_in_run : float;
  (* Per-event observer (opt-in), called with the event's timestamp
     immediately after the clock advances and before the event is
     counted or run.  The timeline layer hangs its bucket boundaries
     here; the hook itself must allocate nothing per event. *)
  mutable on_event : (float -> unit) option;
}

let create ~seed () =
  {
    now = 0.0;
    queue = Heap.create ();
    rng = Prng.create ~seed;
    stats = Stats.create ();
    trace = Trace.create ();
    processed = 0;
    names = Array.make label_capacity "";
    n_labels = 0;
    counts = Array.make label_capacity 0;
    max_pending = 0;
    occ_idx = Array.make (occ_capacity + 1) 0;
    occ_pend = Array.make (occ_capacity + 1) 0;
    occ_len = 0;
    occ_stride = 1;
    occ_next = 1;
    profiling = false;
    prof_count = Array.make label_capacity 0;
    prof_wall = Array.make label_capacity 0.0;
    wall_in_run = 0.0;
    on_event = None;
  }

let now t = t.now
let rng t = t.rng
let stats t = t.stats
let trace t = t.trace

let default_label = "other"

let note_push t =
  let depth = Heap.size t.queue in
  if depth > t.max_pending then t.max_pending <- depth

let rec find_phys names label n i =
  if i >= n then -1
  else if Array.unsafe_get names i == label then i
  else find_phys names label n (i + 1)

let rec find_equal names label n i =
  if i >= n then -1
  else if String.equal (Array.unsafe_get names i) label then i
  else find_equal names label n (i + 1)

let extend a fill =
  (* manetcheck: allow hot-alloc — the label tables double O(log labels)
     times over a run, not per event. *)
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_labels t =
  t.names <- extend t.names "";
  t.counts <- extend t.counts 0;
  t.prof_count <- extend t.prof_count 0;
  t.prof_wall <- extend t.prof_wall 0.0

(* Call sites pass string literals, so the physical-equality scan finds
   the label among the few distinct ones.  A label spelled elsewhere —
   another module's literal, or a string built at run time — falls
   back to [String.equal] and then becomes the stored spelling, so the
   next event from the same site hits by [==] again; only a new name
   is appended. *)
let intern t label =
  let n = t.n_labels in
  let id = find_phys t.names label n 0 in
  if id >= 0 then id
  else begin
    let id = find_equal t.names label n 0 in
    if id >= 0 then begin
      t.names.(id) <- label;
      id
    end
    else begin
      if n = Array.length t.names then grow_labels t;
      t.names.(n) <- label;
      t.n_labels <- n + 1;
      n
    end
  end

(* Both guards are written so that a NaN time fails them too: a NaN
   priority would break the heap order for every later sift. *)
let schedule t ?(label = default_label) ~delay f =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule: negative delay";
  Heap.push t.queue (t.now +. delay) (intern t label) f;
  note_push t

let schedule_at t ?(label = default_label) ~time f =
  if not (time >= t.now) then invalid_arg "Engine.schedule_at: time in the past";
  Heap.push t.queue time (intern t label) f;
  note_push t

(* In-place decimation: keep samples whose processed index is a
   multiple of the doubled stride, preserving order.  Returns the new
   length. *)
let rec occ_compact t stride r w =
  if r >= t.occ_len then w
  else if t.occ_idx.(r) mod stride = 0 then begin
    t.occ_idx.(w) <- t.occ_idx.(r);
    t.occ_pend.(w) <- t.occ_pend.(r);
    occ_compact t stride (r + 1) (w + 1)
  end
  else occ_compact t stride (r + 1) w

(* Called when [processed] reaches [occ_next], a multiple of the
   stride; the threshold then moves to the next multiple of the
   (possibly doubled) stride.  Only a decimation divides. *)
let sample_occupancy t =
  let p = t.processed in
  t.occ_idx.(t.occ_len) <- p;
  t.occ_pend.(t.occ_len) <- Heap.size t.queue;
  t.occ_len <- t.occ_len + 1;
  if t.occ_len > occ_capacity then begin
    let stride = t.occ_stride * 2 in
    t.occ_stride <- stride;
    t.occ_len <- occ_compact t stride 0 0;
    t.occ_next <- ((p / stride) + 1) * stride
  end
  else t.occ_next <- p + t.occ_stride

(* The event loop proper, as a top-level tail recursion so a run
   allocates nothing of its own: the budget rides in an argument and
   the top entry is read field by field out of the SoA heap. *)
let rec run_loop t until budget =
  if budget > 0 && not (Heap.is_empty t.queue) then begin
    let time = Heap.min_prio t.queue in
    match until with
    | Some limit when time > limit ->
        (* Leave future events queued; advance the clock to the
           horizon so repeated bounded runs make progress. *)
        (* manetcheck: allow hot-boxed-store — [limit] is the caller's
           float, already boxed; the store copies the pointer. *)
        t.now <- limit
    | _ ->
        let id = Heap.min_fst t.queue in
        let f = Heap.min_snd t.queue in
        Heap.drop_min t.queue;
        (* manetcheck: allow hot-boxed-store — [time] is the box
           Heap.min_prio returned; the store copies the pointer and
           allocates nothing. *)
        t.now <- time;
        (match t.on_event with Some hook -> hook time | None -> ());
        t.processed <- t.processed + 1;
        t.counts.(id) <- t.counts.(id) + 1;
        if t.processed = t.occ_next then sample_occupancy t;
        if t.profiling then begin
          let t0 = Mono_clock.now_s () in
          f ();
          t.prof_count.(id) <- t.prof_count.(id) + 1;
          t.prof_wall.(id) <- t.prof_wall.(id) +. (Mono_clock.now_s () -. t0)
        end
        else f ();
        run_loop t until (budget - 1)
  end

let run ?until ?max_events t =
  let run_t0 = if t.profiling then Mono_clock.now_s () else 0.0 in
  run_loop t until (match max_events with Some n -> n | None -> max_int);
  if t.profiling then
    (* manetcheck: allow hot-boxed-store — one box per profiled call of
       run, not per event. *)
    t.wall_in_run <- t.wall_in_run +. (Mono_clock.now_s () -. run_t0)

let pending t = Heap.size t.queue
let events_processed t = t.processed

(* The labels with a nonzero [counts] cell, as [(name, cell)] sorted
   by name; names are unique, so the order is total. *)
let by_label t counts cell =
  List.init t.n_labels Fun.id
  |> List.filter (fun id -> counts.(id) > 0)
  |> List.map (fun id -> (t.names.(id), cell id))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let label_counts t = by_label t t.counts (fun id -> t.counts.(id))

let occupancy t =
  List.init t.occ_len (fun i -> (t.occ_idx.(i), t.occ_pend.(i)))

let occupancy_stride t = t.occ_stride
let max_pending t = t.max_pending

let set_profiling t on = t.profiling <- on
let profiling t = t.profiling
let set_on_event t hook = t.on_event <- hook

let profile t =
  by_label t t.prof_count (fun id ->
      { p_count = t.prof_count.(id); p_wall_s = t.prof_wall.(id) })

let wall_in_run t = t.wall_in_run

let events_per_sec t =
  let profiled = Array.fold_left ( + ) 0 t.prof_count in
  if t.wall_in_run > 0.0 && profiled > 0 then
    float_of_int profiled /. t.wall_in_run
  else 0.0

let log t ~node ~event ~detail =
  Trace.log t.trace ~time:t.now ~node ~event ~detail
