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

(* A fan-out frame: the receivers of one transmission, each its own
   event, held in one pooled record behind one queue entry.  The first
   [len] entries of [times], [seqs] and [rcvs] are the receivers sorted
   by (time, seq); [next] is the first undelivered one, and the queue
   entry is keyed at its (time, seq).  [deliver] is the frame's one
   handler, called with each receiver in turn. *)
type frame = {
  mutable times : float array;
  mutable seqs : int array;
  mutable rcvs : int array;
  mutable len : int;
  mutable next : int;
  mutable label : int;
  mutable deliver : int -> unit;
}

type t = {
  mutable now : float;
  (* An ordinary event's entry carries its label id and closure; a
     frame's carries [-1 - id] of its pool record and [no_event]. *)
  queue : (int, unit -> unit) Heap.t;
  (* The next sequence number: one per scheduled event, a consecutive
     block per frame, so (time, seq) is the order the events would
     have if every receiver were scheduled on its own. *)
  mutable seq : int;
  (* Undelivered events, counting every receiver of a queued frame. *)
  mutable pending : int;
  (* The frame pool: [frames.(id)] is record [id]; the first [n_free]
     entries of [free] are the ids no queued frame owns. *)
  mutable frames : frame array;
  mutable free : int array;
  mutable n_free : int;
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
    seq = 0;
    pending = 0;
    frames = [||];
    free = [||];
    n_free = 0;
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
  if t.pending > t.max_pending then t.max_pending <- t.pending

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

let[@inline] push t time label f =
  Heap.push t.queue time t.seq (intern t label) f;
  t.seq <- t.seq + 1;
  t.pending <- t.pending + 1;
  note_push t

(* Both guards are written so that a NaN time fails them too: a NaN
   priority would break the heap order for every later sift. *)
let schedule t ?(label = default_label) ~delay f =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule: negative delay";
  push t (t.now +. delay) label f

let schedule_at t ?(label = default_label) ~time f =
  if not (time >= t.now) then invalid_arg "Engine.schedule_at: time in the past";
  push t time label f

(* --- fan-out frames ------------------------------------------------- *)

let no_event () = ()
let no_deliver (_ : int) = ()

let new_frame () =
  {
    times = [||];
    seqs = [||];
    rcvs = [||];
    len = 0;
    next = 0;
    label = 0;
    deliver = no_deliver;
  }

(* Every record is owned by a queued frame: double the pool and hand
   out the first new id, leaving the rest free. *)
let grow_pool t =
  let n = Array.length t.frames in
  let cap = max 8 (2 * n) in
  t.frames <- Array.init cap (fun i -> if i < n then t.frames.(i) else new_frame ());
  t.free <- Array.make cap 0;
  for i = 0 to cap - n - 2 do
    t.free.(i) <- cap - 1 - i
  done;
  t.n_free <- cap - n - 1;
  n

let grow_frame fr k =
  let cap = max k (2 * Array.length fr.times) in
  fr.times <- Array.make cap 0.0;
  fr.seqs <- Array.make cap 0;
  fr.rcvs <- Array.make cap 0

(* A free record with room for [k] receivers. *)
let acquire t k =
  let id =
    if t.n_free = 0 then
      (* manetcheck: cold — the pool only grows, doubling, to the most
         frames ever queued at once. *)
      grow_pool t
    else begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
  in
  let fr = t.frames.(id) in
  if Array.length fr.times < k then
    (* manetcheck: cold — a record's buffers only grow, doubling, to
       the widest frame it has held. *)
    grow_frame fr k;
  id

(* The record stops holding the handler, so a delivered frame's
   closure and message can be collected. *)
let release t id =
  t.frames.(id).deliver <- no_deliver;
  t.free.(t.n_free) <- id;
  t.n_free <- t.n_free + 1

(* The receivers are inserted one by one in index order, which is seq
   order, and an insertion moves only past strictly later times, so
   the record ends sorted by (time, seq).  A radio frame has as many
   receivers as its sender has neighbours, so the quadratic worst case
   of insertion is bounded by the node degree. *)
let schedule_frame t ?(label = default_label) k rcvs delays f =
  if k > 0 then begin
    let id = acquire t k in
    let fr = t.frames.(id) in
    let times = fr.times and seqs = fr.seqs and rs = fr.rcvs in
    let now = t.now and base = t.seq in
    for i = 0 to k - 1 do
      let delay = delays.(i) and r = rcvs.(i) in
      if not (delay >= 0.0) then begin
        release t id;
        invalid_arg "Engine.schedule_frame: negative delay"
      end;
      let time = now +. delay in
      (* manetcheck: allow hot-alloc — the ref never escapes the loop,
         so ocamlopt turns it into a mutable local. *)
      let j = ref i in
      while !j > 0 && times.(!j - 1) > time do
        times.(!j) <- times.(!j - 1);
        seqs.(!j) <- seqs.(!j - 1);
        rs.(!j) <- rs.(!j - 1);
        decr j
      done;
      times.(!j) <- time;
      seqs.(!j) <- base + i;
      rs.(!j) <- r
    done;
    fr.len <- k;
    fr.next <- 0;
    fr.label <- intern t label;
    fr.deliver <- f;
    t.seq <- base + k;
    Heap.push t.queue times.(0) seqs.(0) (-1 - id) no_event;
    t.pending <- t.pending + k;
    note_push t
  end

(* Take the current receiver off the frame at the top of the queue:
   re-key the entry at the next receiver, or drop it after the last
   one. *)
let advance t id fr =
  let next = fr.next + 1 in
  if next < fr.len then begin
    fr.next <- next;
    Heap.replace_min t.queue fr.times.(next) fr.seqs.(next)
  end
  else begin
    Heap.drop_min t.queue;
    release t id
  end

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
  t.occ_pend.(t.occ_len) <- t.pending;
  t.occ_len <- t.occ_len + 1;
  if t.occ_len > occ_capacity then begin
    let stride = t.occ_stride * 2 in
    t.occ_stride <- stride;
    t.occ_len <- occ_compact t stride 0 0;
    t.occ_next <- ((p / stride) + 1) * stride
  end
  else t.occ_next <- p + t.occ_stride

(* Everything a processed event does before its handler runs. *)
let[@inline] start_event t time id =
  (* manetcheck: allow hot-boxed-store — [time] is the box
     Heap.min_prio returned; the store copies the pointer and
     allocates nothing. *)
  t.now <- time;
  t.pending <- t.pending - 1;
  (match t.on_event with Some hook -> hook time | None -> ());
  t.processed <- t.processed + 1;
  t.counts.(id) <- t.counts.(id) + 1;
  if t.processed = t.occ_next then sample_occupancy t

let[@inline] charge t id t0 =
  t.prof_count.(id) <- t.prof_count.(id) + 1;
  t.prof_wall.(id) <- t.prof_wall.(id) +. (Mono_clock.now_s () -. t0)

(* The event loop proper, as a top-level tail recursion so a run
   allocates nothing of its own: the budget rides in an argument and
   the top entry is read field by field out of the SoA heap.  A frame
   is advanced before its receiver's handler runs, so whatever the
   handler schedules meets a queue that no longer holds that
   receiver. *)
let rec run_loop t until budget =
  if budget > 0 && not (Heap.is_empty t.queue) then begin
    let time = Heap.min_prio t.queue in
    match until with
    | Some limit when time > limit ->
        (* Leave future events queued; advance the clock to the
           horizon so repeated bounded runs make progress.  A horizon
           already behind the clock leaves it alone: time never runs
           backwards. *)
        if limit > t.now then
          (* manetcheck: allow hot-boxed-store — [limit] is the caller's
             float, already boxed; the store copies the pointer. *)
          t.now <- limit
    | _ ->
        let id = Heap.min_fst t.queue in
        if id >= 0 then begin
          let f = Heap.min_snd t.queue in
          Heap.drop_min t.queue;
          start_event t time id;
          if t.profiling then begin
            let t0 = Mono_clock.now_s () in
            f ();
            charge t id t0
          end
          else f ()
        end
        else begin
          let fid = -1 - id in
          let fr = t.frames.(fid) in
          let r = fr.rcvs.(fr.next) and f = fr.deliver and label = fr.label in
          advance t fid fr;
          start_event t time label;
          if t.profiling then begin
            let t0 = Mono_clock.now_s () in
            f r;
            charge t label t0
          end
          else f r
        end;
        run_loop t until (budget - 1)
  end

let run ?until ?max_events t =
  let run_t0 = if t.profiling then Mono_clock.now_s () else 0.0 in
  run_loop t until (match max_events with Some n -> n | None -> max_int);
  if t.profiling then
    (* manetcheck: allow hot-boxed-store — one box per profiled call of
       run, not per event. *)
    t.wall_in_run <- t.wall_in_run +. (Mono_clock.now_s () -. run_t0)

let pending t = t.pending
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
