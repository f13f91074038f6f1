module Prng = Manet_crypto.Prng

type profile_entry = { p_count : int; p_wall_s : float }

(* All-float, so OCaml stores it flat and charging an event allocates
   nothing; the count is exact in a float far beyond any run's length. *)
type prof_cell = { mutable c_count : float; mutable c_wall_s : float }

(* Label-keyed side tables use a monomorphic string hash: the generic
   [Hashtbl] would hash and compare labels through the polymorphic
   primitives on every processed event. *)
module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

(* The occupancy series decimates itself to stay bounded: samples are
   taken every [occ_stride] processed events, and when the buffer would
   exceed [occ_capacity] every other sample is dropped and the stride
   doubles.  Both operations depend only on the processed-event count,
   so the series is a pure function of the run — byte-identical across
   replays and domain counts.  Samples live in two parallel int arrays
   (index, pending) so sampling allocates nothing. *)
let occ_capacity = 512

type t = {
  mutable now : float;
  queue : (string, unit -> unit) Heap.t;
  rng : Prng.t;
  stats : Stats.t;
  trace : Trace.t;
  mutable processed : int;
  (* Deterministic perf accounting (always on): per-label processed
     event counts, queue high-water mark, and the sampled occupancy
     series.  All are pure functions of the event sequence — they read
     no clock and draw no randomness — so keeping them on costs a few
     table updates per event and perturbs nothing. *)
  counts : int ref Stbl.t;
  mutable max_pending : int;
  occ_idx : int array; (* processed index of sample i, oldest first *)
  occ_pend : int array; (* pending depth of sample i *)
  mutable occ_len : int;
  mutable occ_stride : int;
  (* Wall-clock profiling (opt-in).  Lives entirely outside the
     deterministic domain: enabling it changes no event order, no PRNG
     draw and no trace byte. *)
  mutable profiling : bool;
  prof : prof_cell Stbl.t;
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
    counts = Stbl.create 32;
    max_pending = 0;
    occ_idx = Array.make (occ_capacity + 1) 0;
    occ_pend = Array.make (occ_capacity + 1) 0;
    occ_len = 0;
    occ_stride = 1;
    profiling = false;
    prof = Stbl.create 32;
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

let schedule t ?(label = default_label) ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  Heap.push t.queue (t.now +. delay) label f;
  note_push t

let schedule_at t ?(label = default_label) ~time f =
  if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
  Heap.push t.queue time label f;
  note_push t

let count_label t label =
  match Stbl.find t.counts label with
  | r -> incr r
  | exception Not_found ->
      (* manethot: allow hot-alloc — one ref per distinct label over the
         whole run, not per event. *)
      Stbl.add t.counts label (ref 1)

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

let sample_occupancy t =
  if t.processed mod t.occ_stride = 0 then begin
    t.occ_idx.(t.occ_len) <- t.processed;
    t.occ_pend.(t.occ_len) <- Heap.size t.queue;
    t.occ_len <- t.occ_len + 1;
    if t.occ_len > occ_capacity then begin
      let stride = t.occ_stride * 2 in
      t.occ_stride <- stride;
      t.occ_len <- occ_compact t stride 0 0
    end
  end

let charge t label dt =
  let cell =
    match Stbl.find t.prof label with
    | c -> c
    | exception Not_found ->
        (* manethot: allow hot-alloc — one cell per distinct label over
           the whole profiled run, not per event. *)
        let c = { c_count = 0.0; c_wall_s = 0.0 } in
        Stbl.add t.prof label c;
        c
  in
  cell.c_count <- cell.c_count +. 1.0;
  cell.c_wall_s <- cell.c_wall_s +. dt

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
        (* manethot: allow hot-boxed-store — [limit] is the caller's
           float, already boxed; the store copies the pointer. *)
        t.now <- limit
    | _ ->
        let label = Heap.min_fst t.queue in
        let f = Heap.min_snd t.queue in
        Heap.drop_min t.queue;
        (* manethot: allow hot-boxed-store — [time] is the box
           Heap.min_prio returned; the store copies the pointer and
           allocates nothing. *)
        t.now <- time;
        (match t.on_event with Some hook -> hook time | None -> ());
        t.processed <- t.processed + 1;
        count_label t label;
        sample_occupancy t;
        if t.profiling then begin
          let t0 = Mono_clock.now_s () in
          f ();
          charge t label (Mono_clock.now_s () -. t0)
        end
        else f ();
        run_loop t until (budget - 1)
  end

let run ?until ?max_events t =
  let run_t0 = if t.profiling then Mono_clock.now_s () else 0.0 in
  run_loop t until (match max_events with Some n -> n | None -> max_int);
  if t.profiling then
    (* manethot: allow hot-boxed-store — one box per profiled call of
       run, not per event. *)
    t.wall_in_run <- t.wall_in_run +. (Mono_clock.now_s () -. run_t0)

let pending t = Heap.size t.queue
let events_processed t = t.processed

let label_counts t =
  Stbl.fold (fun label r acc -> (label, !r) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let occupancy t =
  List.init t.occ_len (fun i -> (t.occ_idx.(i), t.occ_pend.(i)))

let occupancy_stride t = t.occ_stride
let max_pending t = t.max_pending

let set_profiling t on = t.profiling <- on
let profiling t = t.profiling
let set_on_event t hook = t.on_event <- hook

let profile t =
  Stbl.fold
    (fun label c acc ->
      (label, { p_count = int_of_float c.c_count; p_wall_s = c.c_wall_s }) :: acc)
    t.prof []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let wall_in_run t = t.wall_in_run

let events_per_sec t =
  let profiled = Stbl.fold (fun _ c acc -> acc + int_of_float c.c_count) t.prof 0 in
  if t.wall_in_run > 0.0 && profiled > 0 then
    float_of_int profiled /. t.wall_in_run
  else 0.0

let log t ~node ~event ~detail =
  Trace.log t.trace ~time:t.now ~node ~event ~detail
