type entry = { time : float; node : int; event : string; detail : string }

(* One store holds every event either view takes, numbered by a
   sequence [seq] that only grows.  Entries live in fixed chunks laid
   out as struct-of-arrays: entry [seq] is slot [seq land chunk_mask] of
   chunk [seq lsr chunk_bits].  [nodes] packs the acting node above two
   membership bits, one per view, so an event both views take is
   stored once and costs four words: a float, a packed int and the two
   string pointers (the strings themselves are the caller's). *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let ring_bit = 1
let capture_bit = 2

type chunk = {
  times : Float.Array.t;
  nodes : int array; (* node lsl 2 lor membership bits *)
  names : string array;
  details : string array;
}

(* A bounded FIFO view over the store: its entries are the ones carrying
   its [bit] at [seq >= head] (when [len > 0]).  Dropping the oldest
   entry advances [head] to the next entry carrying the bit; the bits of
   entries behind [head] are never read again. *)
type view = {
  bit : int;
  mutable on : bool;
  mutable capacity : int;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
}

type t = {
  ring : view;
  capture : view;
  (* [chunks.(i)] holds chunk [base + i]; empty until the first write. *)
  mutable chunks : chunk array;
  mutable base : int;
  mutable next : int; (* seq of the next entry *)
}

let view bit capacity =
  if capacity < 1 then invalid_arg "Trace: capacity must be positive";
  { bit; on = false; capacity; head = 0; len = 0; dropped = 0 }

let create ?(capacity = 100_000) () =
  {
    ring = view ring_bit capacity;
    capture = view capture_bit 200_000;
    chunks = [||];
    base = 0;
    next = 0;
  }

let enable t = t.ring.on <- true
let disable t = t.ring.on <- false
let is_enabled t = t.ring.on
let set_capture t on = t.capture.on <- on
let is_capturing t = t.capture.on

let new_chunk () =
  {
    times = Float.Array.create chunk_size;
    nodes = Array.make chunk_size 0;
    names = Array.make chunk_size "";
    details = Array.make chunk_size "";
  }

let[@inline] chunk t seq = t.chunks.((seq lsr chunk_bits) - t.base)

(* The oldest seq a view still needs; an empty view needs none. *)
let[@inline] needed t v = if v.len = 0 then t.next else v.head

(* Let go of the chunks both views have passed. *)
let release t =
  let k = (Int.min (needed t t.ring) (needed t t.capture) lsr chunk_bits) - t.base in
  if k > 0 then
    (* manetcheck: cold — at most once per 1,024 entries *)
    begin
      t.chunks <- Array.sub t.chunks k (Array.length t.chunks - k);
      t.base <- t.base + k
    end

let rec next_member t bit seq =
  let c = chunk t seq in
  if Array.unsafe_get c.nodes (seq land chunk_mask) land bit <> 0 then seq
  else next_member t bit (seq + 1)

let drop_oldest t v =
  v.len <- v.len - 1;
  v.dropped <- v.dropped + 1;
  v.head <- next_member t v.bit (v.head + 1);
  release t

let admit t v seq =
  if v.len = 0 then v.head <- seq;
  v.len <- v.len + 1;
  if v.len > v.capacity then drop_oldest t v

let set_capture_capacity t capacity =
  if capacity < 1 then invalid_arg "Trace: capacity must be positive";
  t.capture.capacity <- capacity;
  while t.capture.len > capacity do
    drop_oldest t t.capture
  done

let[@inline] live v seq packed = v.len > 0 && seq >= v.head && packed land v.bit <> 0

(* A view that is off keeps its entries, so its head stays put while the
   other view logs on: every entry after that head stays in the store.
   Compaction moves the entries some view still holds down over the
   rest, in place and in order, and lets go of the chunks that frees. *)
let compact t =
  let first = t.base lsl chunk_bits in
  let w = ref first in
  let ring_head = ref (-1) and capture_head = ref (-1) in
  for r = Int.min (needed t t.ring) (needed t t.capture) to t.next - 1 do
    let c = chunk t r in
    let i = r land chunk_mask in
    let packed = Array.unsafe_get c.nodes i in
    let in_ring = live t.ring r packed and in_capture = live t.capture r packed in
    if in_ring || in_capture then begin
      if in_ring && !ring_head < 0 then ring_head := !w;
      if in_capture && !capture_head < 0 then capture_head := !w;
      let d = chunk t !w in
      let j = !w land chunk_mask in
      Float.Array.unsafe_set d.times j (Float.Array.unsafe_get c.times i);
      Array.unsafe_set d.nodes j packed;
      Array.unsafe_set d.names j (Array.unsafe_get c.names i);
      Array.unsafe_set d.details j (Array.unsafe_get c.details i);
      incr w
    end
  done;
  if !ring_head >= 0 then t.ring.head <- !ring_head;
  if !capture_head >= 0 then t.capture.head <- !capture_head;
  t.next <- !w;
  (* Keep the chunk [next] falls in; clear its unused slots so the
     strings moved out of them can be collected. *)
  let keep = (!w lsr chunk_bits) - t.base + 1 in
  if keep < Array.length t.chunks then t.chunks <- Array.sub t.chunks 0 keep;
  let c = chunk t !w in
  Array.fill c.names (!w land chunk_mask) (chunk_size - (!w land chunk_mask)) "";
  Array.fill c.details (!w land chunk_mask) (chunk_size - (!w land chunk_mask)) ""

(* Called when [next] reaches the end of the last chunk.  The store
   never spans more than twice the entries the views hold plus a chunk
   before compacting, so memory stays bounded by the capacities and a
   compaction's cost is paid for by the dead entries it drops. *)
let grow t =
  if t.next - (t.base lsl chunk_bits) > (2 * (t.ring.len + t.capture.len)) + chunk_size
  then compact t;
  if (t.next lsr chunk_bits) - t.base = Array.length t.chunks then
    t.chunks <- Array.append t.chunks [| new_chunk () |]

let store t bits ~time ~node ~event ~detail =
  if (t.next lsr chunk_bits) - t.base = Array.length t.chunks then
    (* manetcheck: cold — once per 1,024 entries *)
    grow t;
  let seq = t.next in
  let c = chunk t seq in
  let i = seq land chunk_mask in
  Float.Array.unsafe_set c.times i time;
  Array.unsafe_set c.nodes i ((node lsl 2) lor bits);
  Array.unsafe_set c.names i event;
  Array.unsafe_set c.details i detail;
  t.next <- seq + 1;
  if bits land ring_bit <> 0 then admit t t.ring seq;
  if bits land capture_bit <> 0 then admit t t.capture seq

let log t ~time ~node ~event ~detail =
  if t.ring.on then store t ring_bit ~time ~node ~event ~detail

let log_shared t ~time ~node ~event ~detail =
  let bits =
    (if t.ring.on then ring_bit else 0) lor if t.capture.on then capture_bit else 0
  in
  if bits <> 0 then store t bits ~time ~node ~event ~detail

(* Reads build [entry] values on demand; they are cold paths. *)
let fold_view t v ~init ~f =
  if v.len = 0 then init
  else begin
    let acc = ref init in
    for seq = v.head to t.next - 1 do
      let c = chunk t seq in
      let i = seq land chunk_mask in
      let packed = Array.unsafe_get c.nodes i in
      if packed land v.bit <> 0 then
        acc :=
          f !acc
            {
              time = Float.Array.unsafe_get c.times i;
              node = packed asr 2;
              event = Array.unsafe_get c.names i;
              detail = Array.unsafe_get c.details i;
            }
    done;
    !acc
  end

let fold t ~init ~f = fold_view t t.ring ~init ~f
let entries t = List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))

let find t ~event =
  List.rev
    (fold t ~init:[] ~f:(fun acc e ->
         if String.equal e.event event then e :: acc else acc))

let clear t =
  t.ring.len <- 0;
  t.ring.dropped <- 0;
  release t

let length t = t.ring.len
let dropped t = t.ring.dropped
let fold_captured t ~init ~f = fold_view t t.capture ~init ~f
let captured_length t = t.capture.len
let captured_dropped t = t.capture.dropped

let pp_entry fmt e =
  if e.node >= 0 then
    Format.fprintf fmt "%10.4f  node %-3d  %-18s %s" e.time e.node e.event e.detail
  else Format.fprintf fmt "%10.4f  %-27s %s" e.time e.event e.detail

let render t =
  let buf = Buffer.create 1024 in
  if t.ring.dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "[trace: %d oldest entries dropped at capacity %d]\n"
         t.ring.dropped t.ring.capacity);
  fold t ~init:() ~f:(fun () e ->
      Buffer.add_string buf (Format.asprintf "%a@." pp_entry e));
  Buffer.contents buf
