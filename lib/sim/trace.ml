type entry = { time : float; node : int; event : string; detail : string }

(* Entries are numbered by a sequence [seq] that only grows and live in
   fixed chunks laid out as struct-of-arrays: entry [seq] is slot
   [seq land chunk_mask] of chunk [seq lsr chunk_bits].  An entry costs
   four words: a float, an int and the two string pointers (the strings
   themselves are the caller's). *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type chunk = {
  times : Float.Array.t;
  nodes : int array;
  names : string array;
  details : string array;
}

(* A bounded FIFO: its entries are those at [head <= seq < next]. *)
type t = {
  mutable on : bool;
  mutable capacity : int;
  (* [chunks.(i)] holds chunk [base + i]; empty until the first write. *)
  mutable chunks : chunk array;
  mutable base : int;
  mutable head : int;
  mutable next : int;
  mutable dropped : int;
}

let check_capacity capacity =
  if capacity < 1 then invalid_arg "Trace: capacity must be positive"

let create ?(capacity = 200_000) () =
  check_capacity capacity;
  { on = false; capacity; chunks = [||]; base = 0; head = 0; next = 0; dropped = 0 }

let enable t = t.on <- true
let disable t = t.on <- false
let is_enabled t = t.on
let length t = t.next - t.head
let dropped t = t.dropped

let new_chunk () =
  {
    times = Float.Array.create chunk_size;
    nodes = Array.make chunk_size 0;
    names = Array.make chunk_size "";
    details = Array.make chunk_size "";
  }

let[@inline] chunk t seq = t.chunks.((seq lsr chunk_bits) - t.base)

(* Let go of the chunks [head] has passed. *)
let release t =
  let k = (t.head lsr chunk_bits) - t.base in
  if k > 0 then
    (* manetcheck: cold — at most once per 1,024 entries *)
    begin
      t.chunks <- Array.sub t.chunks k (Array.length t.chunks - k);
      t.base <- t.base + k
    end

let drop_oldest t =
  t.head <- t.head + 1;
  t.dropped <- t.dropped + 1;
  release t

let set_capacity t capacity =
  check_capacity capacity;
  t.capacity <- capacity;
  while length t > capacity do
    drop_oldest t
  done

let log t ~time ~node ~event ~detail =
  if t.on then begin
    if (t.next lsr chunk_bits) - t.base = Array.length t.chunks then
      (* manetcheck: cold — once per 1,024 entries *)
      t.chunks <- Array.append t.chunks [| new_chunk () |];
    let seq = t.next in
    let c = chunk t seq in
    let i = seq land chunk_mask in
    Float.Array.unsafe_set c.times i time;
    Array.unsafe_set c.nodes i node;
    Array.unsafe_set c.names i event;
    Array.unsafe_set c.details i detail;
    t.next <- seq + 1;
    if length t > t.capacity then drop_oldest t
  end

(* Reads build [entry] values on demand; they are cold paths. *)
let fold t ~init ~f =
  let acc = ref init in
  for seq = t.head to t.next - 1 do
    let c = chunk t seq in
    let i = seq land chunk_mask in
    acc :=
      f !acc
        {
          time = Float.Array.unsafe_get c.times i;
          node = Array.unsafe_get c.nodes i;
          event = Array.unsafe_get c.names i;
          detail = Array.unsafe_get c.details i;
        }
  done;
  !acc

let entries t = List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))

let clear t =
  t.head <- t.next;
  t.dropped <- 0;
  release t

let pp_entry fmt e =
  if e.node >= 0 then
    Format.fprintf fmt "%10.4f  node %-3d  %-18s %s" e.time e.node e.event e.detail
  else Format.fprintf fmt "%10.4f  %-27s %s" e.time e.event e.detail

let render t =
  let buf = Buffer.create 1024 in
  if t.dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "[trace: %d oldest entries dropped at capacity %d]\n" t.dropped
         t.capacity);
  fold t ~init:() ~f:(fun () e ->
      Buffer.add_string buf (Format.asprintf "%a@." pp_entry e));
  Buffer.contents buf
