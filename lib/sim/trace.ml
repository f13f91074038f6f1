type entry = { time : float; node : int; event : string; detail : string }

module Stbl = Hashtbl.Make (String)

type t = {
  mutable enabled : bool;
  capacity : int;
  buf : entry Queue.t;
  (* Per-event-tag index mirroring [buf]: each tag maps to its entries in
     insertion order, so [find] costs O(matches) instead of rescanning
     the whole ring per query.  Maintained on every push and drop. *)
  index : entry Queue.t Stbl.t;
  mutable dropped : int;
}

let create ?(capacity = 100_000) () =
  {
    enabled = false;
    capacity;
    buf = Queue.create ();
    index = Stbl.create 64;
    dropped = 0;
  }

let enable t = t.enabled <- true
let disable t = t.enabled <- false
let is_enabled t = t.enabled

let index_queue t event =
  match Stbl.find_opt t.index event with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Stbl.add t.index event q;
      q

let log t ~time ~node ~event ~detail =
  if t.enabled then begin
    if Queue.length t.buf >= t.capacity then begin
      let oldest = Queue.pop t.buf in
      (* The index queue for the dropped entry's tag is non-empty and its
         front is that same entry: both structures grow in push order. *)
      (match Stbl.find_opt t.index oldest.event with
      | Some q -> ignore (Queue.pop q)
      | None -> ());
      t.dropped <- t.dropped + 1
    end;
    let e = { time; node; event; detail } in
    Queue.push e t.buf;
    Queue.push e (index_queue t event)
  end

let entries t = List.of_seq (Queue.to_seq t.buf)

let find t ~event =
  match Stbl.find_opt t.index event with
  | None -> []
  | Some q -> List.of_seq (Queue.to_seq q)

let fold t ~init ~f = Queue.fold f init t.buf

let clear t =
  Queue.clear t.buf;
  Stbl.reset t.index;
  t.dropped <- 0

let length t = Queue.length t.buf
let dropped t = t.dropped

let pp_entry fmt e =
  if e.node >= 0 then
    Format.fprintf fmt "%10.4f  node %-3d  %-18s %s" e.time e.node e.event e.detail
  else Format.fprintf fmt "%10.4f  %-27s %s" e.time e.event e.detail

let render t =
  let buf = Buffer.create 1024 in
  if t.dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "[trace: %d oldest entries dropped at capacity %d]\n"
         t.dropped t.capacity);
  Queue.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "%a@." pp_entry e))
    t.buf;
  Buffer.contents buf
