module Engine = Manet_sim.Engine
module Trace = Manet_sim.Trace

(* Flood keys are the protocols' own dedup keys as typed records: AREQ
   (sip, seq, ch), RREQ (sip, seq) with [ch = 0L].  [kind] is part of
   the key, so the two key spaces cannot collide.  Ids are assigned
   densely in first-origination order, which is a pure function of the
   event sequence — deterministic across replays and domain counts. *)
type kind = Areq | Rreq

let kind_str = function Areq -> "areq" | Rreq -> "rreq"

let kind_code = function Areq -> 1 | Rreq -> 2

type key = { kind : kind; hi : int64; lo : int64; seq : int; ch : int64 }

(* Monomorphic equality and hash: no polymorphic primitive and no
   allocation per lookup.  The final shift folds the multiplied high
   bits into the low bits a table indexes by. *)
let key_equal (a : key) (b : key) =
  Int.equal a.seq b.seq && Int64.equal a.lo b.lo && Int64.equal a.ch b.ch
  && Int64.equal a.hi b.hi
  && Int.equal (kind_code a.kind) (kind_code b.kind)

let mix h x = (h lxor x) * 0x100000001b3

let key_hash (k : key) =
  let h = mix (kind_code k.kind) (Int64.to_int k.hi) in
  let h = mix (mix (mix h (Int64.to_int k.lo)) k.seq) (Int64.to_int k.ch) in
  (h lxor (h lsr 31)) land max_int

module Ktbl = Hashtbl.Make (struct
  type t = key

  let equal = key_equal
  let hash = key_hash
end)

(* Each flood keeps two bits per node, indexed by node id, four nodes to
   a byte: [reached_bit] once a copy (or a verify) has reached the node
   and [verified_bit] once the node has verified a copy.  They are what
   [f_reached] and [f_verify_nodes] count, and all the per-node state a
   flood registered with the event log off keeps. *)
let reached_bit = 1
let verified_bit = 2
let mark_byte node = node lsr 2
let mark_shift node = (node land 3) lsl 1

(* The propagation tree, kept only for a flood registered while the
   event log is on: the first-seen times (a flat float array) and one
   packed int per node, 0 for a node not reached, indexed by node id.  A
   reached node's int holds its verify count in bits 0-20, its hop
   distance plus one in bits 21-40 and its parent plus one in bits
   41-61; the [+ 1]s keep a reached node's int non-zero and let the
   parent be -1 (unknown). *)
let verify_mask = (1 lsl 21) - 1
let hops_shift = 21
let hops_mask = (1 lsl 20) - 1
let parent_shift = 41
let max_node = (1 lsl 21) - 2
let max_hops = hops_mask - 1

let pack ~parent ~hops ~verifies =
  ((parent + 1) lsl parent_shift) lor ((hops + 1) lsl hops_shift) lor verifies

let cell_verifies c = c land verify_mask
let cell_hops c = ((c lsr hops_shift) land hops_mask) - 1
let cell_parent c = (c lsr parent_shift) - 1

type tree = { first_seen : Float.Array.t; cells : int array }

(* The last-activity time lives in an all-float record, stored flat, so
   touching a flood on every copy stores an unboxed double. *)
type last = { mutable last : float }

type flood = {
  f_id : int;
  f_key : key;
  f_origin : int;
  f_start : float;
  f_last : last;
  mutable f_sent : int;
  mutable f_received : int;
  mutable f_dup_suppressed : int;
  mutable f_verifies : int;
  mutable f_verify_nodes : int;
  mutable f_reached : int;
  mutable f_hop_radius : int;
  mutable f_marks : Bytes.t; (* room for [4 * length] nodes *)
  mutable f_tree : tree option;
}

type handle = flood

type t = {
  engine : Engine.t;
  by_key : flood Ktbl.t;
  mutable floods : flood array; (* by id; the first [count] are live *)
  mutable count : int;
  mutable width : int; (* 1 + the largest node id recorded so far *)
}

let create engine =
  { engine; by_key = Ktbl.create 64; floods = [||]; count = 0; width = 0 }

let add_flood t f =
  if t.count = Array.length t.floods then
    (* manetcheck: cold — doubling, so O(1) amortized per registration,
       itself once per distinct flood over the whole run. *)
    t.floods <- Array.append t.floods (Array.make (max 64 t.count) f);
  t.floods.(t.count) <- f;
  t.count <- t.count + 1

(* Node arrays with room for [n] nodes: [n] rounded up to whole mark
   bytes. *)
let marks_for n = Bytes.make ((n + 3) lsr 2) '\000'

let tree_for n =
  let n = 4 * ((n + 3) lsr 2) in
  { first_seen = Float.Array.make n 0.0; cells = Array.make n 0 }

let handle t ~key ~origin =
  match Ktbl.find t.by_key key with
  | f -> f
  | exception Not_found ->
      (* manetcheck: cold — one registration per distinct flood over the
         whole run, not per copy handled.  Its node arrays start at the
         widest node id any flood has recorded, so on a bootstrap only
         the first flood ever grows them. *)
      let f =
        {
          f_id = t.count;
          f_key = key;
          f_origin = origin;
          f_start = Engine.now t.engine;
          f_last = { last = Engine.now t.engine };
          f_sent = 0;
          f_received = 0;
          f_dup_suppressed = 0;
          f_verifies = 0;
          f_verify_nodes = 0;
          f_reached = 0;
          f_hop_radius = 0;
          f_marks = marks_for t.width;
          f_tree =
            (if Trace.is_enabled (Engine.trace t.engine) then
               Some (tree_for t.width)
             else None);
        }
      in
      Ktbl.add t.by_key key f;
      add_flood t f;
      f

(* Make [node] a valid index of [f]'s node arrays.  Up to the registry's
   width they grow straight to it; past it (a node id no flood has
   recorded yet) they double, so the flood that first reaches a new node
   range grows O(log N) times. *)
let grow t f node =
  if node < 0 || node > max_node then invalid_arg "Flood: node id out of range";
  let len = 4 * Bytes.length f.f_marks in
  let n = if node < t.width then t.width else max (node + 1) (2 * len) in
  let marks = marks_for n in
  Bytes.blit f.f_marks 0 marks 0 (Bytes.length f.f_marks);
  f.f_marks <- marks;
  match f.f_tree with
  | None -> ()
  | Some tr ->
      let grown = tree_for n in
      Array.blit tr.cells 0 grown.cells 0 len;
      Float.Array.blit tr.first_seen 0 grown.first_seen 0 len;
      f.f_tree <- Some grown

let marks f node =
  (Bytes.get_uint8 f.f_marks (mark_byte node) lsr mark_shift node) land 3

let set_mark f node bit =
  let i = mark_byte node in
  Bytes.set_uint8 f.f_marks i
    (Bytes.get_uint8 f.f_marks i lor (bit lsl mark_shift node))

(* [node]'s first copy (or a verify with no recorded reception,
   [parent = -1]): its reached mark and, with a tree, its tree edge. *)
let reach t f ~node ~parent ~hops =
  if parent < -1 || parent > max_node || hops < 0 || hops > max_hops then
    invalid_arg "Flood: parent or hop count out of range";
  set_mark f node reached_bit;
  f.f_reached <- f.f_reached + 1;
  if node >= t.width then t.width <- node + 1;
  match f.f_tree with
  | None -> ()
  | Some tr ->
      tr.cells.(node) <- pack ~parent ~hops ~verifies:0;
      Float.Array.set tr.first_seen node (Engine.now t.engine)

let touch t f = f.f_last.last <- Engine.now t.engine

let sent t f =
  f.f_sent <- f.f_sent + 1;
  touch t f

let received t f ~node ~src ~hops =
  f.f_received <- f.f_received + 1;
  if hops > f.f_hop_radius then f.f_hop_radius <- hops;
  touch t f;
  if mark_byte node >= Bytes.length f.f_marks then
    (* manetcheck: cold — only the first flood to reach a node id grows
       its arrays; later floods are created at full width. *)
    grow t f node;
  if marks f node land reached_bit = 0 then
    (* manetcheck: cold — once per (flood, node) reached, not per copy *)
    reach t f ~node ~parent:src ~hops

let duplicate t f =
  f.f_dup_suppressed <- f.f_dup_suppressed + 1;
  touch t f

let verified t f ~node =
  f.f_verifies <- f.f_verifies + 1;
  touch t f;
  if mark_byte node >= Bytes.length f.f_marks then
    (* manetcheck: cold — as in [received]. *)
    grow t f node;
  let m = marks f node in
  if m land verified_bit = 0 then begin
    f.f_verify_nodes <- f.f_verify_nodes + 1;
    (* A verify without a recorded reception reaches the node too. *)
    if m land reached_bit = 0 then reach t f ~node ~parent:(-1) ~hops:0;
    set_mark f node verified_bit
  end;
  match f.f_tree with
  | None -> ()
  | Some tr ->
      let c = tr.cells.(node) in
      if cell_verifies c = verify_mask then
        invalid_arg "Flood: verify count out of range";
      tr.cells.(node) <- c + 1

(* --- seen sets ----------------------------------------------------------- *)

(* Per-node dedup set of floods: a bitset over the registry's dense
   flood ids, bit [id land 7] of byte [id lsr 3].  It grows by doubling
   to cover the largest id added, so a node that sees most floods of a
   run pays about one bit per flood.  [find] looks the key up in the
   registry's key index and then tests the flood's bit. *)
module Seen = struct
  type registry = t
  type t = { mutable bits : Bytes.t }

  let create () = { bits = Bytes.empty }

  let mem s f =
    let i = f.f_id lsr 3 in
    i < Bytes.length s.bits
    && Bytes.get_uint8 s.bits i land (1 lsl (f.f_id land 7)) <> 0

  (* Double the bitset until byte [i] is in it. *)
  let grow s i =
    let n = max (i + 1) (max 8 (2 * Bytes.length s.bits)) in
    let bits = Bytes.make n '\000' in
    Bytes.blit s.bits 0 bits 0 (Bytes.length s.bits);
    s.bits <- bits

  let add s f =
    let i = f.f_id lsr 3 in
    if i >= Bytes.length s.bits then
      (* manetcheck: cold — doubling, O(1) amortized per insert, and an
         insert happens once per (flood, node). *)
      grow s i;
    Bytes.set_uint8 s.bits i
      (Bytes.get_uint8 s.bits i lor (1 lsl (f.f_id land 7)))

  let find (reg : registry) s key =
    let f = Ktbl.find reg.by_key key in
    if mem s f then f else raise Not_found
end

(* --- read side ---------------------------------------------------------- *)

(* Floods in id order. *)
let fold t f acc =
  let acc = ref acc in
  for i = 0 to t.count - 1 do
    acc := f !acc t.floods.(i)
  done;
  !acc

let tree t ~id =
  if id < 0 || id >= t.count then []
  else
    match t.floods.(id).f_tree with
    | None -> []
    | Some tr ->
        let cells = ref [] in
        for node = Array.length tr.cells - 1 downto 0 do
          let c = tr.cells.(node) in
          if c <> 0 then
            cells :=
              ( node,
                ( Float.Array.get tr.first_seen node,
                  cell_parent c,
                  cell_hops c,
                  cell_verifies c ) )
              :: !cells
        done;
        !cells

(* Mean extra verifications a flood costs beyond one per verifying node:
   the exact work the item-3 verification cache can eliminate. *)
let duplicate_verifies_per_flood t =
  if t.count = 0 then 0.0
  else
    let extra =
      fold t
        (fun acc f ->
          let d = f.f_verifies - f.f_verify_nodes in
          acc + if d > 0 then d else 0)
        0
    in
    float_of_int extra /. float_of_int t.count

(* Copies received per distinct node reached, across all floods: 1.0
   would be a perfectly efficient flood, unit-disk broadcast storms push
   it well above. *)
let flood_redundancy_ratio t =
  let recv = fold t (fun acc f -> acc + f.f_received) 0 in
  let reached = fold t (fun acc f -> acc + f.f_reached) 0 in
  if reached = 0 then 0.0 else float_of_int recv /. float_of_int reached

let summary_json t =
  let per_kind k =
    fold t (fun acc f -> if f.f_key.kind = k then acc + 1 else acc) 0
  in
  let totals get = fold t (fun acc f -> acc + get f) 0 in
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("areq", Json.Int (per_kind Areq));
      ("rreq", Json.Int (per_kind Rreq));
      ("copies_sent", Json.Int (totals (fun f -> f.f_sent)));
      ("copies_received", Json.Int (totals (fun f -> f.f_received)));
      ("duplicates_suppressed", Json.Int (totals (fun f -> f.f_dup_suppressed)));
      ("verifies", Json.Int (totals (fun f -> f.f_verifies)));
      ( "duplicate_verifies_per_flood",
        Json.Float (duplicate_verifies_per_flood t) );
      ("flood_redundancy_ratio", Json.Float (flood_redundancy_ratio t));
    ]

let record_json f =
  Json.Obj
    [
      ("type", Json.String "flood");
      ("id", Json.Int f.f_id);
      ("kind", Json.String (kind_str f.f_key.kind));
      ("origin", Json.Int f.f_origin);
      ("start", Json.Float f.f_start);
      ("last", Json.Float f.f_last.last);
      ("sent", Json.Int f.f_sent);
      ("received", Json.Int f.f_received);
      ("duplicates", Json.Int f.f_dup_suppressed);
      ("verifies", Json.Int f.f_verifies);
      ("verify_nodes", Json.Int f.f_verify_nodes);
      ("reached", Json.Int f.f_reached);
      ("hop_radius", Json.Int f.f_hop_radius);
    ]

(* One line per flood in id order, then the aggregate summary line —
   appended to the timeline JSONL body so one stream carries both the
   time series and the provenance accounting. *)
let append_jsonl buf t =
  for i = 0 to t.count - 1 do
    Json.to_buffer buf (record_json t.floods.(i));
    Buffer.add_char buf '\n'
  done;
  Json.to_buffer buf
    (Json.Obj
       [ ("type", Json.String "flood_summary"); ("floods", summary_json t) ]);
  Buffer.add_char buf '\n'
