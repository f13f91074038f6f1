module Engine = Manet_sim.Engine

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

(* The propagation tree is stored per flood as two arrays indexed by
   node id: the first-seen times (a flat float array) and one packed
   int per node, 0 for a node not reached.  A reached node's int holds
   its verify count in bits 0-20, its hop distance plus one in bits
   21-40 and its parent plus one in bits 41-61; the [+ 1]s keep a
   reached node's int non-zero and let the parent be -1 (unknown). *)
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
  mutable f_first_seen : Float.Array.t;
  mutable f_cells : int array;
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
          f_first_seen = Float.Array.make t.width 0.0;
          f_cells = Array.make t.width 0;
        }
      in
      Ktbl.add t.by_key key f;
      add_flood t f;
      f

(* Make [node] a valid index of [f]'s node arrays.  Up to the registry's
   width the arrays grow straight to it; past it (a node id no flood has
   recorded yet) they double, so the flood that first reaches a new node
   range grows O(log N) times. *)
let grow t f node =
  if node < 0 || node > max_node then invalid_arg "Flood: node id out of range";
  let len = Array.length f.f_cells in
  let n = if node < t.width then t.width else max (node + 1) (2 * len) in
  let cells = Array.make n 0 in
  Array.blit f.f_cells 0 cells 0 len;
  let first_seen = Float.Array.make n 0.0 in
  Float.Array.blit f.f_first_seen 0 first_seen 0 len;
  f.f_cells <- cells;
  f.f_first_seen <- first_seen

(* The tree edge of [node]'s first copy (or of a verify with no recorded
   reception, [parent = -1]). *)
let reach t f ~node ~parent ~hops ~verifies =
  if parent < -1 || parent > max_node || hops < 0 || hops > max_hops then
    invalid_arg "Flood: parent or hop count out of range";
  f.f_cells.(node) <- pack ~parent ~hops ~verifies;
  Float.Array.set f.f_first_seen node (Engine.now t.engine);
  f.f_reached <- f.f_reached + 1;
  if node >= t.width then t.width <- node + 1

let touch t f = f.f_last.last <- Engine.now t.engine

let sent t f =
  f.f_sent <- f.f_sent + 1;
  touch t f

let received t f ~node ~src ~hops =
  f.f_received <- f.f_received + 1;
  if hops > f.f_hop_radius then f.f_hop_radius <- hops;
  touch t f;
  if node >= Array.length f.f_cells then
    (* manetcheck: cold — only the first flood to reach a node id grows
       its arrays; later floods are created at full width. *)
    grow t f node;
  if f.f_cells.(node) = 0 then
    (* manetcheck: cold — once per (flood, node) reached, not per copy *)
    reach t f ~node ~parent:src ~hops ~verifies:0

let duplicate t f =
  f.f_dup_suppressed <- f.f_dup_suppressed + 1;
  touch t f

let verified t f ~node =
  f.f_verifies <- f.f_verifies + 1;
  touch t f;
  if node >= Array.length f.f_cells then
    (* manetcheck: cold — as in [received]. *)
    grow t f node;
  let c = f.f_cells.(node) in
  if c = 0 then begin
    (* A verify without a recorded reception gets a defensive cell. *)
    f.f_verify_nodes <- f.f_verify_nodes + 1;
    reach t f ~node ~parent:(-1) ~hops:0 ~verifies:1
  end
  else begin
    let v = cell_verifies c in
    if v = 0 then f.f_verify_nodes <- f.f_verify_nodes + 1;
    if v = verify_mask then invalid_arg "Flood: verify count out of range";
    f.f_cells.(node) <- c + 1
  end

(* --- seen sets ----------------------------------------------------------- *)

(* Per-node dedup set of floods, open-addressed with linear probing.
   Each slot holds one int: -1 when empty, else the key's hash (31
   bits) above the flood id (31 bits).  The hash bits let a probe skip
   other floods without touching their records, [mem] compare whole
   slots and growth rehash without the registry; only [find], which
   starts from a bare key, reads a candidate's key back through the
   registry.  The load factor stays at most 3/4, so a slot array costs
   at most 8/3 words per entry right after it doubles. *)
module Seen = struct
  type registry = t
  type t = { mutable slots : int array; mutable size : int }

  let id_bits = 31
  let id_mask = (1 lsl id_bits) - 1

  let create () = { slots = Array.make 8 (-1); size = 0 }
  let slot_of f = ((key_hash f.f_key land id_mask) lsl id_bits) lor f.f_id

  (* Index of [v]'s slot, or of the empty slot that ends its probe run. *)
  let rec probe slots mask v i =
    let x = slots.(i) in
    if x = v || x < 0 then i else probe slots mask v ((i + 1) land mask)

  let index slots v =
    let mask = Array.length slots - 1 in
    probe slots mask v ((v lsr id_bits) land mask)

  let mem s f =
    let v = slot_of f in
    s.slots.(index s.slots v) = v

  (* Double the slot array, rehashing from the stored hash bits, and
     insert [v]. *)
  let grow s v =
    let slots = Array.make (2 * Array.length s.slots) (-1) in
    Array.iter (fun x -> if x >= 0 then slots.(index slots x) <- x) s.slots;
    slots.(index slots v) <- v;
    s.slots <- slots

  let add s f =
    let v = slot_of f in
    let i = index s.slots v in
    if s.slots.(i) <> v then begin
      s.size <- s.size + 1;
      if 4 * s.size > 3 * Array.length s.slots then
        (* manetcheck: cold — doubling, O(1) amortized per insert, and an
           insert happens once per (flood, node). *)
        grow s v
      else s.slots.(i) <- v
    end

  let rec find_from (reg : registry) slots mask h key i =
    let x = slots.(i) in
    if x < 0 then raise Not_found
    else if x lsr id_bits = h && key_equal reg.floods.(x land id_mask).f_key key
    then reg.floods.(x land id_mask)
    else find_from reg slots mask h key ((i + 1) land mask)

  let find reg s key =
    let h = key_hash key land id_mask in
    let slots = s.slots in
    let mask = Array.length slots - 1 in
    find_from reg slots mask h key (h land mask)
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
    let f = t.floods.(id) in
    let cells = ref [] in
    for node = Array.length f.f_cells - 1 downto 0 do
      let c = f.f_cells.(node) in
      if c <> 0 then
        cells :=
          ( node,
            ( Float.Array.get f.f_first_seen node,
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
