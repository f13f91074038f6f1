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
   bits into the low bits the table indexes by. *)
module Ktbl = Hashtbl.Make (struct
  type t = key

  let equal (a : key) (b : key) =
    Int.equal a.seq b.seq && Int64.equal a.lo b.lo && Int64.equal a.ch b.ch
    && Int64.equal a.hi b.hi
    && Int.equal (kind_code a.kind) (kind_code b.kind)

  let mix h x = (h lxor x) * 0x100000001b3

  let hash (k : key) =
    let h = mix (kind_code k.kind) (Int64.to_int k.hi) in
    let h = mix (mix (mix h (Int64.to_int k.lo)) k.seq) (Int64.to_int k.ch) in
    (h lxor (h lsr 31)) land max_int
end)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* One cell per (flood, node) that received at least one copy: the
   propagation-tree edge.  [nc_parent] is the sender of the first copy
   seen (-1 when unknown), [nc_hops] its hop distance at that moment. *)
type node_cell = {
  nc_first_seen : float;
  nc_parent : int;
  nc_hops : int;
  mutable nc_verifies : int;
}

(* The last-activity time lives in an all-float record, stored flat, so
   touching a flood on every copy stores an unboxed double. *)
type last = { mutable last : float }

type flood = {
  f_id : int;
  f_kind : kind;
  f_origin : int;
  f_start : float;
  f_last : last;
  mutable f_sent : int;
  mutable f_received : int;
  mutable f_dup_suppressed : int;
  mutable f_verifies : int;
  mutable f_verify_nodes : int;
  mutable f_hop_radius : int;
  f_nodes : node_cell Itbl.t;
}

type handle = flood

type t = {
  engine : Engine.t;
  by_key : flood Ktbl.t;
  mutable rev_order : flood list; (* newest first; reversed at export *)
  mutable count : int;
}

let create engine =
  { engine; by_key = Ktbl.create 64; rev_order = []; count = 0 }

let handle t ~key ~origin =
  match Ktbl.find t.by_key key with
  | f -> f
  | exception Not_found ->
      (* manethot: cold — one registration per distinct flood over the
         whole run, not per copy handled. *)
      let f =
        {
          f_id = t.count;
          f_kind = key.kind;
          f_origin = origin;
          f_start = Engine.now t.engine;
          f_last = { last = Engine.now t.engine };
          f_sent = 0;
          f_received = 0;
          f_dup_suppressed = 0;
          f_verifies = 0;
          f_verify_nodes = 0;
          f_hop_radius = 0;
          f_nodes = Itbl.create 8;
        }
      in
      Ktbl.add t.by_key key f;
      t.rev_order <- f :: t.rev_order;
      t.count <- t.count + 1;
      f

let touch t f = f.f_last.last <- Engine.now t.engine

let sent t f =
  f.f_sent <- f.f_sent + 1;
  touch t f

let received t f ~node ~src ~hops =
  f.f_received <- f.f_received + 1;
  if hops > f.f_hop_radius then f.f_hop_radius <- hops;
  touch t f;
  if not (Itbl.mem f.f_nodes node) then
    Itbl.add f.f_nodes node
      (* manethot: allow hot-alloc — one cell per (flood, node) reached,
         not per copy received. *)
      {
        nc_first_seen = Engine.now t.engine;
        nc_parent = src;
        nc_hops = hops;
        nc_verifies = 0;
      }

let duplicate t f =
  f.f_dup_suppressed <- f.f_dup_suppressed + 1;
  touch t f

let verified t f ~node =
  f.f_verifies <- f.f_verifies + 1;
  touch t f;
  match Itbl.find f.f_nodes node with
  | cell ->
      if cell.nc_verifies = 0 then f.f_verify_nodes <- f.f_verify_nodes + 1;
      cell.nc_verifies <- cell.nc_verifies + 1
  | exception Not_found ->
      f.f_verify_nodes <- f.f_verify_nodes + 1;
      (* manethot: allow hot-alloc — defensive cell for a verify without
         a recorded reception; one per (flood, node) at most. *)
      Itbl.add f.f_nodes node
        {
          nc_first_seen = Engine.now t.engine;
          nc_parent = -1;
          nc_hops = 0;
          nc_verifies = 1;
        }

(* --- read side ---------------------------------------------------------- *)

type summary = {
  id : int;
  kind : kind;
  origin : int;
  start : float;
  last : float;
  sent : int;
  received : int;
  duplicates : int;
  verifies : int;
  verify_nodes : int;
  reached : int;
  hop_radius : int;
}

let summary_of f =
  {
    id = f.f_id;
    kind = f.f_kind;
    origin = f.f_origin;
    start = f.f_start;
    last = f.f_last.last;
    sent = f.f_sent;
    received = f.f_received;
    duplicates = f.f_dup_suppressed;
    verifies = f.f_verifies;
    verify_nodes = f.f_verify_nodes;
    reached = Itbl.length f.f_nodes;
    hop_radius = f.f_hop_radius;
  }

let summaries t = List.rev_map summary_of t.rev_order

let tree t ~id =
  let rec find = function
    | [] -> []
    | f :: rest ->
        if f.f_id = id then
          Itbl.fold
            (fun node c acc ->
              (node, (c.nc_first_seen, c.nc_parent, c.nc_hops, c.nc_verifies))
              :: acc)
            f.f_nodes []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        else find rest
  in
  find t.rev_order

let flood_count t = t.count

(* Mean extra verifications a flood costs beyond one per verifying node:
   the exact work the item-3 verification cache can eliminate. *)
let duplicate_verifies_per_flood t =
  if t.count = 0 then 0.0
  else
    let extra =
      List.fold_left
        (fun acc f ->
          let d = f.f_verifies - f.f_verify_nodes in
          acc + if d > 0 then d else 0)
        0 t.rev_order
    in
    float_of_int extra /. float_of_int t.count

(* Copies received per distinct node reached, across all floods: 1.0
   would be a perfectly efficient flood, unit-disk broadcast storms push
   it well above. *)
let flood_redundancy_ratio t =
  let recv, reached =
    List.fold_left
      (fun (r, n) f -> (r + f.f_received, n + Itbl.length f.f_nodes))
      (0, 0) t.rev_order
  in
  if reached = 0 then 0.0 else float_of_int recv /. float_of_int reached

let summary_json t =
  let per_kind k =
    List.fold_left
      (fun acc f -> if f.f_kind = k then acc + 1 else acc)
      0 t.rev_order
  in
  let totals get = List.fold_left (fun acc f -> acc + get f) 0 t.rev_order in
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
  let s = summary_of f in
  Json.Obj
    [
      ("type", Json.String "flood");
      ("id", Json.Int s.id);
      ("kind", Json.String (kind_str s.kind));
      ("origin", Json.Int s.origin);
      ("start", Json.Float s.start);
      ("last", Json.Float s.last);
      ("sent", Json.Int s.sent);
      ("received", Json.Int s.received);
      ("duplicates", Json.Int s.duplicates);
      ("verifies", Json.Int s.verifies);
      ("verify_nodes", Json.Int s.verify_nodes);
      ("reached", Json.Int s.reached);
      ("hop_radius", Json.Int s.hop_radius);
    ]

(* One line per flood in id order, then the aggregate summary line —
   appended to the timeline JSONL body so one stream carries both the
   time series and the provenance accounting. *)
let append_jsonl buf t =
  List.iter
    (fun f ->
      Json.to_buffer buf (record_json f);
      Buffer.add_char buf '\n')
    (List.rev t.rev_order);
  Json.to_buffer buf
    (Json.Obj
       [ ("type", Json.String "flood_summary"); ("floods", summary_json t) ]);
  Buffer.add_char buf '\n'
