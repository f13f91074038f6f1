module Prng = Manet_crypto.Prng

(* Float parameters of the neighbour index.  The record is all-float,
   so OCaml stores it flat and updating a field allocates nothing. *)
type frame = {
  mutable range : float;  (* the range the index was built for *)
  mutable cell : float;  (* cell side, never below [range] *)
  mutable x0 : float;  (* smallest and largest finite coordinates *)
  mutable y0 : float;
  mutable x1 : float;
  mutable y1 : float;
}

(* Uniform-grid neighbour index over the current positions, built at
   the first query and rebuilt at the first query after a move (a new
   move epoch) or a change of range.  Cells are [frame.cell] wide and
   numbered row-major; the nodes of cell [c] are [members.(first.(c))]
   .. [members.(first.(c + 1) - 1)], in ascending id order. *)
type index = {
  mutable built : int;  (* move epoch it was built at; -1: never *)
  frame : frame;
  mutable cols : int;
  mutable rows : int;
  cell_of : int array;  (* node -> cell *)
  members : int array;
  mutable first : int array;  (* length >= cells + 1 *)
  heads : int array;  (* merge cursors, one per run of the 3x3 block *)
  ends : int array;
}

type t = {
  xs : float array;
  ys : float array;
  width : float;
  height : float;
  ix : index;
  mutable epoch : int;  (* [set_position] calls so far *)
}

let create ~n ~width ~height =
  if n <= 0 then invalid_arg "Topology.create: n <= 0";
  {
    xs = Array.make n 0.0;
    ys = Array.make n 0.0;
    width;
    height;
    ix =
      {
        built = -1;
        frame =
          { range = nan; cell = 0.0; x0 = 0.0; y0 = 0.0; x1 = 0.0; y1 = 0.0 };
        cols = 1;
        rows = 1;
        cell_of = Array.make n 0;
        members = Array.make n 0;
        first = [||];
        heads = Array.make 9 0;
        ends = Array.make 9 0;
      };
    epoch = 0;
  }

let random g ~n ~width ~height =
  let t = create ~n ~width ~height in
  for i = 0 to n - 1 do
    t.xs.(i) <- Prng.float g width;
    t.ys.(i) <- Prng.float g height
  done;
  t

let chain ~n ~spacing =
  let t = create ~n ~width:(float_of_int (n - 1) *. spacing +. 1.0) ~height:1.0 in
  for i = 0 to n - 1 do
    t.xs.(i) <- float_of_int i *. spacing
  done;
  t

let grid ~rows ~cols ~spacing =
  let n = rows * cols in
  let t =
    create ~n
      ~width:(float_of_int (cols - 1) *. spacing +. 1.0)
      ~height:(float_of_int (rows - 1) *. spacing +. 1.0)
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let i = (r * cols) + c in
      t.xs.(i) <- float_of_int c *. spacing;
      t.ys.(i) <- float_of_int r *. spacing
    done
  done;
  t

let size t = Array.length t.xs
let width t = t.width
let height t = t.height
let position t i = (t.xs.(i), t.ys.(i))

let set_position t i (x, y) =
  t.xs.(i) <- x;
  t.ys.(i) <- y;
  t.epoch <- t.epoch + 1

let epoch t = t.epoch

(* Inlined into [in_range], so the square root stays an unboxed float
   instead of crossing a call as a box. *)
let[@inline] distance t i j =
  let dx = t.xs.(i) -. t.xs.(j) and dy = t.ys.(i) -. t.ys.(j) in
  sqrt ((dx *. dx) +. (dy *. dy))

let in_range t ~range i j = i <> j && distance t i j <= range

(* --- neighbour index ---------------------------------------------------- *)

(* Cells are a hair wider than the range.  A pair that [in_range]
   accepts can lie a few ulps beyond [range] apart, and the cell
   coordinates carry rounding of their own; the slack keeps every such
   pair in adjacent cells for any grid up to ~2^30 cells across, far
   beyond [max_cells]. *)
let cell_slack = 1.0 +. 0x1p-20

(* At most this many cells: a range tiny against the field widens the
   cells instead of allocating a huge, almost empty grid. *)
let max_cells t = (4 * size t) + 16

let rec fit_cell w h cap c =
  if ((w /. c) +. 1.0) *. ((h /. c) +. 1.0) > cap then
    fit_cell w h cap (2.0 *. c)
  else c

(* Cells along one axis for an extent of [v] cells (1 when [v] is not
   finite). *)
let[@inline] span v cap = if v >= 0.0 && v < cap then int_of_float v + 1 else 1

(* Column (or row) of coordinate [x]: monotone in [x], clamped into
   [0, limit), so non-finite coordinates land on an edge. *)
let[@inline] axis x x0 c limit =
  let v = (x -. x0) /. c in
  if v >= 0.0 && v < float_of_int limit then int_of_float v
  else if v >= 0.0 then limit - 1
  else 0

let rebuild t range =
  let ix = t.ix and n = size t in
  let f = ix.frame in
  f.range <- range;
  f.x0 <- infinity;
  f.y0 <- infinity;
  f.x1 <- neg_infinity;
  f.y1 <- neg_infinity;
  for i = 0 to n - 1 do
    let x = t.xs.(i) and y = t.ys.(i) in
    if Float.is_finite x then begin
      if x < f.x0 then f.x0 <- x;
      if x > f.x1 then f.x1 <- x
    end;
    if Float.is_finite y then begin
      if y < f.y0 then f.y0 <- y;
      if y > f.y1 then f.y1 <- y
    end
  done;
  let w = if f.x1 >= f.x0 then f.x1 -. f.x0 else 0.0
  and h = if f.y1 >= f.y0 then f.y1 -. f.y0 else 0.0 in
  let cap = float_of_int (max_cells t) in
  (* A zero range still pairs coincident nodes: any cell width does. *)
  f.cell <- fit_cell w h cap (if range > 0.0 then range *. cell_slack else 1.0);
  ix.cols <- span (w /. f.cell) cap;
  ix.rows <- span (h /. f.cell) cap;
  let cells = ix.cols * ix.rows in
  if Array.length ix.first <= cells then
    (* manetcheck: allow hot-alloc — the cell table only grows, to at most
       max_cells + 1 entries; every later rebuild reuses it. *)
    ix.first <- Array.make (max_cells t + 1) 0
  else Array.fill ix.first 0 (cells + 1) 0;
  (* Counting sort by cell.  Nodes are placed in ascending id order, so
     each cell's members come out ascending. *)
  for i = 0 to n - 1 do
    let c =
      (axis t.ys.(i) f.y0 f.cell ix.rows * ix.cols)
      + axis t.xs.(i) f.x0 f.cell ix.cols
    in
    ix.cell_of.(i) <- c;
    ix.first.(c + 1) <- ix.first.(c + 1) + 1
  done;
  for c = 1 to cells do
    ix.first.(c) <- ix.first.(c) + ix.first.(c - 1)
  done;
  (* Place through [first.(c)] as a cursor, which leaves it at the start
     of cell [c + 1]; shift the table back afterwards. *)
  for i = 0 to n - 1 do
    let c = ix.cell_of.(i) in
    ix.members.(ix.first.(c)) <- i;
    ix.first.(c) <- ix.first.(c) + 1
  done;
  for c = cells downto 1 do
    ix.first.(c) <- ix.first.(c - 1)
  done;
  ix.first.(0) <- 0;
  ix.built <- t.epoch

(* Record the non-empty cells [c] .. [hi] of one block row as runs. *)
let rec add_runs ix c hi k =
  if c > hi then k
  else
    let a = ix.first.(c) and b = ix.first.(c + 1) in
    if a < b then begin
      ix.heads.(k) <- a;
      ix.ends.(k) <- b;
      add_runs ix (c + 1) hi (k + 1)
    end
    else add_runs ix (c + 1) hi k

(* Runs of the block rows [y] .. [last], columns [x0] .. [x1]. *)
let rec block_runs ix y last x0 x1 k =
  if y > last then k
  else
    block_runs ix (y + 1) last x0 x1
      (add_runs ix ((y * ix.cols) + x0) ((y * ix.cols) + x1) k)

let rec smallest ix k r best =
  if r >= k then best
  else
    smallest ix k (r + 1)
      (if ix.members.(ix.heads.(r)) < ix.members.(ix.heads.(best)) then r
       else best)

(* K-way merge of the [k] ascending runs into [buf] from [out] on. *)
let rec merge ix buf k out =
  if k = 0 then out
  else if k = 1 then begin
    let a = ix.heads.(0) in
    let len = ix.ends.(0) - a in
    Array.blit ix.members a buf out len;
    out + len
  end
  else begin
    let r = smallest ix k 1 0 in
    let h = ix.heads.(r) in
    buf.(out) <- ix.members.(h);
    if h + 1 < ix.ends.(r) then begin
      ix.heads.(r) <- h + 1;
      merge ix buf k (out + 1)
    end
    else begin
      (* Run [r] is spent: the last run takes its slot. *)
      ix.heads.(r) <- ix.heads.(k - 1);
      ix.ends.(r) <- ix.ends.(k - 1);
      merge ix buf (k - 1) (out + 1)
    end
  end

let candidates t ~range src buf =
  (* Nothing is within a negative or NaN range. *)
  if not (range >= 0.0) then 0
  else begin
    let ix = t.ix in
    if ix.built <> t.epoch || range <> ix.frame.range then rebuild t range;
    let c = ix.cell_of.(src) in
    let cx = c mod ix.cols and cy = c / ix.cols in
    let k =
      block_runs ix
        (if cy > 0 then cy - 1 else 0)
        (if cy + 1 < ix.rows then cy + 1 else cy)
        (if cx > 0 then cx - 1 else 0)
        (if cx + 1 < ix.cols then cx + 1 else cx)
        0
    in
    merge ix buf k 0
  end

let neighbors t ~range i =
  let buf = Array.make (size t) 0 in
  let out = ref [] in
  for k = candidates t ~range i buf - 1 downto 0 do
    let j = buf.(k) in
    if in_range t ~range i j then out := j :: !out
  done;
  !out

let is_connected t ~range =
  let n = size t in
  let visited = Array.make n false in
  let queue = Array.make n 0 and buf = Array.make n 0 in
  visited.(0) <- true;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    for k = 0 to candidates t ~range i buf - 1 do
      let j = buf.(k) in
      if (not visited.(j)) && in_range t ~range i j then begin
        visited.(j) <- true;
        queue.(!tail) <- j;
        incr tail
      end
    done
  done;
  !tail = n

exception
  No_connected_placement of { n : int; range : float; attempts : int }

let () =
  Printexc.register_printer (function
    | No_connected_placement { n; range; attempts } ->
        Some
          (Printf.sprintf
             "Topology.No_connected_placement (n=%d, range=%g, attempts=%d): \
              no connected placement found; enlarge the radio range or \
              shrink the field"
             n range attempts)
    | _ -> None)

let max_placement_attempts = 1000

let random_connected g ~n ~width ~height ~range =
  let rec attempt k =
    if k = 0 then
      raise
        (No_connected_placement { n; range; attempts = max_placement_attempts })
    else begin
      let t = random g ~n ~width ~height in
      if is_connected t ~range then t else attempt (k - 1)
    end
  in
  attempt max_placement_attempts
