module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Keyed = Stats.Keyed
module Itbl = Hashtbl.Make (Int)

let global_node = -1

(* All-float, so each field is stored flat and adding a sample writes
   unboxed doubles.  The count is exact up to 2^53 samples. *)
type series = {
  mutable s_count : float;
  mutable s_sum : float;
  mutable s_min : float;
  mutable s_max : float;
}

(* Cells are keyed by metric (through its {!Stats.key}), then by (node,
   window index) packed into one int, so recording builds no key
   tuple. *)
let node_bits = 24

let pack ~node w =
  if node < global_node || node + 1 >= 1 lsl node_bits then
    invalid_arg "Metrics: node index out of range";
  (w lsl node_bits) lor (node + 1)

let node_of k = (k land ((1 lsl node_bits) - 1)) - 1
let window_of k = k lsr node_bits

(* One counter metric: every (node, window) cell, and the cells of the
   latest window recorded, by node + 1, so a record in that window finds
   its cell in an array.  [none] marks a node with no cell there yet. *)
type counter = {
  cells : int ref Itbl.t;
  mutable latest : int;
  mutable by_node : int ref array;
  none : int ref;
}

type t = {
  engine : Engine.t;
  win : float;
  mutable enabled : bool;
  counters : counter Keyed.t;
  series : series Itbl.t Keyed.t;
}

let create ?(window = 1.0) engine =
  if window <= 0.0 then invalid_arg "Metrics.create: window must be positive";
  {
    engine;
    win = window;
    enabled = false;
    counters = Keyed.create 64;
    series = Keyed.create 16;
  }

let window t = t.win
let set_enabled t on = t.enabled <- on
let enabled t = t.enabled

let widx t = int_of_float (Engine.now t.engine /. t.win)

(* The counter of [k]'s name, created on the name's first record. *)
let counter_of tbl k =
  match Keyed.find tbl k with
  | c -> c
  | exception Not_found ->
      (* manetcheck: cold — once per metric name, on its first record *)
      let c = { cells = Itbl.create 16; latest = -1; by_node = [||]; none = ref 0 } in
      Keyed.add tbl k c;
      c

(* A cell's first bump, or a bump in a window later than [c.latest]:
   find or make the cell and cache it in [by_node]. *)
let bump_cell c ~node w by =
  let key = pack ~node w in
  if w <> c.latest then begin
    c.latest <- w;
    Array.fill c.by_node 0 (Array.length c.by_node) c.none
  end;
  let r =
    match Itbl.find c.cells key with
    | r -> r
    | exception Not_found ->
        let r = ref 0 in
        Itbl.add c.cells key r;
        r
  in
  let i = node + 1 in
  if i >= Array.length c.by_node then begin
    let grown = Array.make (max 16 (2 * i)) c.none in
    Array.blit c.by_node 0 grown 0 (Array.length c.by_node);
    c.by_node <- grown
  end;
  c.by_node.(i) <- r;
  r := !r + by

let bump c ~node w by =
  let i = node + 1 in
  if w = c.latest && i >= 0 && i < Array.length c.by_node && c.by_node.(i) != c.none
  then begin
    let r = c.by_node.(i) in
    r := !r + by
  end
  else
    (* manetcheck: cold — once per (name, node, window): the cell's first
       bump, or the node's first in a later window. *)
    bump_cell c ~node w by

let record t ~node ~by k =
  if t.enabled then begin
    let w = widx t in
    let c = counter_of t.counters k in
    bump c ~node w by;
    if node <> global_node then bump c ~node:global_node w by
  end

(* The series cells of one metric name, created on the name's first
   sample. *)
let series_of tbl k =
  match Keyed.find tbl k with
  | cells -> cells
  | exception Not_found ->
      (* manetcheck: cold — once per metric name, on its first sample *)
      let cells = Itbl.create 16 in
      Keyed.add tbl k cells;
      cells

let add_sample cells key x =
  let s =
    match Itbl.find cells key with
    | s -> s
    | exception Not_found ->
        let s =
          (* manetcheck: allow hot-alloc — one series cell per (name, node,
             window), made on that cell's first sample only. *)
          { s_count = 0.0; s_sum = 0.0; s_min = infinity; s_max = neg_infinity }
        in
        Itbl.add cells key s;
        s
  in
  s.s_count <- s.s_count +. 1.0;
  s.s_sum <- s.s_sum +. x;
  if x < s.s_min then s.s_min <- x;
  if x > s.s_max then s.s_max <- x

let observe t ~node k x =
  if t.enabled then begin
    let w = widx t in
    let cells = series_of t.series k in
    add_sample cells (pack ~node w) x;
    if node <> global_node then add_sample cells (pack ~node:global_node w) x
  end

let counter_total t ~node name =
  match Keyed.find_name t.counters name with
  | None -> 0
  | Some c ->
      Itbl.fold
        (fun k r acc -> if node_of k = node then acc + !r else acc)
        c.cells 0

(* --- export -------------------------------------------------------------- *)

let compare_key (na, ia, wa) (nb, ib, wb) =
  match String.compare na nb with
  | 0 -> ( match Int.compare ia ib with 0 -> Int.compare wa wb | c -> c)
  | c -> c

let sorted_cells cells_of tbl =
  List.fold_left
    (fun acc (name, m) ->
      Itbl.fold
        (fun k v acc -> ((name, node_of k, window_of k), v) :: acc)
        (cells_of m) acc)
    [] (Keyed.sorted tbl)
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

(* Every row is written field by field into the export buffer.  Window
   starts and float columns go through [Json.add_float], the canonical
   formatter; Prometheus label values are quoted as Printf's %S quotes
   them. *)

let add_window_start buf t w = Json.add_float buf (float_of_int w *. t.win)

(* "<kind>,<name>,<node>,<window start>," of a windowed cell's row. *)
let add_cell_key buf t kind (name, node, w) =
  Buffer.add_string buf kind;
  Buffer.add_char buf ',';
  Buffer.add_string buf name;
  Buffer.add_char buf ',';
  Json.add_int buf node;
  Buffer.add_char buf ',';
  add_window_start buf t w;
  Buffer.add_char buf ','

let add_counter_row buf t (key, r) =
  add_cell_key buf t "counter" key;
  Json.add_int buf !r;
  Buffer.add_string buf ",,,,\n"

let add_series_row buf t (key, s) =
  add_cell_key buf t "series" key;
  Json.add_int buf (int_of_float s.s_count);
  Buffer.add_char buf ',';
  Json.add_float buf (s.s_sum /. s.s_count);
  Buffer.add_string buf ",,";
  Json.add_float buf s.s_min;
  Buffer.add_char buf ',';
  Json.add_float buf s.s_max;
  Buffer.add_char buf '\n'

let add_stat_counter_row buf (name, v) =
  Buffer.add_string buf "stat_counter,";
  Buffer.add_string buf name;
  Buffer.add_string buf ",,,";
  Json.add_int buf v;
  Buffer.add_string buf ",,,,\n"

let add_stat_summary_row buf (name, (s : Stats.summary)) =
  Buffer.add_string buf "stat_summary,";
  Buffer.add_string buf name;
  Buffer.add_string buf ",,,";
  Json.add_int buf s.count;
  Buffer.add_char buf ',';
  Json.add_float buf s.mean;
  Buffer.add_char buf ',';
  Json.add_float buf s.stddev;
  Buffer.add_char buf ',';
  Json.add_float buf s.min;
  Buffer.add_char buf ',';
  Json.add_float buf s.max;
  Buffer.add_char buf '\n'

let to_csv ?stats t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "kind,name,node,window,count,mean,stddev,min,max\n";
  List.iter (add_counter_row buf t) (sorted_cells (fun c -> c.cells) t.counters);
  List.iter (add_series_row buf t) (sorted_cells Fun.id t.series);
  (match stats with
  | None -> ()
  | Some st ->
      List.iter (add_stat_counter_row buf) (Stats.counters st);
      List.iter (add_stat_summary_row buf) (Stats.summaries st));
  Buffer.contents buf

let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (String.escaped s);
  Buffer.add_char buf '"'

(* "<metric>{name=..,node="..",window=".."} " of a windowed cell's
   sample, up to its value.  A window start needs no escaping. *)
let add_prom_cell buf t metric (name, node, w) =
  Buffer.add_string buf metric;
  Buffer.add_string buf "{name=";
  add_quoted buf name;
  Buffer.add_string buf ",node=\"";
  Json.add_int buf node;
  Buffer.add_string buf "\",window=\"";
  add_window_start buf t w;
  Buffer.add_string buf "\"} "

let to_prom ?stats t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# manetsim windowed metrics, window=";
  Json.add_float buf t.win;
  Buffer.add_string buf "s\n# TYPE manetsim_counter gauge\n";
  List.iter
    (fun (key, r) ->
      add_prom_cell buf t "manetsim_counter" key;
      Json.add_int buf !r;
      Buffer.add_char buf '\n')
    (sorted_cells (fun c -> c.cells) t.counters);
  let series = sorted_cells Fun.id t.series in
  let series_field field add_value =
    let metric = "manetsim_series_" ^ field in
    Buffer.add_string buf ("# TYPE " ^ metric ^ " gauge\n");
    List.iter
      (fun (key, s) ->
        add_prom_cell buf t metric key;
        add_value s;
        Buffer.add_char buf '\n')
      series
  in
  series_field "count" (fun s -> Json.add_int buf (int_of_float s.s_count));
  series_field "sum" (fun s -> Json.add_float buf s.s_sum);
  series_field "min" (fun s -> Json.add_float buf s.s_min);
  series_field "max" (fun s -> Json.add_float buf s.s_max);
  (match stats with
  | None -> ()
  | Some st ->
      Buffer.add_string buf "# TYPE manetsim_stat_total counter\n";
      List.iter
        (fun (name, v) ->
          Buffer.add_string buf "manetsim_stat_total{name=";
          add_quoted buf name;
          Buffer.add_string buf "} ";
          Json.add_int buf v;
          Buffer.add_char buf '\n')
        (Stats.counters st);
      Buffer.add_string buf "# TYPE manetsim_stat_summary gauge\n";
      List.iter
        (fun (name, (s : Stats.summary)) ->
          let field f add_value =
            Buffer.add_string buf "manetsim_stat_summary{name=";
            add_quoted buf name;
            Buffer.add_string buf ",field=\"";
            Buffer.add_string buf f;
            Buffer.add_string buf "\"} ";
            add_value ();
            Buffer.add_char buf '\n'
          in
          field "count" (fun () -> Json.add_int buf s.count);
          field "mean" (fun () -> Json.add_float buf s.mean);
          field "stddev" (fun () -> Json.add_float buf s.stddev);
          field "min" (fun () -> Json.add_float buf s.min);
          field "max" (fun () -> Json.add_float buf s.max))
        (Stats.summaries st));
  Buffer.contents buf
