module Engine = Manet_sim.Engine
module Stats = Manet_sim.Stats
module Stbl = Hashtbl.Make (String)
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

(* Cells are keyed by metric name, then by (node, window index) packed
   into one int, so recording builds no key tuple. *)
let node_bits = 24

let pack ~node w =
  if node < global_node || node + 1 >= 1 lsl node_bits then
    invalid_arg "Metrics: node index out of range";
  (w lsl node_bits) lor (node + 1)

let node_of k = (k land ((1 lsl node_bits) - 1)) - 1
let window_of k = k lsr node_bits

type t = {
  engine : Engine.t;
  win : float;
  mutable enabled : bool;
  counters : int ref Itbl.t Stbl.t;
  series : series Itbl.t Stbl.t;
}

let create ?(window = 1.0) engine =
  if window <= 0.0 then invalid_arg "Metrics.create: window must be positive";
  {
    engine;
    win = window;
    enabled = false;
    counters = Stbl.create 64;
    series = Stbl.create 16;
  }

let window t = t.win
let set_enabled t on = t.enabled <- on
let enabled t = t.enabled

let widx t = int_of_float (Engine.now t.engine /. t.win)

(* The cells of one metric name, created on the name's first record. *)
let cells_of tbl name =
  match Stbl.find tbl name with
  | cells -> cells
  | exception Not_found ->
      let cells = Itbl.create 16 in
      Stbl.add tbl name cells;
      cells

let bump cells key by =
  match Itbl.find cells key with
  | r -> r := !r + by
  | exception Not_found ->
      (* manetcheck: allow hot-alloc — one cell per (name, node, window),
         made on that cell's first bump only. *)
      Itbl.add cells key (ref by)

let record t ~node ?(by = 1) name =
  if t.enabled then begin
    let w = widx t in
    let cells = cells_of t.counters name in
    bump cells (pack ~node w) by;
    if node <> global_node then bump cells (pack ~node:global_node w) by
  end

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

let observe t ~node name x =
  if t.enabled then begin
    let w = widx t in
    let cells = cells_of t.series name in
    add_sample cells (pack ~node w) x;
    if node <> global_node then add_sample cells (pack ~node:global_node w) x
  end

let counter_total t ~node name =
  match Stbl.find_opt t.counters name with
  | None -> 0
  | Some cells ->
      Itbl.fold
        (fun k r acc -> if node_of k = node then acc + !r else acc)
        cells 0

(* --- export -------------------------------------------------------------- *)

let compare_key (na, ia, wa) (nb, ib, wb) =
  match String.compare na nb with
  | 0 -> ( match Int.compare ia ib with 0 -> Int.compare wa wb | c -> c)
  | c -> c

let sorted_cells tbl =
  Stbl.fold
    (fun name cells acc ->
      Itbl.fold
        (fun k v acc -> ((name, node_of k, window_of k), v) :: acc)
        cells acc)
    tbl []
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
  List.iter (add_counter_row buf t) (sorted_cells t.counters);
  List.iter (add_series_row buf t) (sorted_cells t.series);
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
    (sorted_cells t.counters);
  let series = sorted_cells t.series in
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
