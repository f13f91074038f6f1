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
      (* manethot: allow hot-alloc — one cell per (name, node, window),
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
          (* manethot: allow hot-alloc — one series cell per (name, node,
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

let window_start t w = Json.float_str (float_of_int w *. t.win)

let to_csv ?stats t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "kind,name,node,window,count,mean,stddev,min,max\n";
  List.iter
    (fun ((name, node, w), r) ->
      Buffer.add_string buf
        (Printf.sprintf "counter,%s,%d,%s,%d,,,,\n" name node
           (window_start t w) !r))
    (sorted_cells t.counters);
  List.iter
    (fun ((name, node, w), s) ->
      Buffer.add_string buf
        (Printf.sprintf "series,%s,%d,%s,%d,%s,,%s,%s\n" name node
           (window_start t w) (int_of_float s.s_count)
           (Json.float_str (s.s_sum /. s.s_count))
           (Json.float_str s.s_min) (Json.float_str s.s_max)))
    (sorted_cells t.series);
  (match stats with
  | None -> ()
  | Some st ->
      List.iter
        (fun (name, v) ->
          Buffer.add_string buf
            (Printf.sprintf "stat_counter,%s,,,%d,,,,\n" name v))
        (Stats.counters st);
      List.iter
        (fun (name, s) ->
          Buffer.add_string buf
            (Printf.sprintf "stat_summary,%s,,,%d,%s,%s,%s,%s\n" name
               s.Stats.count
               (Json.float_str s.Stats.mean)
               (Json.float_str s.Stats.stddev)
               (Json.float_str s.Stats.min)
               (Json.float_str s.Stats.max)))
        (Stats.summaries st));
  Buffer.contents buf

let to_prom ?stats t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "# manetsim windowed metrics, window=%ss\n"
       (Json.float_str t.win));
  Buffer.add_string buf "# TYPE manetsim_counter gauge\n";
  List.iter
    (fun ((name, node, w), r) ->
      Buffer.add_string buf
        (Printf.sprintf
           "manetsim_counter{name=%S,node=\"%d\",window=%S} %d\n" name node
           (window_start t w) !r))
    (sorted_cells t.counters);
  let series_field field value =
    List.iter
      (fun ((name, node, w), s) ->
        Buffer.add_string buf
          (Printf.sprintf
             "manetsim_series_%s{name=%S,node=\"%d\",window=%S} %s\n" field
             name node (window_start t w) (value s)))
      (sorted_cells t.series)
  in
  Buffer.add_string buf "# TYPE manetsim_series_count gauge\n";
  series_field "count" (fun s -> string_of_int (int_of_float s.s_count));
  Buffer.add_string buf "# TYPE manetsim_series_sum gauge\n";
  series_field "sum" (fun s -> Json.float_str s.s_sum);
  Buffer.add_string buf "# TYPE manetsim_series_min gauge\n";
  series_field "min" (fun s -> Json.float_str s.s_min);
  Buffer.add_string buf "# TYPE manetsim_series_max gauge\n";
  series_field "max" (fun s -> Json.float_str s.s_max);
  (match stats with
  | None -> ()
  | Some st ->
      Buffer.add_string buf "# TYPE manetsim_stat_total counter\n";
      List.iter
        (fun (name, v) ->
          Buffer.add_string buf
            (Printf.sprintf "manetsim_stat_total{name=%S} %d\n" name v))
        (Stats.counters st);
      Buffer.add_string buf "# TYPE manetsim_stat_summary gauge\n";
      List.iter
        (fun (name, s) ->
          let field f v =
            Buffer.add_string buf
              (Printf.sprintf "manetsim_stat_summary{name=%S,field=%S} %s\n"
                 name f v)
          in
          field "count" (string_of_int s.Stats.count);
          field "mean" (Json.float_str s.Stats.mean);
          field "stddev" (Json.float_str s.Stats.stddev);
          field "min" (Json.float_str s.Stats.min);
          field "max" (Json.float_str s.Stats.max))
        (Stats.summaries st));
  Buffer.contents buf
