(* Reservoir size for percentile estimation: exact below the cap,
   uniform-sample approximation above it. *)
let reservoir_cap = 1024

(* FNV-1a, truncated to 30 bits: a stable per-name seed for the
   reservoir LCG.  Hashtbl.hash would work too but its value is not
   specified across OCaml versions, and replayability requires the
   jitter stream to be identical everywhere. *)
let fnv1a s =
  let h = ref 0x811C9DC5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

(* The running moments, all-float so each store writes an unboxed
   double instead of a fresh box. *)
type moments = {
  mutable m_mean : float;
  mutable m_m2 : float;
  mutable m_min : float;
  mutable m_max : float;
}

type acc = {
  mutable count : int;
  m : moments;
  reservoir : float array;
  mutable stored : int;
  (* Deterministic LCG for reservoir replacement (keeps runs replayable
     without threading a PRNG through every observe call). *)
  mutable lcg : int;
}

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

module Stbl = Hashtbl.Make (String)

type t = { counters : int ref Stbl.t; accs : acc Stbl.t }

let create () = { counters = Stbl.create 32; accs = Stbl.create 32 }

let incr ?(by = 1) t name =
  match Stbl.find t.counters name with
  | r -> r := !r + by
  | exception Not_found ->
      (* manetcheck: allow hot-alloc — one cell per counter name, made on
         the name's first bump only. *)
      Stbl.add t.counters name (ref by)

let get t name =
  match Stbl.find t.counters name with r -> !r | exception Not_found -> 0

let counters t =
  Stbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let observe t name x =
  let acc =
    match Stbl.find_opt t.accs name with
    | Some a -> a
    | None ->
        (* manetcheck: cold — once per series name, on its first sample *)
        let a =
          {
            count = 0;
            m = { m_mean = 0.0; m_m2 = 0.0; m_min = infinity; m_max = neg_infinity };
            reservoir = Array.make reservoir_cap 0.0;
            stored = 0;
            lcg = 0x2545F491 + (fnv1a name land 0xFFFF);
          }
        in
        Stbl.add t.accs name a;
        a
  in
  acc.count <- acc.count + 1;
  let m = acc.m in
  let dx = x -. m.m_mean in
  m.m_mean <- m.m_mean +. (dx /. float_of_int acc.count);
  m.m_m2 <- m.m_m2 +. (dx *. (x -. m.m_mean));
  if x < m.m_min then m.m_min <- x;
  if x > m.m_max then m.m_max <- x;
  (* Algorithm R reservoir update. *)
  if acc.stored < reservoir_cap then begin
    acc.reservoir.(acc.stored) <- x;
    acc.stored <- acc.stored + 1
  end
  else begin
    acc.lcg <- ((acc.lcg * 1103515245) + 12345) land max_int;
    let j = acc.lcg mod acc.count in
    if j < reservoir_cap then acc.reservoir.(j) <- x
  end

let summary_of_acc (a : acc) =
  {
    count = a.count;
    mean = a.m.m_mean;
    stddev = (if a.count < 2 then 0.0 else sqrt (a.m.m_m2 /. float_of_int (a.count - 1)));
    min = a.m.m_min;
    max = a.m.m_max;
  }

let summary t name =
  match Stbl.find_opt t.accs name with
  | Some a when a.count > 0 -> Some (summary_of_acc a)
  | _ -> None

let summaries t =
  Stbl.fold (fun k a acc -> (k, summary_of_acc a) :: acc) t.accs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let percentile t name q =
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q outside [0,1]";
  match Stbl.find_opt t.accs name with
  | Some a when a.stored > 0 ->
      let sorted = Array.sub a.reservoir 0 a.stored in
      Array.sort Float.compare sorted;
      let idx =
        int_of_float (Float.round (q *. float_of_int (a.stored - 1)))
      in
      Some sorted.(idx)
  | _ -> None

type snapshot = (string * int) list

let snapshot t : snapshot = counters t

let snapshot_get (s : snapshot) name =
  match List.assoc_opt name s with Some v -> v | None -> 0

let delta ~(before : snapshot) ~(after : snapshot) : snapshot =
  (* Counters only grow, so every name in [before] is in [after]. *)
  List.filter_map
    (fun (k, v) ->
      let d = v - snapshot_get before k in
      if d <> 0 then Some (k, d) else None)
    after

let clear t =
  Stbl.reset t.counters;
  Stbl.reset t.accs
