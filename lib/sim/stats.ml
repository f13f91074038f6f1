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

(* A counter or series name bound once to its FNV-1a hash.  Call sites
   make their keys at module initialisation, so recording never hashes
   or compares the name's characters. *)
type key = { name : string; hash : int }

let key name = { name; hash = fnv1a name }
let key_name k = k.name

(* One value per name, in an open-addressed table probed by the key's
   precomputed hash.  A probe compares name strings by physical
   identity, so a hit costs a pointer compare, with no call through a
   functor.  [by_name] lists each name once, for the by-name readers
   and the exports. *)
module Keyed = struct
  type 'a slot = Empty | Bound of { key : key; value : 'a }

  type 'a t = {
    mutable slots : 'a slot array;  (* power-of-two length, at most half full *)
    mutable bound : int;
    mutable by_name : (string * 'a) list;
  }

  let create n =
    let rec pow2 c = if c >= 2 * n then c else pow2 (2 * c) in
    { slots = Array.make (pow2 8) Empty; bound = 0; by_name = [] }

  (* The slot bound to [k]'s name string, or the empty slot that ends
     its probe sequence. *)
  let rec probe slots k i =
    match slots.(i) with
    | Bound b when b.key.name != k.name ->
        probe slots k ((i + 1) land (Array.length slots - 1))
    | Empty | Bound _ -> i

  let slot_of slots k = probe slots k (k.hash land (Array.length slots - 1))

  let place slots k v = slots.(slot_of slots k) <- Bound { key = k; value = v }

  let bind t k v =
    if 2 * (t.bound + 1) > Array.length t.slots then begin
      let old = t.slots in
      t.slots <- Array.make (2 * Array.length old) Empty;
      Array.iter (function Bound b -> place t.slots b.key b.value | Empty -> ()) old
    end;
    place t.slots k v;
    t.bound <- t.bound + 1

  let rec named name = function
    | [] -> raise Not_found
    | (n, v) :: rest -> if String.equal n name then v else named name rest

  let find t k =
    match t.slots.(slot_of t.slots k) with
    | Bound b -> b.value
    | Empty ->
        (* manetcheck: cold — a key's first use in this table: join it
           to its name's value when another key of that name made one. *)
        let v = named k.name t.by_name in
        bind t k v;
        v

  let add t k v =
    bind t k v;
    t.by_name <- (k.name, v) :: t.by_name

  let find_name t name =
    match named name t.by_name with v -> Some v | exception Not_found -> None

  let sorted t = List.sort (fun (a, _) (b, _) -> String.compare a b) t.by_name

  let reset t =
    Array.fill t.slots 0 (Array.length t.slots) Empty;
    t.bound <- 0;
    t.by_name <- []
end

type t = { counters : int ref Keyed.t; accs : acc Keyed.t }

let create () = { counters = Keyed.create 32; accs = Keyed.create 32 }

let add t k by =
  match Keyed.find t.counters k with
  | r -> r := !r + by
  | exception Not_found ->
      (* manetcheck: cold — one cell per counter name, made on the
         name's first bump only. *)
      Keyed.add t.counters k (ref by)

let incr t k = add t k 1

let get t name =
  match Keyed.find_name t.counters name with Some r -> !r | None -> 0

let counters t = List.map (fun (k, r) -> (k, !r)) (Keyed.sorted t.counters)

let new_acc k =
  {
    count = 0;
    m = { m_mean = 0.0; m_m2 = 0.0; m_min = infinity; m_max = neg_infinity };
    reservoir = Array.make reservoir_cap 0.0;
    stored = 0;
    lcg = 0x2545F491 + (k.hash land 0xFFFF);
  }

let observe t k x =
  let acc =
    match Keyed.find t.accs k with
    | a -> a
    | exception Not_found ->
        (* manetcheck: cold — once per series name, on its first sample *)
        let a = new_acc k in
        Keyed.add t.accs k a;
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
  match Keyed.find_name t.accs name with
  | Some a when a.count > 0 -> Some (summary_of_acc a)
  | _ -> None

let summaries t =
  List.map (fun (k, a) -> (k, summary_of_acc a)) (Keyed.sorted t.accs)

let percentile t name q =
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q outside [0,1]";
  match Keyed.find_name t.accs name with
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
  Keyed.reset t.counters;
  Keyed.reset t.accs
