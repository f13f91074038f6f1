module Address = Manet_ipv6.Address

(* A never-seen host's credit, the per-host increment on an acked
   delivery, and what detected misbehaviour subtracts. *)
let initial = 0.0
let reward = 1.0
let penalty = 100.0

type config = { rerr_window : float; rerr_threshold : int }

let default_config = { rerr_window = 30.0; rerr_threshold = 5 }

(* One cell per host the source has noted: scored, slashed or reported
   by a RERR.  The record is all-float, so the score is stored flat and
   a reward writes an unboxed double. *)
type cell = { mutable score : float }

type t = {
  config : config;
  cells : cell Address.Tbl.t;
  rerrs : float list ref Address.Tbl.t; (* recent report times *)
}

let create ?(config = default_config) () =
  { config; cells = Address.Tbl.create 64; rerrs = Address.Tbl.create 16 }

(* The host's cell, made at the initial credit the first time. *)
let cell t a =
  match Address.Tbl.find t.cells a with
  | c -> c
  | exception Not_found ->
      (* manetcheck: allow hot-alloc — one cell per host, made the first
         time it is scored, slashed or reported. *)
      let c = { score = initial } in
      Address.Tbl.add t.cells a c;
      c

(* Inlined into [min_credit], so a hop's credit is read without being
   boxed. *)
let[@inline] get t a =
  match Address.Tbl.find t.cells a with
  | c -> c.score
  | exception Not_found -> initial

let rec reward_route t = function
  | [] -> ()
  | a :: rest ->
      let c = cell t a in
      c.score <- c.score +. reward;
      reward_route t rest

let slash t a =
  let c = cell t a in
  c.score <- c.score -. penalty

let record_rerr t reporter ~now =
  ignore (cell t reporter);
  let times =
    match Address.Tbl.find_opt t.rerrs reporter with
    | Some l -> l
    | None ->
        let l = ref [] in
        Address.Tbl.add t.rerrs reporter l;
        l
  in
  times := now :: List.filter (fun w -> now -. w <= t.config.rerr_window) !times;
  List.length !times > t.config.rerr_threshold

(* A loop over a local accumulator rather than a fold, so no closure and
   no per-hop boxed float.  The choice is [Stdlib.min]'s,
   [if acc <= x then acc else x], which [Float.min] is not on NaN and
   signed zeros. *)
let min_credit t route =
  (* manetcheck: allow hot-alloc — neither ref escapes, so both compile to
     mutable locals and no heap cell is made. *)
  let acc = ref infinity and rest = ref route in
  while
    match !rest with
    | [] -> false
    | a :: tl ->
        let x = get t a in
        acc := if !acc <= x then !acc else x;
        rest := tl;
        true
  do
    ()
  done;
  !acc

let snapshot t =
  Address.Tbl.fold (fun a c acc -> (a, c.score) :: acc) t.cells []
  |> List.sort (fun (a, _) (b, _) -> Address.compare a b)
