let reference x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.12g" x

let pick st a = a.(Random.State.int st (Array.length a))

(* Step [x] by [k] ulps, up for positive [k]. *)
let rec ulps x k =
  if k > 0 then ulps (Float.succ x) (k - 1)
  else if k < 0 then ulps (Float.pred x) (k + 1)
  else x

let boundaries = [| 0.0; 1e-4; 1e11; 1e15; 5e-324; Float.min_float; 1.0 |]

let rec finite_bits st =
  let x = Int64.float_of_bits (Random.State.bits64 st) in
  if Float.is_finite x then x else finite_bits st

(* A simulated clock: whole, millisecond and microsecond times, a
   periodic schedule, and a uniform draw over an hour. *)
let sim_time st =
  match Random.State.int st 5 with
  | 0 -> float_of_int (Random.State.int st 100_000)
  | 1 -> float_of_int (Random.State.int st 10_000_000) /. 1e3
  | 2 -> float_of_int (Random.State.full_int st 1_000_000_000) /. 1e6
  | 3 ->
      let interval = pick st [| 0.05; 0.1; 0.2; 0.25; 1.0 /. 3.0 |] in
      (float_of_int (Random.State.int st 100) *. 1.5)
      +. (float_of_int (Random.State.int st 2000) *. interval)
  | _ -> Random.State.float st 3600.0

(* Within 3 ulps of (d + 1/2) * 10^e, d of 12 digits: the values whose
   12-digit rounding is closest to a tie. *)
let near_tie st =
  let d = 100_000_000_000 + Random.State.full_int st 900_000_000_000 in
  let e = Random.State.int st 16 in
  let x = (float_of_int d +. 0.5) /. (10.0 ** float_of_int e) in
  ulps x (Random.State.int st 7 - 3)

let draw st =
  let x =
    match Random.State.int st 4 with
    | 0 -> finite_bits st
    | 1 -> sim_time st
    | 2 -> near_tie st
    | _ -> ulps (pick st boundaries) (Random.State.int st 7 - 3)
  in
  if Random.State.bool st then Float.neg x else x
