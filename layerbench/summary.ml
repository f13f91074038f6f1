(* Order statistics over repetitions, and the metric tables of
   BENCHMARK.json, which are the single source of metric names, units,
   directions and bounds. *)

module Json = Manetsec.Obs_json

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method), so the numbers printed here match the ones
   any checker derives from the same samples. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Summary.quartiles: no samples"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let d = Array.of_list xs in
  Array.sort Float.compare d;
  let n = Array.length d in
  if n mod 2 = 1 then d.(n / 2) else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.0

type metric = { name : string; unit : string; higher_better : bool; bound : float }

let definition_file = "BENCHMARK.json"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let metrics_of table doc =
  let field k j = Option.get (Json.member k j) in
  Option.get (Json.to_list_opt (field table doc))
  |> List.map (fun m ->
         {
           name = Option.get (Json.to_string_opt (field "name" m));
           unit = Option.get (Json.to_string_opt (field "unit" m));
           higher_better = Json.to_string_opt (field "better" m) = Some "higher";
           bound =
             Option.value ~default:0.0 (Option.bind (Json.member "bound" m) Json.to_float_opt);
         })

(* (end_to_end, per_layer) from the definition file in the working
   directory, the root of the checkout. *)
let definitions () =
  let doc = Json.parse (read_file definition_file) in
  (metrics_of "end_to_end" doc, metrics_of "per_layer" doc)
