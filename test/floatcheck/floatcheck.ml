(* Compares Json.float_str with its Printf specification, and
   Json.float_length with the length of that rendering, over a long
   seeded stream of inputs and stops at the first mismatch.

   Usage: floatcheck.exe [COUNT [SEED]]  (defaults: 10_000_000, 1) *)

let () =
  let arg i default =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default
  in
  let count = arg 1 10_000_000 and seed = arg 2 1 in
  let st = Random.State.make [| seed |] in
  for i = 1 to count do
    let x = Float_cases.draw st in
    let got = Manet_obs.Json.float_str x and want = Float_cases.reference x in
    if got <> want then begin
      Printf.printf "mismatch at value %d of seed %d: %h: float_str %S, printf %S\n" i
        seed x got want;
      exit 1
    end;
    let len = Manet_obs.Json.float_length x in
    if len <> String.length want then begin
      Printf.printf "mismatch at value %d of seed %d: %h: float_length %d, printf %S\n" i
        seed x len want;
      exit 1
    end
  done;
  Printf.printf "floatcheck: %d values of seed %d match\n" count seed
