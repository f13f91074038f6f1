(* Host-speed normalisation.

   On a shared host the speed we get drifts by up to 2x within seconds,
   so raw wall times of the same work disagree far more than the changes
   we want to see.  The slowdown is not uniform: a tight arithmetic loop
   or a walk through main memory barely feels it, while code like the
   simulator's (a dispatch loop over many small handlers, string-keyed
   hash lookups, indirect calls, scattered loads from cache-sized data)
   feels most of it.  The probe is therefore a fixed miniature of that
   kind of code.  It is built from the standard library only, so that no
   library change can speed it up or slow it down, and it allocates
   nothing, so that it never adds garbage-collector work to what the
   simulator is charged.  Of the kernels tried on the 2-vCPU reference
   host (a walk through 16 MiB, a walk through 256 KiB, the dispatch
   loop alone, and mixes), this mix left the smallest spread of
   normalised repetition times across all five workloads.

   The probe runs before and after each measured segment and, while the
   repetition runs, from a wall-clock timer every [tick_s] seconds (an
   OCaml signal handler, which runs between two steps of the simulator
   and touches none of its state).  Each segment's wall time, minus the
   time spent in the handler, is rescaled by [ref_s /. p], where [p] is
   the median of all probes of the repetition: the result is the time the
   segment would have taken on a host that runs the probe in [ref_s].
   The host's speed changes over minutes far more than within the few
   seconds of one repetition, and single probes show short spikes the
   simulator does not feel, so one robust speed per repetition tracks it
   better than a per-segment one.  Sampling during the segments is what
   makes this work for long single calls such as a 300-node bootstrap. *)

let ref_s = 1.2e-3
(* About the median probe time on the 2-vCPU Xeon host the baseline was
   measured on; a unit only, so results stay in seconds. *)

let tick_s = 0.02

(* The dispatch part: a random instruction stream over eight kinds of
   step (string-keyed hash lookups, scattered read-modify-writes in a
   2 MiB array, float updates, string compares, indirect calls, hashing),
   the mix of an event handler. *)
let program =
  let g = Random.State.make [| 0x9b0be |] in
  Array.init 8192 (fun _ -> (Random.State.int g 8, Random.State.int g 512))

let keys = Array.init 512 (fun i -> Printf.sprintf "node%d.tx.data.%d" i (i * 7919))

let table =
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) keys;
  h

let mem = Bigarray.(Array1.create int c_layout (1 lsl 18))
let () = Bigarray.Array1.fill mem 0
let floats = Array.make 1024 1.0

let handlers =
  [|
    (fun x -> x + 1); (fun x -> x * 3); (fun x -> x lxor 0x55); (fun x -> x lsr 1);
    (fun x -> x - 7); (fun x -> x * x land 0xffff); (fun x -> x + (x lsr 3)); (fun x -> -x);
  |]

let dispatch () =
  let mask = Bigarray.Array1.dim mem - 1 in
  let acc = ref 0 in
  for _ = 1 to 3 do
    for pc = 0 to Array.length program - 1 do
      let op, i = program.(pc) in
      match op with
      | 0 -> acc := !acc + Hashtbl.find table keys.(i)
      | 1 ->
          let j = ((!acc * 2654435761) + i) land mask in
          mem.{j} <- mem.{j} + i;
          acc := !acc + mem.{(j * 31) land mask}
      | 2 -> floats.(i land 1023) <- (floats.(i land 1023) *. 1.0000001) +. 0.5
      | 3 -> if String.compare keys.(i) keys.((i + 1) land 511) < 0 then incr acc
      | 4 -> acc := handlers.(i land 7) !acc
      | 5 -> acc := !acc + Char.code keys.(i).[4]
      | 6 -> acc := if !acc land 1 = 0 then !acc lsr 1 else (3 * !acc) + 1
      | _ -> acc := !acc + Hashtbl.hash keys.(i)
    done
  done;
  !acc

(* The pointer-chasing part, about a third of the probe's time: dependent
   loads through one cyclic permutation of a 256 KiB table, continuing
   where the previous probe stopped so the prefetcher cannot help. *)
let cycle =
  let open Bigarray in
  let n = 1 lsl 16 in
  let g = Random.State.make [| 0x5eed |] in
  let order = Array1.init int32 c_layout n Int32.of_int in
  for i = n - 1 downto 1 do
    let j = Random.State.int g (i + 1) in
    let x = order.{i} in
    order.{i} <- order.{j};
    order.{j} <- x
  done;
  let next = Array1.create int32 c_layout n in
  for i = 0 to n - 1 do
    next.{Int32.to_int order.{i}} <- order.{(i + 1) mod n}
  done;
  next

let position = ref 0

let chase () =
  let rec go i k =
    if k = 0 then i else go (Int32.to_int (Bigarray.Array1.unsafe_get cycle i)) (k - 1)
  in
  position := go !position 8_000

let kernel () =
  ignore (Sys.opaque_identity (dispatch ()));
  chase ()

let now = Unix.gettimeofday

let probe () =
  let t0 = now () in
  kernel ();
  now () -. t0

(* Every probe time taken so far, and the wall seconds spent in the
   timer handler.  Float arrays, so that the handler allocates nothing and
   cannot move the simulator's collections. *)
let samples = Array.make 16384 0.0
let taken = ref 0
let handler_s = Array.make 1 0.0

let on_tick _ =
  let t0 = now () in
  kernel ();
  let t1 = now () in
  if !taken < Array.length samples then begin
    samples.(!taken) <- t1 -. t0;
    incr taken
  end;
  handler_s.(0) <- handler_s.(0) +. (now () -. t0)

let start_ticks () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle on_tick);
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = tick_s; it_value = tick_s })

let stop_ticks () =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigalrm Sys.Signal_default

let record p =
  if !taken < Array.length samples then begin
    samples.(!taken) <- p;
    incr taken
  end

(* [f]'s result and its wall seconds outside the timer handler, between
   two recorded probes. *)
let segment f =
  record (probe ());
  let h0 = handler_s.(0) in
  let t0 = now () in
  let r = f () in
  let raw = now () -. t0 -. (handler_s.(0) -. h0) in
  record (probe ());
  (r, raw)

(* The median of the probes taken so far: the host's speed over the
   repetition, robust to the short spikes single probes show. *)
let median_probe () =
  let a = Array.sub samples 0 !taken in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let norm raw = raw *. ref_s /. median_probe ()
