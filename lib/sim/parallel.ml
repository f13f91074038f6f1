(* The one sanctioned concurrency module (see parallel.mli and
   manetcheck's domain-primitive rule).  Shared data is limited to the
   read-only task array; every other value is owned by exactly one
   domain. *)

let default_domains () = Domain.recommended_domain_count ()

(* Per-task outcome, captured inside the worker so a raising task can
   never leave a sibling domain unjoined. *)
type 'b outcome = Ok_ of 'b | Raised of exn * Printexc.raw_backtrace

let run_task f x =
  try Ok_ (f x) with exn -> Raised (exn, Printexc.get_raw_backtrace ())

(* Left-to-right [List.map]: the stdlib does not pin its application
   order, and we promise the first failure in {e input} order. *)
let rec map_ordered f = function
  | [] -> []
  | x :: tl ->
      let y = f x in
      y :: map_ordered f tl

let unwrap = function
  | Ok_ y -> y
  | Raised (exn, bt) -> Printexc.raise_with_backtrace exn bt

let map ~domains f xs =
  let n = List.length xs in
  let d = max 1 (min domains n) in
  if d = 1 then
    (* Inline fallback: no Domain.spawn, but the same observable
       semantics as the fan-out — every task runs, then the first
       failure in input order propagates. *)
    map_ordered unwrap (List.map (run_task f) xs)
  else begin
    let tasks = Array.of_list xs in
    (* Worker [k] owns indices k, k+d, k+2d, ... — a static deal, so no
       shared cursor is needed and results carry their index home. *)
    let worker k () =
      let acc = ref [] in
      let i = ref k in
      while !i < n do
        acc := (!i, run_task f tasks.(!i)) :: !acc;
        i := !i + d
      done;
      !acc
    in
    let spawned = List.init (d - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    let mine = worker 0 () in
    let gathered = mine :: List.map Domain.join spawned in
    let out = Array.make n None in
    List.iter (List.iter (fun (i, r) -> out.(i) <- Some r)) gathered;
    Array.to_list out
    |> map_ordered (function Some r -> unwrap r | None -> assert false)
  end
