(* B-series microbenchmarks (bechamel): the primitive costs underneath
   the protocol — hashing, signing, verification, CGA generation and
   checking, secure-route-record construction, and the event queue. *)

open Bechamel
open Toolkit
module Prng = Manetsec.Crypto.Prng
module Sha256 = Manetsec.Crypto.Sha256
module Rsa = Manetsec.Crypto.Rsa
module Suite = Manetsec.Crypto.Suite
module Cga = Manetsec.Ipv6.Cga
module Codec = Manetsec.Proto.Codec
module Heap = Manetsec.Sim.Heap

let tests () =
  let g = Prng.create ~seed:4242 in
  let data_1k = Prng.bytes g 1024 in
  let rsa_pub, rsa_priv = Rsa.generate g ~bits:512 in
  let signature = Rsa.sign rsa_priv data_1k in
  let mock = Suite.mock (Prng.create ~seed:17) in
  let mock_kp = mock.Suite.generate () in
  let mock_sig = mock_kp.Suite.sign data_1k in
  let pk_bytes = Rsa.public_key_to_bytes rsa_pub in
  let addr = Cga.generate ~pk_bytes ~rn:42L in
  let payload = Codec.srr_entry_payload ~iip:addr ~seq:7 in
  [
    Test.make ~name:"sha256 (1 KiB)" (Staged.stage (fun () -> Sha256.digest data_1k));
    Test.make ~name:"rsa512 sign" (Staged.stage (fun () -> Rsa.sign rsa_priv data_1k));
    (let module B = Manetsec.Crypto.Bignum in
     let gm = Prng.create ~seed:515 in
     let m =
       let v = B.random gm ~bits:512 in
       let v = B.add v (B.shift_left B.one 511) in
       if B.testbit v 0 then v else B.add v B.one
     in
     let base_v = B.random gm ~bits:500 in
     let e = B.random gm ~bits:512 in
     Test.make ~name:"modpow 512b (montgomery)"
       (Staged.stage (fun () -> B.mod_pow base_v e m)));
    (let module B = Manetsec.Crypto.Bignum in
     let gm = Prng.create ~seed:515 in
     let m =
       let v = B.random gm ~bits:512 in
       let v = B.add v (B.shift_left B.one 511) in
       if B.testbit v 0 then v else B.add v B.one
     in
     let base_v = B.random gm ~bits:500 in
     let e = B.random gm ~bits:512 in
     Test.make ~name:"modpow 512b (division)"
       (Staged.stage (fun () -> B.Oracle.mod_pow_generic base_v e m)));
    Test.make ~name:"rsa512 sign (no CRT)"
      (Staged.stage (fun () -> Rsa.sign_no_crt rsa_priv data_1k));
    Test.make ~name:"rsa512 verify"
      (Staged.stage (fun () -> Rsa.verify rsa_pub ~msg:data_1k ~signature));
    Test.make ~name:"mock sign" (Staged.stage (fun () -> mock_kp.Suite.sign data_1k));
    Test.make ~name:"mock verify"
      (Staged.stage (fun () ->
           mock.Suite.verify ~pk_bytes:mock_kp.Suite.pk_bytes ~msg:data_1k
             ~signature:mock_sig));
    Test.make ~name:"cga generate" (Staged.stage (fun () -> Cga.generate ~pk_bytes ~rn:42L));
    Test.make ~name:"cga verify" (Staged.stage (fun () -> Cga.verify addr ~pk_bytes ~rn:42L));
    Test.make ~name:"srr hop sign+verify (rsa512)"
      (Staged.stage (fun () ->
           let s = Rsa.sign rsa_priv payload in
           Rsa.verify rsa_pub ~msg:payload ~signature:s));
    Test.make ~name:"event heap push+pop x100"
      (Staged.stage (fun () ->
           let h = Heap.create () in
           for k = 1 to 100 do
             Heap.push h (float_of_int ((k * 37) mod 100)) () k
           done;
           let rec drain () =
             if not (Heap.is_empty h) then begin
               Heap.drop_min h;
               drain ()
             end
           in
           drain ()));
  ]

let run () =
  Util.heading "B -- microbenchmarks (bechamel, monotonic clock)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let grouped = Test.make_grouped ~name:"micro" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let per_run =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> est
        | _ -> nan
      in
      let pretty =
        if per_run > 1_000_000.0 then Printf.sprintf "%.3f ms" (per_run /. 1e6)
        else if per_run > 1_000.0 then Printf.sprintf "%.3f us" (per_run /. 1e3)
        else Printf.sprintf "%.1f ns" per_run
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      rows := [ name; pretty; r2 ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  Util.print_table ~header:[ "benchmark"; "time/run"; "r^2" ] rows
