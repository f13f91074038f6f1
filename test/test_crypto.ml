(* Unit and property tests for the from-scratch crypto substrate. *)

module Prng = Manet_crypto.Prng
module Bignum = Manet_crypto.Bignum
module Sha256 = Manet_crypto.Sha256
module Hmac = Manet_crypto.Hmac
module Rsa = Manet_crypto.Rsa
module Mock_sig = Manet_crypto.Mock_sig
module Suite = Manet_crypto.Suite

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* PRNG                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 16 do
    if not (Int64.equal (Prng.bits64 a) (Prng.bits64 b)) then distinct := true
  done;
  Alcotest.(check bool) "streams differ" true !distinct

let test_prng_int_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_prng_float_bounds () =
  let g = Prng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let v = Prng.float g 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

(* A fair coin from the raw stream, for generators of test inputs. *)
let coin g = Int64.logand (Prng.bits64 g) 1L = 1L

(* Lower-case hex of a byte string. *)
let hex s =
  String.to_seq s
  |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
  |> List.of_seq |> String.concat ""

let test_prng_split_independent () =
  let g = Prng.create ~seed:5 in
  let h = Prng.split g in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 g) (Prng.bits64 h) then incr same
  done;
  Alcotest.(check bool) "split stream diverges" true (!same < 4)

let test_prng_shuffle_permutes () =
  let g = Prng.create ~seed:9 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_prng_bytes_length () =
  let g = Prng.create ~seed:13 in
  List.iter
    (fun n -> Alcotest.(check int) "length" n (String.length (Prng.bytes g n)))
    [ 0; 1; 7; 8; 9; 31; 32; 33 ]

let test_prng_exponential_mean () =
  let g = Prng.create ~seed:17 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.exponential g ~mean:4.0 in
    Alcotest.(check bool) "non-negative" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close to 4" true (abs_float (mean -. 4.0) < 0.2)

(* Golden streams.  The first 16 outputs of each stream kind, for four
   seeds, rendered as text and hashed.  The digests were recorded from
   the record-of-four-int64 implementation this generator replaced, so
   they pin the exact xoshiro256** / splitmix64 output every seeded run
   and committed export depends on. *)
let prng_render seed stream =
  let g = Prng.create ~seed in
  let b = Buffer.create 512 in
  let each f =
    for _ = 1 to 16 do
      Buffer.add_string b (f ());
      Buffer.add_char b '\n'
    done
  in
  (match stream with
  | "bits64" -> each (fun () -> Printf.sprintf "%016Lx" (Prng.bits64 g))
  | "float" -> each (fun () -> Printf.sprintf "%h" (Prng.float g 1.0))
  | "int" -> each (fun () -> string_of_int (Prng.int g 1_000_003))
  | "bytes" -> each (fun () -> hex (Prng.bytes g 13))
  | "split" ->
      let h = Prng.split g in
      each (fun () -> Printf.sprintf "%016Lx %016Lx" (Prng.bits64 h) (Prng.bits64 g))
  | "skip" ->
      ignore (Prng.bits64 g);
      each (fun () -> Printf.sprintf "%016Lx" (Prng.bits64 g))
  | _ -> invalid_arg stream);
  Buffer.contents b

let prng_golden =
  [
    (0, "bits64", "7df6b5b1c42e71e9b4370c7945692fdb");
    (0, "float", "5f897b8fb8fe0be9415fd8764d91373c");
    (0, "int", "1f4d1b6b5d33b4a2bf8e0bdd6fad1909");
    (0, "bytes", "e9a769d5eccdec4e5641a39e60ed3d94");
    (0, "split", "d27c0dea72686da532693e1b8d2b56e8");
    (0, "skip", "5fdec180329bced95bc37fa7e2c249ec");
    (1, "bits64", "52a2df0ca6ca9c75c51673b11fd9c1b8");
    (1, "float", "574d0aebae5fa9ef558d6b6caeb8e417");
    (1, "int", "8e17351d894ce5a52325fa206ba1de5d");
    (1, "bytes", "0cf90b8e9a1404b6b9c6e5372330b25f");
    (1, "split", "d4c49871a6d348eec01c25d80ec2afbd");
    (1, "skip", "003338a52ff414811a21023777e590ba");
    (42, "bits64", "edf178e2b14ce60550bc6e879386eb16");
    (42, "float", "ac61708f630da729d6f7d087e51340ee");
    (42, "int", "7ea1c4fe4617885848ff14824853c54b");
    (42, "bytes", "c6e72493d80b137078f80d33ee658090");
    (42, "split", "06006c8533678672456b1a27ca942315");
    (42, "skip", "3d7b6c072bfede8cc2855728ca98b062");
    (-1, "bits64", "fcb7102f0710bb9fb2a189f6e16a2c77");
    (-1, "float", "b068a0bab5ef3dec29af0cfdc65d908f");
    (-1, "int", "6ac07863ec2416a979f18718724082bc");
    (-1, "bytes", "fdafaeccf7123aac40f8add7e5cd63af");
    (-1, "split", "98c102ccdc5e2765a87b3b7b98f38141");
    (-1, "skip", "40de35a8f02c197e119da5f75207df1d");
  ]

let test_prng_golden () =
  (* The raw stream itself, spelled out for one seed. *)
  Alcotest.(check string)
    "seed 42 bits64"
    "15780b2e0c2ec716\n6104d9866d113a7e\nae17533239e499a1\necb8ad4703b360a1\n\
     fde6dc7fe2ec5e64\nc50da53101795238\nb82154855a65ddb2\nd99a2743ebe60087\n\
     c2e96e726e97647e\n9556615f775fbc3d\naeb53b340c103971\n4a69db9873af8965\n\
     cd0feda93006c6b6\n52480865a4b42742\nb60dec3bf2d887cd\ne0b55a68b96677fa\n"
    (prng_render 42 "bits64");
  List.iter
    (fun (seed, stream, want) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d %s" seed stream)
        want
        (String.sub (Sha256.digest_hex (prng_render seed stream)) 0 32))
    prng_golden

(* Minor words allocated per call of [f] over [n] calls, net of what
   reading the counter itself costs. *)
let minor_words_per_call n f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0 -. (b -. a)) /. float_of_int n

let test_prng_allocation () =
  let g = Prng.create ~seed:3 in
  (* The state lives in a flat byte buffer, so a draw allocates only
     the boxed float it returns (2 words); the record of four mutable
     int64 fields it replaced boxed every store (~23 words a draw). *)
  let per_draw =
    minor_words_per_call 10_000 (fun () ->
        ignore (Sys.opaque_identity (Prng.float g 1.0)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "Prng.float: %.2f minor words per draw <= 2" per_draw)
    true (per_draw <= 2.0);
  (* The radio's unit-disk test and its neighbour-index query sit beside
     the jitter draw on every frame; neither may allocate. *)
  let topo = Manet_sim.Topology.grid ~rows:6 ~cols:6 ~spacing:10.0 in
  let hits = ref 0 and buf = Array.make 36 0 in
  let per_test =
    minor_words_per_call 10_000 (fun () ->
        if Manet_sim.Topology.in_range topo ~range:15.0 14 15 then incr hits)
  in
  Alcotest.(check (float 0.0)) "Topology.in_range allocates nothing" 0.0 per_test;
  Alcotest.(check int) "in range every time" 10_000 !hits;
  ignore (Manet_sim.Topology.candidates topo ~range:15.0 0 buf);
  let per_query =
    minor_words_per_call 10_000 (fun () ->
        ignore (Manet_sim.Topology.candidates topo ~range:15.0 14 buf))
  in
  Alcotest.(check (float 0.0))
    "Topology.candidates allocates nothing between rebuilds" 0.0 per_query

(* ------------------------------------------------------------------ *)
(* Bignum                                                             *)
(* ------------------------------------------------------------------ *)

let bn = Bignum.of_int
let zero = bn 0
let two = bn 2
let neg v = Bignum.sub zero v
let abs v = if Bignum.sign v < 0 then neg v else v
let to_string = Bignum.Oracle.to_string
let of_string = Bignum.Oracle.of_string

let bn_testable =
  Alcotest.testable
    (fun fmt n -> Format.pp_print_string fmt (to_string n))
    Bignum.equal

(* Generator of arbitrary-size integers via decimal strings. *)
let gen_bignum_of_bits bits =
  QCheck.Gen.(
    map2
      (fun seed negative ->
        let g = Prng.create ~seed in
        let v = Bignum.random g ~bits in
        if negative then neg v else v)
      int bool)

let arb_bignum ?(bits = 300) () =
  QCheck.make ~print:to_string (gen_bignum_of_bits bits)

let test_bignum_small_roundtrip () =
  List.iter
    (fun i ->
      Alcotest.(check string) (string_of_int i) (string_of_int i)
        (to_string (bn i)))
    [ 0; 1; -1; 42; -42; 67108863; 67108864; -67108865; max_int / 2 ]

let test_bignum_decimal_known () =
  let cases =
    [
      ("0", 0);
      ("12345678901234567", 12345678901234567);
      ("-987654321", -987654321);
    ]
  in
  List.iter
    (fun (s, i) ->
      Alcotest.check bn_testable s (bn i) (of_string s);
      Alcotest.(check string) s s (to_string (bn i)))
    cases

let test_bignum_decimal_large () =
  let s = "123456789012345678901234567890123456789012345678901234567890" in
  Alcotest.(check string) "roundtrip" s (to_string (of_string s));
  let neg = "-" ^ s in
  Alcotest.(check string) "negative" neg (to_string (of_string neg))

let test_bignum_of_string_invalid () =
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument "Bignum.of_string: bad digit")
        (fun () -> ignore (of_string s)))
    [ "12a"; "1.5" ];
  Alcotest.check_raises "empty" (Invalid_argument "Bignum.of_string: empty")
    (fun () -> ignore (of_string ""))

let test_bignum_hex () =
  Alcotest.(check string) "hex" "deadbeef" (Bignum.Oracle.to_hex (Bignum.Oracle.of_hex "DEADBEEF"));
  Alcotest.check bn_testable "hex value" (bn 0xdeadbeef) (Bignum.Oracle.of_hex "deadbeef");
  Alcotest.(check string) "zero" "0" (Bignum.Oracle.to_hex zero)

let test_bignum_bytes_be () =
  let v = Bignum.Oracle.of_hex "0102030405060708090a" in
  Alcotest.(check string)
    "to_bytes" "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a"
    (Bignum.to_bytes_be v);
  Alcotest.check bn_testable "roundtrip" v
    (Bignum.of_bytes_be (Bignum.to_bytes_be v));
  Alcotest.(check int) "padded" 16 (String.length (Bignum.to_bytes_be ~pad:16 v))

(* The quadratic shift-and-add fold [of_bytes_be] replaced, kept as the
   reference for the limb-packing version. *)
let of_bytes_be_fold s =
  let acc = ref zero in
  String.iter
    (fun c ->
      acc := Bignum.add (Bignum.shift_left !acc 8) (bn (Char.code c)))
    s;
  !acc

let prop_of_bytes_be_matches_fold =
  qtest "bignum: of_bytes_be = shift-and-add fold"
    QCheck.(pair (int_bound 4) (string_of_size QCheck.Gen.(int_bound 80)))
    (fun (zeros, s) ->
      let s = String.make zeros '\000' ^ s in
      let x = Bignum.of_bytes_be s in
      Bignum.equal x (of_bytes_be_fold s)
      && Bignum.equal (Bignum.of_bytes_be (Bignum.to_bytes_be ~pad:(String.length s) x)) x)

let prop_add_commutes =
  qtest "bignum: a+b = b+a"
    QCheck.(pair (arb_bignum ()) (arb_bignum ()))
    (fun (a, b) -> Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_add_sub_inverse =
  qtest "bignum: (a+b)-b = a"
    QCheck.(pair (arb_bignum ()) (arb_bignum ()))
    (fun (a, b) -> Bignum.equal (Bignum.sub (Bignum.add a b) b) a)

let prop_mul_commutes =
  qtest "bignum: a*b = b*a"
    QCheck.(pair (arb_bignum ()) (arb_bignum ()))
    (fun (a, b) -> Bignum.equal (Bignum.mul a b) (Bignum.mul b a))

let prop_mul_distributes =
  qtest "bignum: a*(b+c) = a*b + a*c"
    QCheck.(triple (arb_bignum ()) (arb_bignum ()) (arb_bignum ()))
    (fun (a, b, c) ->
      Bignum.equal
        (Bignum.mul a (Bignum.add b c))
        (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_karatsuba_matches_school =
  (* Operands large enough to cross the Karatsuba threshold; compare the
     product against an independent identity: (a*b) / a = b. *)
  qtest ~count:20 "bignum: karatsuba consistent with division"
    QCheck.(pair (arb_bignum ~bits:2000 ()) (arb_bignum ~bits:1800 ()))
    (fun (a, b) ->
      let a = abs a and b = abs b in
      QCheck.assume (Bignum.sign a > 0);
      let exact b =
        let q, r = Bignum.divmod (Bignum.mul a b) a in
        Bignum.equal q b && Bignum.equal r zero
      in
      (* Also an unbalanced pair (~77 x ~33 limbs), whose middle product
         carries zero high limbs past the end of the result. *)
      exact b && exact (Bignum.shift_right b 940))

let prop_divmod_invariant =
  qtest "bignum: a = b*q + r with |r| < |b|"
    QCheck.(pair (arb_bignum ~bits:500 ()) (arb_bignum ~bits:200 ()))
    (fun (a, b) ->
      QCheck.assume (Bignum.sign b <> 0);
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul b q) r)
      && Bignum.compare (abs r) (abs b) < 0
      && (Bignum.sign r = 0 || Bignum.sign r = Bignum.sign a))

let prop_divmod_matches_int =
  qtest "bignum: divmod matches native int semantics"
    QCheck.(pair int int)
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      (* Avoid abs min_int overflow in the test oracle itself. *)
      QCheck.assume (a > min_int && b > min_int);
      let q, r = Bignum.divmod (bn a) (bn b) in
      Bignum.equal q (bn (a / b)) && Bignum.equal r (bn (a mod b)))

let prop_mod_nonneg =
  qtest "bignum: mod_ is in [0, m)"
    QCheck.(pair (arb_bignum ()) (arb_bignum ~bits:100 ()))
    (fun (a, m) ->
      let m = abs m in
      QCheck.assume (Bignum.sign m > 0);
      let r = Bignum.mod_ a m in
      Bignum.sign r >= 0 && Bignum.compare r m < 0)

let prop_shift_left_is_mul_pow2 =
  qtest "bignum: shift_left n k = n * 2^k"
    QCheck.(pair (arb_bignum ()) (int_bound 200))
    (fun (n, k) ->
      let pow2 = Bignum.shift_left Bignum.one k in
      Bignum.equal (Bignum.shift_left n k) (Bignum.mul n pow2))

let prop_shift_right_inverse =
  qtest "bignum: shift_right (shift_left n k) k = n"
    QCheck.(pair (arb_bignum ()) (int_bound 200))
    (fun (n, k) -> Bignum.equal (Bignum.shift_right (Bignum.shift_left n k) k) n)

let prop_numbits =
  qtest "bignum: 2^(numbits-1) <= |n| < 2^numbits"
    (arb_bignum ())
    (fun n ->
      QCheck.assume (Bignum.sign n <> 0);
      let nb = Bignum.numbits n in
      let lo = Bignum.shift_left Bignum.one (nb - 1) in
      let hi = Bignum.shift_left Bignum.one nb in
      let a = abs n in
      Bignum.compare lo a <= 0 && Bignum.compare a hi < 0)

let prop_string_roundtrip =
  qtest "bignum: of_string (to_string n) = n"
    (arb_bignum ~bits:400 ())
    (fun n -> Bignum.equal n (of_string (to_string n)))

let prop_egcd =
  qtest "bignum: egcd bezout identity"
    QCheck.(pair (arb_bignum ~bits:200 ()) (arb_bignum ~bits:200 ()))
    (fun (a, b) ->
      let a = abs a and b = abs b in
      let g, x, y = Bignum.egcd a b in
      Bignum.equal g (Bignum.add (Bignum.mul a x) (Bignum.mul b y))
      (* g divides both, so with Bezout it is their greatest divisor. *)
      && (Bignum.sign g = 0
         || Bignum.sign (Bignum.mod_ a g) = 0 && Bignum.sign (Bignum.mod_ b g) = 0))

let prop_mod_inverse =
  qtest "bignum: a * inv(a) = 1 (mod m)"
    QCheck.(pair (arb_bignum ~bits:200 ()) (arb_bignum ~bits:200 ()))
    (fun (a, m) ->
      let m = abs m in
      QCheck.assume (Bignum.compare m two > 0);
      match Bignum.mod_inverse a m with
      | None ->
          let g, _, _ = Bignum.egcd (abs a) m in
          not (Bignum.equal g Bignum.one)
      | Some inv -> Bignum.equal (Bignum.mod_ (Bignum.mul a inv) m) Bignum.one)

let naive_mod_pow b e m =
  (* Oracle for small exponents. *)
  let rec go acc i =
    if i = 0 then acc else go (Bignum.mod_ (Bignum.mul acc b) m) (i - 1)
  in
  go (Bignum.mod_ Bignum.one m) e

let prop_mod_pow_matches_naive =
  qtest ~count:50 "bignum: mod_pow matches naive oracle"
    QCheck.(triple (arb_bignum ~bits:60 ()) (int_bound 40) (arb_bignum ~bits:60 ()))
    (fun (b, e, m) ->
      let m = abs m in
      QCheck.assume (Bignum.sign m > 0);
      Bignum.equal (Bignum.mod_pow b (bn e) m) (naive_mod_pow b e m))

(* An odd modulus of exactly [limbs] 26-bit limbs, and a base drawn from
   the edge cases the Montgomery kernel must get right: 0, m - 1, values
   at or above m (and negative), and uniform residues. *)
let gen_mont_case =
  QCheck.Gen.(
    map
      (fun (seed, limbs, base_kind, exp_kind) ->
        let g = Prng.create ~seed in
        let bits = (26 * (limbs - 1)) + 1 + Prng.int g 26 in
        let m =
          Bignum.add
            (Bignum.random g ~bits:(bits - 1))
            (Bignum.shift_left Bignum.one (bits - 1))
        in
        let m = if Bignum.testbit m 0 then m else Bignum.add m Bignum.one in
        let b =
          match base_kind with
          | 0 -> zero
          | 1 -> Bignum.sub m Bignum.one
          | 2 -> Bignum.add m (Bignum.random g ~bits:(bits + 40))
          | 3 -> neg (Bignum.random g ~bits)
          | _ -> Bignum.random_below g m
        in
        let e =
          match exp_kind with
          | 0 -> zero
          | 1 -> Bignum.one
          | 2 -> Bignum.sub (Bignum.shift_left Bignum.one (1 + Prng.int g 300)) Bignum.one
          | _ -> Bignum.random g ~bits:(1 + Prng.int g 300)
        in
        (m, b, e))
      (quad int (int_range 2 40) (int_bound 4) (int_bound 3)))

let arb_mont_case =
  QCheck.make
    ~print:(fun (m, b, e) ->
      Printf.sprintf "m=%s b=%s e=%s" (Bignum.Oracle.to_hex m) (to_string b) (Bignum.Oracle.to_hex e))
    gen_mont_case

let prop_mod_pow_montgomery_matches_generic =
  (* Odd multi-limb moduli take the Montgomery path in mod_pow; it must
     agree with the division-based implementation bit for bit, with or
     without a prebuilt context. *)
  qtest ~count:300 "bignum: montgomery mod_pow = generic mod_pow" arb_mont_case
    (fun (m, b, e) ->
      let want = Bignum.Oracle.mod_pow_generic b e m in
      Bignum.equal (Bignum.mod_pow b e m) want
      && Bignum.equal (Bignum.mod_pow_ctx (Bignum.mod_ctx m) b e) want)

let prop_mod_pow_square_chains =
  (* e = 2^j is a pure chain of squarings and e = 2^j - 1 alternates a
     squaring with a multiply by g, so both pin the squaring step of the
     Montgomery path to the division-based oracle. *)
  qtest ~count:300 "bignum: mod_pow_ctx = generic on 2^j and 2^j - 1"
    QCheck.(pair arb_mont_case (int_range 1 300))
    (fun ((m, b, _), j) ->
      let ctx = Bignum.mod_ctx m in
      let p = Bignum.shift_left Bignum.one j in
      List.for_all
        (fun e -> Bignum.equal (Bignum.mod_pow_ctx ctx b e) (Bignum.Oracle.mod_pow_generic b e m))
        [ p; Bignum.sub p Bignum.one ])

let test_mod_pow_even_modulus () =
  (* Even moduli must still work (generic path). *)
  let b = of_string "123456789123456789" in
  let e = Bignum.of_int 65537 in
  let m = Bignum.shift_left (of_string "987654321987654321") 1 in
  Alcotest.check bn_testable "even modulus" (naive_mod_pow b 7 m)
    (Bignum.mod_pow b (bn 7) m);
  Alcotest.(check bool) "big even exponentiation runs" true
    (Bignum.compare (Bignum.mod_pow b e m) m < 0)

let test_mod_pow_fermat () =
  (* Fermat's little theorem at a known 61-bit Mersenne prime. *)
  let p = of_string "2305843009213693951" in
  let g = Prng.create ~seed:23 in
  for _ = 1 to 10 do
    let a = Bignum.add Bignum.one (Bignum.random_below g (Bignum.sub p Bignum.one)) in
    Alcotest.check bn_testable "a^(p-1) = 1 mod p" Bignum.one
      (Bignum.mod_pow a (Bignum.sub p Bignum.one) p)
  done

let test_primality_known () =
  let g = Prng.create ~seed:29 in
  let primes = [ "2"; "3"; "65537"; "2305843009213693951"; "170141183460469231731687303715884105727" ] in
  let composites = [ "1"; "0"; "4"; "65536"; "561"; "341550071728321"; "2305843009213693953" ] in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("prime " ^ s) true
        (Bignum.is_probable_prime g (of_string s)))
    primes;
  List.iter
    (fun s ->
      Alcotest.(check bool) ("composite " ^ s) false
        (Bignum.is_probable_prime g (of_string s)))
    composites

let test_generate_prime () =
  let g = Prng.create ~seed:31 in
  List.iter
    (fun bits ->
      let p = Bignum.generate_prime g ~bits in
      Alcotest.(check int) "width" bits (Bignum.numbits p);
      Alcotest.(check bool) "prime" true (Bignum.is_probable_prime g p);
      Alcotest.(check bool) "odd" true (Bignum.testbit p 0))
    [ 16; 64; 128 ]

let test_random_below () =
  let g = Prng.create ~seed:37 in
  let n = of_string "1000000007" in
  for _ = 1 to 200 do
    let v = Bignum.random_below g n in
    Alcotest.(check bool) "in range" true
      (Bignum.sign v >= 0 && Bignum.compare v n < 0)
  done

let test_mod_pow_allocation () =
  (* A 256-bit odd modulus is k = 10 limbs, the size of each RSA-512 CRT
     half.  An exponentiation may allocate its table of 8 odd powers,
     two scratch buffers and the result, each k + 1 words with its
     header, and small change: no Montgomery operation allocates. *)
  let g = Prng.create ~seed:83 in
  let top = Bignum.shift_left Bignum.one 255 in
  let m = Bignum.add (Bignum.random g ~bits:255) top in
  let m = if Bignum.testbit m 0 then m else Bignum.add m Bignum.one in
  let e = Bignum.add (Bignum.random g ~bits:255) top in
  let b = Bignum.random_below g m in
  let k = 10 in
  let ctx = Bignum.mod_ctx m in
  Alcotest.check bn_testable "agrees with division" (Bignum.Oracle.mod_pow_generic b e m)
    (Bignum.mod_pow_ctx ctx b e);
  let per_call =
    minor_words_per_call 100 (fun () ->
        ignore (Sys.opaque_identity (Bignum.mod_pow_ctx ctx b e)))
  in
  let budget = float_of_int (12 * (k + 1)) in
  Alcotest.(check bool)
    (Printf.sprintf "mod_pow: %.1f minor words per call <= %.0f" per_call budget)
    true (per_call <= budget);
  (* Trial division runs this for 168 primes on every odd keygen
     candidate. *)
  let per_rem =
    minor_words_per_call 10_000 (fun () ->
        ignore (Sys.opaque_identity (Bignum.rem_int m 997)))
  in
  Alcotest.(check (float 0.0)) "rem_int allocates nothing" 0.0 per_rem;
  Alcotest.(check int) "rem_int value"
    (int_of_string (to_string (Bignum.mod_ m (bn 997))))
    (Bignum.rem_int m 997)

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4 vectors)                                       *)
(* ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
         ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Sha256.digest_hex input))
    cases

let test_sha256_million_a () =
  let input = String.make 1_000_000 'a' in
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex input)

let prop_sha256_streaming =
  qtest "sha256: streaming chunks match one-shot"
    QCheck.(pair (string_of_size QCheck.Gen.(int_bound 500)) (int_bound 64))
    (fun (s, chunk) ->
      let chunk = max 1 chunk in
      let ctx = Sha256.init () in
      let len = String.length s in
      let pos = ref 0 in
      while !pos < len do
        let take = min chunk (len - !pos) in
        Sha256.update ctx (String.sub s !pos take);
        pos := !pos + take
      done;
      String.equal (Sha256.finalize ctx) (Sha256.digest s))

let test_sha256_block_boundaries () =
  (* Lengths straddling block/padding boundaries exercise the padding
     arithmetic. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      Sha256.update ctx s;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Sha256.digest_hex s)
        (hex (Sha256.finalize ctx)))
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

(* ------------------------------------------------------------------ *)
(* HMAC-SHA256 (RFC 4231 vectors)                                     *)
(* ------------------------------------------------------------------ *)

let hexval c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> invalid_arg "hexval"

let of_hex s =
  String.init (String.length s / 2) (fun i ->
      Char.chr ((hexval s.[2 * i] lsl 4) lor hexval s.[(2 * i) + 1]))

let test_hmac_rfc4231 () =
  let cases =
    [
      ( of_hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
        "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( "Jefe",
        "what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
      ( of_hex (String.concat "" (List.init 20 (fun _ -> "aa"))),
        of_hex (String.concat "" (List.init 50 (fun _ -> "dd"))),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      (* Key longer than one block (131 bytes of 0xaa). *)
      ( of_hex (String.concat "" (List.init 131 (fun _ -> "aa"))),
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
    ]
  in
  List.iter
    (fun (key, msg, expected) ->
      Alcotest.(check string) "tag" expected
        (hex (Hmac.hmac_sha256 ~key msg)))
    cases

let test_hmac_verify () =
  let key = "secret" and msg = "payload" in
  let tag = Hmac.hmac_sha256 ~key msg in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key msg ~tag);
  Alcotest.(check bool) "rejects bad tag" false
    (Hmac.verify ~key msg ~tag:(String.map (fun c -> Char.chr (Char.code c lxor 1)) tag));
  Alcotest.(check bool) "rejects bad msg" false (Hmac.verify ~key "other" ~tag);
  Alcotest.(check bool) "rejects truncated" false
    (Hmac.verify ~key msg ~tag:(String.sub tag 0 16))

(* ------------------------------------------------------------------ *)
(* RSA                                                                *)
(* ------------------------------------------------------------------ *)

let test_rsa_sign_verify () =
  let g = Prng.create ~seed:41 in
  let pub, priv = Rsa.generate g ~bits:256 in
  let msg = "route request 42" in
  let signature = Rsa.sign priv msg in
  Alcotest.(check int) "sig size" ((Bignum.numbits pub.Rsa.n + 7) / 8) (String.length signature);
  Alcotest.(check bool) "accepts" true (Rsa.verify pub ~msg ~signature);
  Alcotest.(check bool) "rejects other msg" false
    (Rsa.verify pub ~msg:"route request 43" ~signature)

let test_rsa_wrong_key () =
  let g = Prng.create ~seed:43 in
  let pub1, priv1 = Rsa.generate g ~bits:256 in
  let pub2, _ = Rsa.generate g ~bits:256 in
  let msg = "hello" in
  let signature = Rsa.sign priv1 msg in
  Alcotest.(check bool) "own key accepts" true (Rsa.verify pub1 ~msg ~signature);
  Alcotest.(check bool) "other key rejects" false (Rsa.verify pub2 ~msg ~signature)

let test_rsa_tampered_signature () =
  let g = Prng.create ~seed:47 in
  let pub, priv = Rsa.generate g ~bits:256 in
  let msg = "msg" in
  let signature = Bytes.of_string (Rsa.sign priv msg) in
  Bytes.set signature 0 (Char.chr (Char.code (Bytes.get signature 0) lxor 0x80));
  Alcotest.(check bool) "rejects" false
    (Rsa.verify pub ~msg ~signature:(Bytes.unsafe_to_string signature));
  Alcotest.(check bool) "rejects wrong length" false
    (Rsa.verify pub ~msg ~signature:"short")

let test_rsa_pk_serialization () =
  let g = Prng.create ~seed:53 in
  let pub, priv = Rsa.generate g ~bits:256 in
  let bytes = Rsa.public_key_to_bytes pub in
  (match Rsa.public_key_of_bytes bytes with
  | None -> Alcotest.fail "roundtrip failed"
  | Some pub' ->
      let msg = "serialized" in
      let signature = Rsa.sign priv msg in
      Alcotest.(check bool) "decoded key verifies" true
        (Rsa.verify pub' ~msg ~signature));
  Alcotest.(check bool) "garbage rejected" true
    (Rsa.public_key_of_bytes "\x00" = None);
  Alcotest.(check bool) "truncated rejected" true
    (Rsa.public_key_of_bytes (String.sub bytes 0 (String.length bytes - 1)) = None)

let test_rsa_crt_matches_direct () =
  (* The CRT signing path must produce byte-identical signatures to the
     direct exponentiation. *)
  let g = Prng.create ~seed:101 in
  let _, priv = Rsa.generate g ~bits:384 in
  for i = 1 to 10 do
    let msg = Printf.sprintf "message %d" i in
    Alcotest.(check string) msg (Rsa.sign_no_crt priv msg) (Rsa.sign priv msg)
  done

(* Golden RSA-512 streams, recorded from the CIOS / right-to-left binary
   exponentiation this kernel replaced.  The moduli pin keygen's PRNG
   draw order (every candidate, Miller-Rabin base and retry), and the
   signatures pin the CRT signing path bit for bit. *)
let rsa_golden_moduli =
  [
    ( 1,
      "d56496a9abffc759a6389efb28c8265563ab69083ccb38d401a29769f61e5584\
       df5d259949a63c1fe61a845e2f1f8a5caed711289cdb762b48736055084bb69d" );
    ( 2,
      "bee5a6eefacfca0cb72ecc969df690c930d3ba732c720d8067e64e7307b2c367\
       55a92d1aee406f2e9a0b574505ecbb3e190fe9302aaa3ea75d56a4c3c256c7c5" );
    ( 42,
      "758c31a19decb402af4a7efab280a3b0d6bb76c10e045e2c913ea9eca142e89c\
       b274168f423705de3fb4367fbead115d67104c9d93acac6768eaa06f1561a2ff" );
  ]

let rsa_golden_signatures =
  [
    ( "",
      "8bba18e73cc042f89ef5da192176fdebd95b4761fc27a414fd2462f893b2f668\
       11cedd35cdc2c0a5a8503eab213430e8f042832752f14608388ff55a80ec237e" );
    ( "abc",
      "749ef55826627709299404ce0a9528f6a9ce61240d208b8a96f12be6e991a96a\
       4c0de60201a71d8946b6e627417e820a37184b4443e99056a7e1f8c074da01a6" );
    ( "route request 42",
      "9f6d1a87b9c92781d9a515b85b2df6229ae1ef119de774e616f4e4909361d4ae\
       b1bb48302b6bac467ddae15c529f1c525946ff94485d1acf742585f384323f65" );
    ( "AREQ|fe80::1|7",
      "696dfcf4db929904bc192a72b6d706917a992f28c24bf0a648c36d3ea86444e8\
       4c28562532be31d8341cddee5fefe4f2e2afaac0fed643faa0823c28f97f2794" );
    ( String.make 200 'x',
      "4d02441783ae3da0096b6d5c82d7d7592e1b2ad7d6b379d62801c60bf1555093\
       362e94bd75848e969efa5bda395818463991e2993568f24ba110382e76d8d74e" );
  ]

let test_rsa_golden () =
  List.iter
    (fun (seed, want) ->
      let pub, _ = Rsa.generate (Prng.create ~seed) ~bits:512 in
      Alcotest.(check string) (Printf.sprintf "seed %d modulus" seed) want
        (Bignum.Oracle.to_hex pub.Rsa.n))
    rsa_golden_moduli;
  let pub, priv = Rsa.generate (Prng.create ~seed:1) ~bits:512 in
  List.iter
    (fun (msg, want) ->
      let signature = Rsa.sign priv msg in
      let label = Printf.sprintf "sign %S" msg in
      Alcotest.(check string) label want (hex signature);
      Alcotest.(check string) (label ^ " = sign_no_crt") signature
        (Rsa.sign_no_crt priv msg);
      Alcotest.(check bool) (label ^ " verifies") true
        (Rsa.verify pub ~msg ~signature))
    rsa_golden_signatures

let test_rsa_determinism () =
  (* Same PRNG seed must give the same key pair: experiments rely on it. *)
  let gen seed =
    let g = Prng.create ~seed in
    let pub, _ = Rsa.generate g ~bits:128 in
    Rsa.public_key_to_bytes pub
  in
  Alcotest.(check string) "reproducible" (gen 99) (gen 99)

(* ------------------------------------------------------------------ *)
(* Mock signatures and the suite interface                            *)
(* ------------------------------------------------------------------ *)

let test_mock_sig () =
  let reg = Mock_sig.create_registry () in
  let g = Prng.create ~seed:59 in
  let pk, sk = Mock_sig.generate reg g in
  let msg = "areq" in
  let signature = Mock_sig.sign sk msg in
  Alcotest.(check bool) "accepts" true
    (Mock_sig.verify reg ~pk_bytes:pk ~msg ~signature);
  Alcotest.(check bool) "rejects other msg" false
    (Mock_sig.verify reg ~pk_bytes:pk ~msg:"arep" ~signature);
  Alcotest.(check bool) "unknown pk rejects" false
    (Mock_sig.verify reg ~pk_bytes:(String.make 32 'z') ~msg ~signature)

let test_mock_registries_isolated () =
  let reg1 = Mock_sig.create_registry () and reg2 = Mock_sig.create_registry () in
  let g = Prng.create ~seed:61 in
  let pk, sk = Mock_sig.generate reg1 g in
  let signature = Mock_sig.sign sk "m" in
  Alcotest.(check bool) "own registry" true
    (Mock_sig.verify reg1 ~pk_bytes:pk ~msg:"m" ~signature);
  Alcotest.(check bool) "foreign registry" false
    (Mock_sig.verify reg2 ~pk_bytes:pk ~msg:"m" ~signature)

let suite_roundtrip suite =
  let kp = suite.Suite.generate () in
  let msg = "suite message" in
  let signature = kp.Suite.sign msg in
  Alcotest.(check bool) "accepts" true
    (suite.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg ~signature);
  Alcotest.(check bool) "rejects" false
    (suite.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg:"other" ~signature);
  Alcotest.(check int) "sig size advertised" suite.Suite.signature_size
    (String.length signature)

let test_suite_rsa () = suite_roundtrip (Suite.rsa ~bits:256 (Prng.create ~seed:67))
let test_suite_mock () = suite_roundtrip (Suite.mock (Prng.create ~seed:71))

let test_suite_counters () =
  let suite = Suite.mock (Prng.create ~seed:73) in
  let kp = suite.Suite.generate () in
  let s = kp.Suite.sign "a" in
  ignore (suite.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg:"a" ~signature:s);
  ignore (suite.Suite.verify ~pk_bytes:kp.Suite.pk_bytes ~msg:"b" ~signature:s);
  Alcotest.(check int) "signs" 1 suite.Suite.sign_count;
  Alcotest.(check int) "verifies" 2 suite.Suite.verify_count

(* Per-key verify contexts.  The rsa suite caches each public key's
   parse and Montgomery context; the reference parses the key afresh and
   runs Rsa.verify.  Every input is asked of a fresh suite (cold) and
   twice of one long-lived suite (warm), interleaved across real keys of
   three sizes, tampered inputs and forged keys. *)
let verify_keys =
  lazy
    (Array.of_list
       (List.map
          (fun (seed, bits) ->
            let pub, priv = Rsa.generate (Prng.create ~seed) ~bits in
            (pub, priv, Rsa.public_key_to_bytes pub))
          [ (211, 512); (223, 384); (227, 256) ]))

let verify_msgs = [| ""; "a"; "route request 42"; String.make 100 'x' |]

type verify_query = { vkey : int; vkind : int; vmsg : int; vpos : int; vmask : int }

let flip s pos mask =
  if s = "" then String.make 1 (Char.chr mask)
  else
    String.mapi
      (fun i c -> if i = pos mod String.length s then Char.chr (Char.code c lxor mask) else c)
      s

(* An odd 512-bit modulus with e = 65537 and a signature-length string
   under it, drawn from [seed]: a key nobody holds, built without key
   generation. *)
let forged_key seed =
  let g = Prng.create ~seed in
  let b = Bytes.init 64 (fun _ -> Char.chr (Prng.int g 256)) in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lor 0x80));
  Bytes.set b 63 (Char.chr (Char.code (Bytes.get b 63) lor 1));
  let n = Bignum.of_bytes_be (Bytes.to_string b) in
  ( Rsa.public_key_to_bytes { Rsa.n; e = Bignum.of_int 65537 },
    String.init 64 (fun _ -> Char.chr (Prng.int g 256)) )

(* (pk_bytes, msg, signature) for one query. *)
let verify_input q =
  let keys = Lazy.force verify_keys in
  let pub, priv, pk = keys.(q.vkey mod Array.length keys) in
  let msg = verify_msgs.(q.vmsg mod Array.length verify_msgs) in
  let signature = Rsa.sign priv msg in
  let size = (Bignum.numbits pub.Rsa.n + 7) / 8 in
  match q.vkind with
  | 0 -> (pk, msg, signature)
  | 1 -> (pk, msg, flip signature q.vpos q.vmask)
  | 2 -> (pk, flip msg q.vpos q.vmask, signature)
  | 3 -> (flip pk q.vpos q.vmask, msg, signature)
  | 4 -> (String.sub pk 0 (q.vpos mod String.length pk), msg, signature)
  | 5 ->
      let wrong =
        if q.vpos land 1 = 0 then String.sub signature 0 (size - 1) else signature ^ "\000"
      in
      (pk, msg, wrong)
  | 6 ->
      let at_least_n =
        if q.vpos land 1 = 0 then Bignum.to_bytes_be ~pad:size pub.Rsa.n
        else String.make size '\xff'
      in
      (pk, msg, at_least_n)
  | 7 -> (String.init (q.vpos mod 80) (fun i -> Char.chr ((i * q.vmask) land 0xFF)), msg, signature)
  | 8 ->
      let _, other, _ = keys.((q.vkey + 1) mod Array.length keys) in
      (pk, msg, Rsa.sign other msg)
  | _ ->
      let pk, signature = forged_key q.vpos in
      (pk, msg, signature)

let verify_reference ~pk_bytes ~msg ~signature =
  match Rsa.public_key_of_bytes pk_bytes with
  | None -> false
  | Some pk -> Rsa.verify pk ~msg ~signature

(* True when every cold and warm answer equals the reference; fails
   loudly on an accept the reference rejects, ROADMAP item 8's bar. *)
let check_verify_queries queries =
  let warm = Suite.rsa (Prng.create ~seed:1) in
  List.for_all
    (fun q ->
      let pk_bytes, msg, signature = verify_input q in
      let want = verify_reference ~pk_bytes ~msg ~signature in
      let cold = (Suite.rsa (Prng.create ~seed:1)).Suite.verify ~pk_bytes ~msg ~signature in
      let w1 = warm.Suite.verify ~pk_bytes ~msg ~signature in
      let w2 = warm.Suite.verify ~pk_bytes ~msg ~signature in
      if (not want) && (cold || w1 || w2) then
        QCheck.Test.fail_reportf "cached verify accepted kind %d that the reference rejects"
          q.vkind;
      cold = want && w1 = want && w2 = want)
    queries
  && warm.Suite.verify_count = 2 * List.length queries

let arb_verify_queries =
  let open QCheck.Gen in
  let query =
    map
      (fun (vkey, vkind, (vmsg, vpos, vmask)) -> { vkey; vkind; vmsg; vpos; vmask })
      (triple (int_bound 2) (int_bound 9) (triple (int_bound 3) (int_bound 10_000) (int_range 1 255)))
  in
  QCheck.make
    ~print:(fun qs ->
      String.concat "; "
        (List.map
           (fun q -> Printf.sprintf "key %d kind %d msg %d pos %d mask %d" q.vkey q.vkind q.vmsg q.vpos q.vmask)
           qs))
    (list_size (int_range 1 24) query)

let prop_suite_verify_cache_sound =
  qtest ~count:60 "rsa suite: cached verify = fresh parse + Rsa.verify" arb_verify_queries
    check_verify_queries

(* More forged keys than the cache holds, between real-key queries: the
   cache empties itself mid-run and the answers do not change. *)
let test_suite_verify_cache_reset () =
  let real vkey vkind = { vkey; vkind; vmsg = 2; vpos = 7; vmask = 1 } in
  let forged =
    List.init 300 (fun i -> { vkey = 0; vkind = 9; vmsg = i; vpos = 1000 + i; vmask = 1 })
  in
  let before = List.concat_map (fun k -> [ real k 0; real k 1; real k 3 ]) [ 0; 1; 2 ] in
  Alcotest.(check bool) "cold and warm agree with the reference" true
    (check_verify_queries (before @ forged @ before))

let suites =
  [
    ( "crypto.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
        Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        Alcotest.test_case "bytes length" `Quick test_prng_bytes_length;
        Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
        Alcotest.test_case "golden streams" `Quick test_prng_golden;
        Alcotest.test_case "allocation budget" `Quick test_prng_allocation;
      ] );
    ( "crypto.bignum",
      [
        Alcotest.test_case "small roundtrip" `Quick test_bignum_small_roundtrip;
        Alcotest.test_case "decimal known" `Quick test_bignum_decimal_known;
        Alcotest.test_case "decimal large" `Quick test_bignum_decimal_large;
        Alcotest.test_case "of_string invalid" `Quick test_bignum_of_string_invalid;
        Alcotest.test_case "hex" `Quick test_bignum_hex;
        Alcotest.test_case "bytes be" `Quick test_bignum_bytes_be;
        prop_add_commutes;
        prop_add_sub_inverse;
        prop_mul_commutes;
        prop_mul_distributes;
        prop_karatsuba_matches_school;
        prop_divmod_invariant;
        prop_divmod_matches_int;
        prop_mod_nonneg;
        prop_shift_left_is_mul_pow2;
        prop_shift_right_inverse;
        prop_numbits;
        prop_string_roundtrip;
        prop_egcd;
        prop_mod_inverse;
        prop_mod_pow_matches_naive;
        prop_mod_pow_montgomery_matches_generic;
        prop_mod_pow_square_chains;
        prop_of_bytes_be_matches_fold;
        Alcotest.test_case "mod_pow allocation budget" `Quick test_mod_pow_allocation;
        Alcotest.test_case "mod_pow even modulus" `Quick test_mod_pow_even_modulus;
        Alcotest.test_case "fermat" `Quick test_mod_pow_fermat;
        Alcotest.test_case "primality known" `Quick test_primality_known;
        Alcotest.test_case "generate prime" `Quick test_generate_prime;
        Alcotest.test_case "random below" `Quick test_random_below;
      ] );
    ( "crypto.sha256",
      [
        Alcotest.test_case "fips vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "million a" `Slow test_sha256_million_a;
        prop_sha256_streaming;
        Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
      ] );
    ( "crypto.hmac",
      [
        Alcotest.test_case "rfc4231 vectors" `Quick test_hmac_rfc4231;
        Alcotest.test_case "verify" `Quick test_hmac_verify;
      ] );
    ( "crypto.rsa",
      [
        Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
        Alcotest.test_case "wrong key" `Quick test_rsa_wrong_key;
        Alcotest.test_case "tampered signature" `Quick test_rsa_tampered_signature;
        Alcotest.test_case "pk serialization" `Quick test_rsa_pk_serialization;
        Alcotest.test_case "crt matches direct" `Quick test_rsa_crt_matches_direct;
        Alcotest.test_case "determinism" `Quick test_rsa_determinism;
        Alcotest.test_case "golden streams" `Quick test_rsa_golden;
      ] );
    ( "crypto.suite",
      [
        Alcotest.test_case "mock sig" `Quick test_mock_sig;
        Alcotest.test_case "mock registries isolated" `Quick test_mock_registries_isolated;
        Alcotest.test_case "rsa suite" `Quick test_suite_rsa;
        Alcotest.test_case "mock suite" `Quick test_suite_mock;
        Alcotest.test_case "op counters" `Quick test_suite_counters;
        Alcotest.test_case "verify cache reset" `Quick test_suite_verify_cache_reset;
        prop_suite_verify_cache_sound;
      ] );
  ]
