(* xoshiro256** by Blackman & Vigna, seeded via splitmix64.  Both are
   public-domain reference algorithms.

   The 256-bit state lives in one 32-byte [Bytes.t], words s0..s3 at
   byte offsets 0, 8, 16 and 24.  [Bytes.get_int64_ne]/[set_int64_ne]
   are compiler primitives, so a draw reads, mixes and writes the state
   in registers: unlike [mutable int64] record fields, whose every
   store allocates a fresh box, a draw allocates nothing of its own. *)

type t = Bytes.t

let ( +% ) = Int64.add
let ( *% ) = Int64.mul
let ( ^% ) = Int64.logxor

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64: a one-off mixer used only to spread a small seed over the
   256-bit xoshiro state. *)
let splitmix64 state =
  state := !state +% 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = (z ^% Int64.shift_right_logical z 30) *% 0xBF58476D1CE4E5B9L in
  let z = (z ^% Int64.shift_right_logical z 27) *% 0x94D049BB133111EBL in
  z ^% Int64.shift_right_logical z 31

let of_splitmix seed =
  let st = ref seed in
  let g = Bytes.create 32 in
  for w = 0 to 3 do
    Bytes.set_int64_ne g (8 * w) (splitmix64 st)
  done;
  g

let create ~seed = of_splitmix (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] bits64 g =
  let s0 = Bytes.get_int64_ne g 0
  and s1 = Bytes.get_int64_ne g 8
  and s2 = Bytes.get_int64_ne g 16
  and s3 = Bytes.get_int64_ne g 24 in
  let result = rotl (s1 *% 5L) 7 *% 9L in
  let t = Int64.shift_left s1 17 in
  let s2 = s2 ^% s0 in
  let s3 = s3 ^% s1 in
  Bytes.set_int64_ne g 8 (s1 ^% s2);
  Bytes.set_int64_ne g 0 (s0 ^% s3);
  Bytes.set_int64_ne g 16 (s2 ^% t);
  Bytes.set_int64_ne g 24 (rotl s3 45);
  result

let split g = of_splitmix (bits64 g)

let int64 g bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Prng.int64: bound <= 0";
  (* Rejection sampling over the top 63 bits to avoid modulo bias. *)
  let rec loop () =
    let raw = Int64.shift_right_logical (bits64 g) 1 in
    let v = Int64.rem raw bound in
    if Int64.compare (Int64.sub raw v) (Int64.sub (Int64.sub Int64.max_int bound) 1L) <= 0
    then v
    else loop ()
  in
  loop ()

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  Int64.to_int (int64 g (Int64.of_int bound))

let[@inline] float g bound =
  (* 53 random bits scaled into [0, 1). *)
  let raw = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float raw /. 9007199254740992.0 *. bound

let bool g = Int64.logand (bits64 g) 1L = 1L

let bytes g n =
  let b = Bytes.create n in
  let i = ref 0 in
  while !i < n do
    let v = ref (bits64 g) in
    let k = min 8 (n - !i) in
    for j = 0 to k - 1 do
      Bytes.set b (!i + j) (Char.chr (Int64.to_int (Int64.logand !v 0xFFL)));
      v := Int64.shift_right_logical !v 8
    done;
    i := !i + k
  done;
  Bytes.unsafe_to_string b

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential g ~mean =
  let u = float g 1.0 in
  (* 1 - u is in (0, 1], so log is finite. *)
  -.mean *. log (1.0 -. u)
