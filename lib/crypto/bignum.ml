(* Sign-magnitude bignums over 26-bit limbs stored little-endian in int
   arrays.  26 bits keeps every intermediate product (2^52) and the
   double-limb dividends of Knuth division well inside OCaml's 63-bit
   native integers.

   manetcheck: allow-file hot-alloc hot-poly — values are immutable, so
   each arithmetic result gets a fresh limb array by design.  The
   Montgomery kernel on the sign and verify paths allocates no limb
   array per multiply or square, only per exponentiation (its odd-power
   table, two scratch buffers and the result); the perf registry
   accounts an exponentiation as a single crypto op, so that is not a
   per-event cost. *)

let base_bits = 26
let base = 1 lsl base_bits
let limb_mask = base - 1

type t = { sign : int; mag : int array }
(* Invariants: sign is -1, 0 or 1; mag has no trailing (high-order) zero
   limb; sign = 0 iff mag is empty. *)

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do decr n done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int i =
  if i = 0 then zero
  else begin
    let sign = if i < 0 then -1 else 1 in
    let v = ref (abs i) in
    let limbs = ref [] in
    while !v > 0 do
      limbs := (!v land limb_mask) :: !limbs;
      v := !v lsr base_bits
    done;
    { sign; mag = Array.of_list (List.rev !limbs) }
  end

(* manetcheck: allow toplevel-state — interned constants: a bignum's limb
   array is never written after construction (every operation allocates
   a fresh magnitude), so sharing [one]/[two] across domains is
   read-only sharing. *)
let one = of_int 1

(* manetcheck: allow toplevel-state — same read-only bignum-constant
   argument as [one] above. *)
let two = of_int 2

let sign n = n.sign
let numbits_of_limb l =
  let rec go l acc = if l = 0 then acc else go (l lsr 1) (acc + 1) in
  go l 0

let numbits n =
  let len = Array.length n.mag in
  if len = 0 then 0
  else ((len - 1) * base_bits) + numbits_of_limb n.mag.(len - 1)

let to_int_opt n =
  if numbits n <= 62 then begin
    let v = ref 0 in
    for i = Array.length n.mag - 1 downto 0 do
      v := (!v lsl base_bits) lor n.mag.(i)
    done;
    Some (n.sign * !v)
  end
  else None

(* --- magnitude primitives ------------------------------------------- *)

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  r.(n) <- !carry;
  r

(* requires |a| >= |b| *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

let mul_mag_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- v land limb_mask;
        carry := v lsr base_bits
      done;
      (* Propagate the final carry; it can exceed one limb only when the
         accumulated column overflows, which a single limb absorbs here
         because ai*bj + r + carry < 2^52 + 2^27. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = r.(!k) + !carry in
        r.(!k) <- v land limb_mask;
        carry := v lsr base_bits;
        incr k
      done
    done;
    r
  end

let karatsuba_threshold = 32

let rec mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if min la lb < karatsuba_threshold then mul_mag_school a b
  else begin
    (* Karatsuba: split at half of the shorter operand's partner. *)
    let m = max la lb / 2 in
    let lo x = Array.sub x 0 (min m (Array.length x)) in
    let hi x =
      if Array.length x <= m then [||] else Array.sub x m (Array.length x - m)
    in
    let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
    let z0 = mul_mag a0 b0 in
    let z2 = mul_mag a1 b1 in
    let s_a = add_mag a0 a1 and s_b = add_mag b0 b1 in
    let z1 = mul_mag s_a s_b in
    (* z1 := z1 - z0 - z2 *)
    let z1 = sub_mag z1 z0 in
    let z1 = sub_mag z1 z2 in
    let r = Array.make (la + lb + 1) 0 in
    let accumulate dst off src =
      (* [src] may carry zero high limbs past the end of [dst] (z1 of
         unbalanced operands); only its significant limbs are added. *)
      let len = ref (Array.length src) in
      while !len > 0 && src.(!len - 1) = 0 do decr len done;
      let carry = ref 0 in
      for i = 0 to !len - 1 do
        let s = dst.(off + i) + src.(i) + !carry in
        dst.(off + i) <- s land limb_mask;
        carry := s lsr base_bits
      done;
      let k = ref (off + !len) in
      while !carry <> 0 do
        let s = dst.(!k) + !carry in
        dst.(!k) <- s land limb_mask;
        carry := s lsr base_bits;
        incr k
      done
    in
    accumulate r 0 z0;
    accumulate r m z1;
    accumulate r (2 * m) z2;
    r
  end

let shift_left_mag a s =
  (* s arbitrary non-negative bit count *)
  if Array.length a = 0 then [||]
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    if bit_shift = 0 then Array.blit a 0 r limb_shift la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bit_shift) lor !carry in
        r.(i + limb_shift) <- v land limb_mask;
        carry := v lsr base_bits
      done;
      r.(la + limb_shift) <- !carry
    end;
    r
  end

let shift_right_mag a s =
  let limb_shift = s / base_bits and bit_shift = s mod base_bits in
  let la = Array.length a in
  if limb_shift >= la then [||]
  else begin
    let n = la - limb_shift in
    let r = Array.make n 0 in
    if bit_shift = 0 then Array.blit a limb_shift r 0 n
    else
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if i + limb_shift + 1 < la then
            (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land limb_mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
    r
  end

(* Knuth TAOCP vol 2, algorithm D, with the exposition of Hacker's
   Delight's divmnu.  Requires |u| >= |v| and |v| >= 2 limbs.  Returns
   (quotient, remainder) magnitudes. *)
let divmod_mag_knuth u v =
  let n = Array.length v in
  let m = Array.length u in
  (* Normalize so the divisor's top limb has its high bit set. *)
  let s = base_bits - numbits_of_limb v.(n - 1) in
  let vn = shift_right_mag (shift_left_mag v s) 0 in
  let vn = if Array.length vn > n then Array.sub vn 0 n else vn in
  let un = shift_left_mag u s in
  let un =
    (* ensure un has exactly m+1 limbs *)
    if Array.length un >= m + 1 then Array.sub un 0 (m + 1)
    else begin
      let r = Array.make (m + 1) 0 in
      Array.blit un 0 r 0 (Array.length un);
      r
    end
  in
  let q = Array.make (m - n + 1) 0 in
  for j = m - n downto 0 do
    let num = (un.(j + n) * base) + un.(j + n - 1) in
    let qhat = ref (num / vn.(n - 1)) in
    let rhat = ref (num mod vn.(n - 1)) in
    let adjust = ref true in
    while !adjust do
      if !qhat >= base || !qhat * vn.(n - 2) > (!rhat * base) + un.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then adjust := false
      end
      else adjust := false
    done;
    (* Multiply and subtract. *)
    let k = ref 0 in
    let t = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * vn.(i) in
      t := un.(i + j) - !k - (p land limb_mask);
      un.(i + j) <- !t land limb_mask;
      k := (p lsr base_bits) - (!t asr base_bits)
    done;
    t := un.(j + n) - !k;
    un.(j + n) <- !t land limb_mask;
    q.(j) <- !qhat;
    if !t < 0 then begin
      (* qhat was one too large: add the divisor back. *)
      q.(j) <- q.(j) - 1;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let w = un.(i + j) + vn.(i) + !carry in
        un.(i + j) <- w land limb_mask;
        carry := w lsr base_bits
      done;
      un.(j + n) <- (un.(j + n) + !carry) land limb_mask
    end
  done;
  let r = shift_right_mag (Array.sub un 0 n) s in
  (q, r)

let divmod_mag_single u v0 =
  let lu = Array.length u in
  let q = Array.make lu 0 in
  let r = ref 0 in
  for i = lu - 1 downto 0 do
    let cur = (!r * base) + u.(i) in
    q.(i) <- cur / v0;
    r := cur mod v0
  done;
  (q, [| !r |])

let divmod_mag u v =
  if Array.length v = 0 then raise Division_by_zero
  else if compare_mag u v < 0 then ([||], u)
  else if Array.length v = 1 then divmod_mag_single u v.(0)
  else divmod_mag_knuth u v

(* --- signed operations ----------------------------------------------- *)

let neg n = if n.sign = 0 then n else { n with sign = -n.sign }
let abs n = if n.sign < 0 then neg n else n

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0

let rec add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    match compare_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)
  end

and sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q_mag, r_mag = divmod_mag a.mag b.mag in
  let q = normalize (a.sign * b.sign) q_mag in
  let r = normalize a.sign r_mag in
  (q, r)

let rem a b = snd (divmod a b)

let mod_ a m =
  if m.sign <= 0 then invalid_arg "Bignum.mod_: modulus must be positive";
  let r = rem a m in
  if r.sign < 0 then add r m else r

let shift_left n s =
  if s < 0 then invalid_arg "Bignum.shift_left";
  if n.sign = 0 then zero else normalize n.sign (shift_left_mag n.mag s)

let shift_right n s =
  if s < 0 then invalid_arg "Bignum.shift_right";
  if n.sign = 0 then zero else normalize n.sign (shift_right_mag n.mag s)

let testbit n i =
  let limb = i / base_bits and bit = i mod base_bits in
  limb < Array.length n.mag && (n.mag.(limb) lsr bit) land 1 = 1

(* --- conversions ------------------------------------------------------ *)

(* Packs the bytes straight into limbs, least significant byte first;
   leading zero bytes are skipped so the magnitude has no zero top limb. *)
let of_bytes_be s =
  let len = String.length s in
  let first = ref 0 in
  while !first < len && s.[!first] = '\000' do incr first done;
  if !first = len then zero
  else begin
    let bits =
      ((len - !first - 1) * 8) + numbits_of_limb (Char.code s.[!first])
    in
    let mag = Array.make ((bits + base_bits - 1) / base_bits) 0 in
    let acc = ref 0 and acc_bits = ref 0 and limb = ref 0 in
    for i = len - 1 downto !first do
      acc := !acc lor (Char.code (String.unsafe_get s i) lsl !acc_bits);
      acc_bits := !acc_bits + 8;
      if !acc_bits >= base_bits then begin
        mag.(!limb) <- !acc land limb_mask;
        incr limb;
        acc := !acc lsr base_bits;
        acc_bits := !acc_bits - base_bits
      end
    done;
    if !acc_bits > 0 && !limb < Array.length mag then mag.(!limb) <- !acc;
    { sign = 1; mag }
  end

let to_bytes_be ?(pad = 0) n =
  let nb = numbits n in
  let len = max pad ((nb + 7) / 8) in
  let len = max len 1 in
  let b = Bytes.make len '\000' in
  for i = 0 to len - 1 do
    let bit = (len - 1 - i) * 8 in
    let byte = ref 0 in
    for j = 7 downto 0 do
      byte := (!byte lsl 1) lor (if testbit n (bit + j) then 1 else 0)
    done;
    Bytes.set b i (Char.chr !byte)
  done;
  Bytes.unsafe_to_string b

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bignum.of_string: empty";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start = len then invalid_arg "Bignum.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bignum.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if negative then neg !acc else !acc

let to_string n =
  if n.sign = 0 then "0"
  else begin
    (* Peel 7 decimal digits at a time with single-limb division. *)
    let chunk = 10_000_000 in
    let buf = Buffer.create 32 in
    let mag = ref (abs n) in
    let parts = ref [] in
    while !mag.sign <> 0 do
      let q, r = divmod_mag !mag.mag [| chunk |] in
      let r0 = if Array.length r = 0 then 0 else r.(0) in
      parts := r0 :: !parts;
      mag := normalize 1 q
    done;
    (match !parts with
    | [] -> ()
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "%07d" p)) rest);
    (if n.sign < 0 then "-" else "") ^ Buffer.contents buf
  end

let of_hex s =
  let acc = ref zero in
  String.iter
    (fun c ->
      let v =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> invalid_arg "Bignum.of_hex: bad digit"
      in
      acc := add (shift_left !acc 4) (of_int v))
    s;
  !acc

let to_hex n =
  if n.sign = 0 then "0"
  else begin
    let nb = numbits n in
    let digits = (nb + 3) / 4 in
    let buf = Buffer.create digits in
    for i = digits - 1 downto 0 do
      let v = ref 0 in
      for j = 3 downto 0 do
        v := (!v lsl 1) lor (if testbit n ((i * 4) + j) then 1 else 0)
      done;
      Buffer.add_char buf "0123456789abcdef".[!v]
    done;
    Buffer.contents buf
  end

let pp fmt n = Format.pp_print_string fmt (to_string n)

(* --- number theory ---------------------------------------------------- *)

let rec gcd a b =
  let a = abs a and b = abs b in
  if b.sign = 0 then a else gcd b (rem a b)

let egcd a b =
  (* Iterative extended Euclid on non-negative inputs. *)
  if a.sign < 0 || b.sign < 0 then invalid_arg "Bignum.egcd: negative input";
  let r0 = ref a and r1 = ref b in
  let x0 = ref one and x1 = ref zero in
  let y0 = ref zero and y1 = ref one in
  while !r1.sign <> 0 do
    let q, r = divmod !r0 !r1 in
    r0 := !r1;
    r1 := r;
    let nx = sub !x0 (mul q !x1) in
    x0 := !x1;
    x1 := nx;
    let ny = sub !y0 (mul q !y1) in
    y0 := !y1;
    y1 := ny
  done;
  (!r0, !x0, !y0)

let mod_inverse a m =
  if m.sign <= 0 then invalid_arg "Bignum.mod_inverse: modulus must be positive";
  let g, x, _ = egcd (mod_ a m) m in
  if equal g one then Some (mod_ x m) else None

let mod_pow_generic b e m =
  if equal m one then zero
  else begin
    let result = ref one in
    let acc = ref (mod_ b m) in
    let bits = numbits e in
    for i = 0 to bits - 1 do
      if testbit e i then result := mod_ (mul !result !acc) m;
      if i < bits - 1 then acc := mod_ (mul !acc !acc) m
    done;
    !result
  end

(* Montgomery exponentiation for odd moduli of 2 to [Mont.max_limbs]
   limbs — the RSA case.  Operands are little-endian limb arrays of the
   modulus's width, written into caller-owned buffers: an exponentiation
   allocates its odd-power table and two scratch buffers, and no
   Montgomery operation allocates anything. *)
module Mont = struct
  type ctx = {
    n_limbs : int array;
    k : int;
    n0' : int; (* -n[0]^-1 mod base *)
    r2 : int array; (* R^2 mod n, R = base^k *)
    modulus : t;
  }

  (* Product scanning sums one column of at most 2k limb products
     (< 2^52 each) plus the previous column's carry in a single native
     int, which stays below 2^62 up to 512 limbs; 500 leaves margin.
     Wider moduli take the division path. *)
  let max_limbs = 500

  let inv_limb n0 =
    (* Hensel lifting: x <- x * (2 - n0 * x) doubles correct low bits. *)
    let x = ref 1 in
    for _ = 1 to 5 do
      x := !x * (2 - (n0 * !x)) land limb_mask
    done;
    !x land limb_mask

  (* [dst] := the k low limbs of [v]'s magnitude, zero-extended. *)
  let load k v dst =
    let len = Array.length v.mag in
    Array.blit v.mag 0 dst 0 len;
    Array.fill dst len (k - len) 0

  let create m =
    let k = Array.length m.mag in
    let n_limbs = Array.make k 0 and r2 = Array.make k 0 in
    load k m n_limbs;
    load k (mod_ (shift_left one (2 * k * base_bits)) m) r2;
    { n_limbs; k; n0' = base - inv_limb n_limbs.(0); r2; modulus = m }

  (* Whether the limbs of a from i down are >= those of b. *)
  let rec geq_from a b i =
    if i < 0 then true
    else
      let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
      if x <> y then x > y else geq_from a b (i - 1)

  (* The Montgomery reduction's final step: [out] holds all but the top
     column of t / R, and [carry] is that column, t / R being below 2n;
     subtract n at most once. *)
  let finish ctx out carry =
    let k = ctx.k and n = ctx.n_limbs in
    Array.unsafe_set out (k - 1) (carry land limb_mask);
    let top = carry lsr base_bits in
    if top <> 0 || geq_from out n (k - 1) then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let d = Array.unsafe_get out i - Array.unsafe_get n i - !borrow in
        Array.unsafe_set out i (d land limb_mask);
        borrow := -(d asr base_bits)
      done
    end

  (* out := a * b * R^-1 mod n, by product scanning (the FIPS ordering of
     Koc, Acar and Kaliski): column i of the product a*b and of the
     reduction multiple q*n is summed in one accumulator, q_i is fixed
     when its column is complete, and each column costs one mask and one
     shift.  The low half of [out] holds q's digits until the high-half
     columns overwrite them, each after its last use.  a, b < n; [out]
     must not alias either. *)
  let mont_mul ctx a b out =
    let k = ctx.k and n = ctx.n_limbs and n0' = ctx.n0' in
    let carry = ref 0 in
    for i = 0 to k - 1 do
      let t = ref !carry in
      for j = 0 to i - 1 do
        t :=
          !t
          + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
          + (Array.unsafe_get out j * Array.unsafe_get n (i - j))
      done;
      t := !t + (Array.unsafe_get a i * Array.unsafe_get b 0);
      let q = (!t land limb_mask) * n0' land limb_mask in
      Array.unsafe_set out i q;
      carry := (!t + (q * Array.unsafe_get n 0)) lsr base_bits
    done;
    for i = k to (2 * k) - 2 do
      let t = ref !carry in
      for j = i - k + 1 to k - 1 do
        t :=
          !t
          + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
          + (Array.unsafe_get out j * Array.unsafe_get n (i - j))
      done;
      Array.unsafe_set out (i - k) (!t land limb_mask);
      carry := !t lsr base_bits
    done;
    finish ctx out !carry

  let window = 4

  let bit e i =
    (Array.unsafe_get e.mag (i / base_bits) lsr (i mod base_bits)) land 1 = 1

  (* For a set bit i of e, the low end l of the window starting there: the
     lowest set bit within [window] bits. *)
  let window_low e i =
    let l = ref (max 0 (i - window + 1)) in
    while not (bit e !l) do incr l done;
    !l

  let window_value e i l =
    let v = ref 0 in
    for j = i downto l do
      v := (!v lsl 1) lor (if bit e j then 1 else 0)
    done;
    !v

  (* The largest window value a left-to-right scan of e meets, which
     sizes the odd-power table: a short exponent such as 65537 needs g
     alone. *)
  let max_window e =
    let i = ref (numbits e - 1) and best = ref 1 in
    while !i >= 0 do
      if bit e !i then begin
        let l = window_low e !i in
        best := max !best (window_value e !i l);
        i := l - 1
      end
      else decr i
    done;
    !best

  (* b^e mod n, e > 0, by a left-to-right sliding window over the odd
     powers g, g^3, ..., in Montgomery form.  The running value lives in
     [!x]; each operation writes [!spare] and the two swap. *)
  let mod_pow ctx b e =
    let k = ctx.k in
    let b =
      if b.sign >= 0 && compare_mag b.mag ctx.modulus.mag < 0 then b
      else mod_ b ctx.modulus
    in
    let x = ref (Array.make k 0) and spare = ref (Array.make k 0) in
    let table = Array.make ((max_window e + 1) / 2) [||] in
    for t = 0 to Array.length table - 1 do
      table.(t) <- Array.make k 0
    done;
    load k b !x;
    mont_mul ctx !x ctx.r2 table.(0);
    if Array.length table > 1 then begin
      mont_mul ctx table.(0) table.(0) !spare;
      for t = 1 to Array.length table - 1 do
        mont_mul ctx table.(t - 1) !spare table.(t)
      done
    end;
    let i = ref (numbits e - 1) in
    let l = window_low e !i in
    Array.blit table.(window_value e !i l / 2) 0 !x 0 k;
    i := l - 1;
    while !i >= 0 do
      let l = if bit e !i then window_low e !i else !i in
      for _ = l to !i do
        mont_mul ctx !x !x !spare;
        let y = !x in
        x := !spare;
        spare := y
      done;
      if bit e !i then begin
        mont_mul ctx !x table.(window_value e !i l / 2) !spare;
        let y = !x in
        x := !spare;
        spare := y
      end;
      i := l - 1
    done;
    (* Leave Montgomery form: multiply by plain 1. *)
    let one_limbs = table.(0) in
    Array.fill one_limbs 0 k 0;
    one_limbs.(0) <- 1;
    mont_mul ctx !x one_limbs !spare;
    normalize 1 !spare
end

type mod_ctx = Montgomery of Mont.ctx | Division of t

let mod_ctx m =
  if m.sign <= 0 then invalid_arg "Bignum.mod_ctx: modulus must be positive";
  let k = Array.length m.mag in
  if testbit m 0 && k >= 2 && k <= Mont.max_limbs then Montgomery (Mont.create m)
  else Division m

let mod_pow_ctx c b e =
  if e.sign < 0 then invalid_arg "Bignum.mod_pow: negative exponent";
  match c with
  | Montgomery ctx -> if e.sign = 0 then one else Mont.mod_pow ctx b e
  | Division m -> mod_pow_generic b e m

let mod_pow b e m =
  if m.sign <= 0 then invalid_arg "Bignum.mod_pow: modulus must be positive";
  mod_pow_ctx (mod_ctx m) b e

let random g ~bits =
  if bits <= 0 then invalid_arg "Bignum.random: bits <= 0";
  let nbytes = (bits + 7) / 8 in
  let s = Prng.bytes g nbytes in
  let excess = (nbytes * 8) - bits in
  let b = Bytes.of_string s in
  if excess > 0 then
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xFF lsr excess)));
  of_bytes_be (Bytes.unsafe_to_string b)

let random_below g n =
  if n.sign <= 0 then invalid_arg "Bignum.random_below: bound <= 0";
  let bits = numbits n in
  let rec loop () =
    let candidate = random g ~bits in
    if compare candidate n < 0 then candidate else loop ()
  in
  loop ()

(* manetcheck: allow toplevel-state — the sieve array is
   local to this initialiser and the resulting prime table is only ever
   indexed, never written, after module init: read-only across
   domains. *)
let small_primes =
  (* Primes below 1000, enough trial division to reject most candidates
     before a Miller-Rabin round. *)
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let out = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then out := i :: !out
  done;
  Array.of_list !out

(* |n| mod d for 0 < d <= 2^36, by Horner's rule over the limbs: the
   running value stays below d * base <= 2^62, and nothing allocates. *)
let rem_int n d =
  let r = ref 0 in
  for i = Array.length n.mag - 1 downto 0 do
    r := ((!r lsl base_bits) lor Array.unsafe_get n.mag i) mod d
  done;
  !r

let is_probable_prime ?(rounds = 24) g n =
  let n = abs n in
  match to_int_opt n with
  | Some v when v < 2 -> false
  | Some v when v <= small_primes.(Array.length small_primes - 1) ->
      Array.exists (fun p -> p = v) small_primes
  | _ ->
      if Array.exists (fun p -> rem_int n p = 0) small_primes then false
      else begin
        (* n - 1 = d * 2^s with d odd *)
        let n1 = sub n one in
        let s = ref 0 in
        let d = ref n1 in
        while not (testbit !d 0) do
          d := shift_right !d 1;
          incr s
        done;
        let ctx = mod_ctx n in
        let witness a =
          let x = ref (mod_pow_ctx ctx a !d) in
          if equal !x one || equal !x n1 then false
          else begin
            let composite = ref true in
            (try
               for _ = 1 to !s - 1 do
                 x := mod_ (mul !x !x) n;
                 if equal !x n1 then begin
                   composite := false;
                   raise Exit
                 end
               done
             with Exit -> ());
            !composite
          end
        in
        let rec rounds_loop k =
          if k = 0 then true
          else begin
            let a = add two (random_below g (sub n (of_int 4))) in
            if witness a then false else rounds_loop (k - 1)
          end
        in
        rounds_loop rounds
      end

let generate_prime g ~bits =
  if bits < 2 then invalid_arg "Bignum.generate_prime: bits < 2";
  let rec attempt () =
    let candidate = random g ~bits in
    (* Force the top bit (exact width) and the low bit (odd). *)
    let candidate = add candidate (shift_left one (bits - 1)) in
    let candidate =
      if testbit candidate bits then
        (* Carry overflowed the width: retry. *)
        zero
      else if testbit candidate 0 then candidate
      else add candidate one
    in
    if candidate.sign = 0 || numbits candidate <> bits then attempt ()
    else begin
      (* March odd numbers forward until prime, staying within the width. *)
      let rec march c tries =
        if tries > 4096 || numbits c <> bits then attempt ()
        else if is_probable_prime g c then c
        else march (add c two) (tries + 1)
      in
      march candidate 0
    end
  in
  attempt ()
