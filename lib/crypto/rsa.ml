type public_key = { n : Bignum.t; e : Bignum.t }

type private_key = {
  pn : Bignum.t;
  d : Bignum.t;
  pub : public_key;
  (* CRT components: signing works mod p and mod q separately (4x fewer
     limb operations) and recombines with Garner's formula. *)
  crt_p : Bignum.t;
  crt_q : Bignum.t;
  crt_dp : Bignum.t; (* d mod (p-1) *)
  crt_dq : Bignum.t; (* d mod (q-1) *)
  crt_qinv : Bignum.t; (* q^-1 mod p *)
  ctx_p : Bignum.mod_ctx; (* reduction constants, built once per key *)
  ctx_q : Bignum.mod_ctx;
}

(* manetcheck: allow toplevel-state — F4 public-exponent constant; bignum
   limb arrays are never written after construction, so cross-domain
   sharing is read-only. *)
let default_e = Bignum.of_int 65537

let generate g ~bits =
  if bits < 32 then invalid_arg "Rsa.generate: modulus too small";
  let half = bits / 2 in
  let rec attempt () =
    let p = Bignum.generate_prime g ~bits:half in
    let q = Bignum.generate_prime g ~bits:(bits - half) in
    if Bignum.equal p q then attempt ()
    else begin
      let n = Bignum.mul p q in
      let phi = Bignum.mul (Bignum.sub p Bignum.one) (Bignum.sub q Bignum.one) in
      match (Bignum.mod_inverse default_e phi, Bignum.mod_inverse q p) with
      | Some d, Some qinv ->
          let pub = { n; e = default_e } in
          ( pub,
            {
              pn = n;
              d;
              pub;
              crt_p = p;
              crt_q = q;
              crt_dp = Bignum.mod_ d (Bignum.sub p Bignum.one);
              crt_dq = Bignum.mod_ d (Bignum.sub q Bignum.one);
              crt_qinv = qinv;
              ctx_p = Bignum.mod_ctx p;
              ctx_q = Bignum.mod_ctx q;
            } )
      | _ -> attempt ()
    end
  in
  attempt ()

(* m^d mod n via the CRT: s_p = m^dp mod p, s_q = m^dq mod q,
   s = s_q + q * (qinv * (s_p - s_q) mod p). *)
let private_exp sk m =
  let sp = Bignum.mod_pow_ctx sk.ctx_p m sk.crt_dp in
  let sq = Bignum.mod_pow_ctx sk.ctx_q m sk.crt_dq in
  let h = Bignum.mod_ (Bignum.mul sk.crt_qinv (Bignum.sub sp sq)) sk.crt_p in
  Bignum.add sq (Bignum.mul sk.crt_q h)

let modulus_bytes pk = (Bignum.numbits pk.n + 7) / 8

let with_u16_prefix s =
  let len = String.length s in
  let b = Bytes.create 2 in
  Bytes.set b 0 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set b 1 (Char.chr (len land 0xFF));
  Bytes.unsafe_to_string b ^ s

let public_key_to_bytes pk =
  with_u16_prefix (Bignum.to_bytes_be pk.n) ^ with_u16_prefix (Bignum.to_bytes_be pk.e)

let public_key_of_bytes s =
  let read_u16 pos =
    if pos + 2 > String.length s then None
    else Some ((Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1])
  in
  match read_u16 0 with
  | None -> None
  | Some n_len -> (
      if 2 + n_len > String.length s then None
      else begin
        let n = Bignum.of_bytes_be (String.sub s 2 n_len) in
        match read_u16 (2 + n_len) with
        | None -> None
        | Some e_len ->
            if 4 + n_len + e_len <> String.length s then None
            else begin
              let e = Bignum.of_bytes_be (String.sub s (4 + n_len) e_len) in
              if Bignum.sign n <= 0 || Bignum.sign e <= 0 then None
              else Some { n; e }
            end
      end)

let digest_as_int pk msg =
  Bignum.mod_ (Bignum.of_bytes_be (Sha256.digest msg)) pk.n

let sign sk msg =
  let m = digest_as_int sk.pub msg in
  let s = private_exp sk m in
  Bignum.to_bytes_be ~pad:(modulus_bytes sk.pub) s

let sign_no_crt sk msg =
  let m = digest_as_int sk.pub msg in
  let s = Bignum.mod_pow m sk.d sk.pn in
  Bignum.to_bytes_be ~pad:(modulus_bytes sk.pub) s

type prepared = {
  key : public_key;
  size : int; (* modulus_bytes key *)
  ctx : Bignum.mod_ctx option; (* None when n <= 0: no signature is < n *)
}

let prepare pk =
  {
    key = pk;
    size = modulus_bytes pk;
    ctx = (if Bignum.sign pk.n > 0 then Some (Bignum.mod_ctx pk.n) else None);
  }

let verify_prepared p ~msg ~signature =
  if String.length signature <> p.size then false
  else begin
    let s = Bignum.of_bytes_be signature in
    match p.ctx with
    | Some ctx when Bignum.compare s p.key.n < 0 ->
        let recovered = Bignum.mod_pow_ctx ctx s p.key.e in
        Bignum.equal recovered (digest_as_int p.key msg)
    | _ -> false
  end

let verify pk = verify_prepared (prepare pk)
