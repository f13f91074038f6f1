let block_size = 64

(* HMAC = H((key xor opad) || H((key xor ipad) || msg)), fed to the
   streaming SHA-256 contexts so neither padded-key block is ever
   concatenated with the message: the only per-call allocation besides
   the two digest contexts is one 64-byte working buffer, reused for
   both pads (ipad byte xor opad byte = 0x36 lxor 0x5c = 0x6a). *)
let hmac_sha256 ~key msg =
  let key = if String.length key > block_size then Sha256.digest key else key in
  (* manetcheck: allow hot-alloc — the one 64-byte pad buffer per HMAC;
     sharing it across calls would be cross-domain mutable state. *)
  let b = Bytes.make block_size '\x36' in
  for i = 0 to String.length key - 1 do
    Bytes.set b i (Char.chr (Char.code (String.unsafe_get key i) lxor 0x36))
  done;
  let inner = Sha256.init () in
  Sha256.update inner (Bytes.unsafe_to_string b);
  Sha256.update inner msg;
  let inner_digest = Sha256.finalize inner in
  for i = 0 to block_size - 1 do
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x6a))
  done;
  let outer = Sha256.init () in
  Sha256.update outer (Bytes.unsafe_to_string b);
  Sha256.update outer inner_digest;
  Sha256.finalize outer

(* Constant-time comparison: fold the xor of every byte pair into an
   accumulator carried as a plain int argument. *)
let rec ct_diff a b i acc =
  if i < 0 then acc
  else
    ct_diff a b (i - 1)
      (acc
      lor (Char.code (String.unsafe_get a i)
          lxor Char.code (String.unsafe_get b i)))

let verify ~key msg ~tag =
  let expected = hmac_sha256 ~key msg in
  String.length expected = String.length tag
  && ct_diff expected tag (String.length expected - 1) 0 = 0
