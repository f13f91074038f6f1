type keypair = { pk_bytes : string; sign : string -> string }

type op = Sign | Verify | Hash

type t = {
  scheme_name : string;
  generate : unit -> keypair;
  verify : pk_bytes:string -> msg:string -> signature:string -> bool;
  signature_size : int;
  public_key_size : int;
  mutable sign_count : int;
  mutable verify_count : int;
  mutable sha256_blocks : int;
  mutable signs_reused : int;
  mutable on_op : (op:op -> bytes:int -> unit) option;
}

(* One accounting point for every operation the suite performs: bump
   the op counter, charge the hash blocks the input costs, and notify
   the subscriber (the perf registry) so it can attribute the op to the
   message kind and node currently being dispatched. *)
let record t op ~bytes =
  (match op with
  | Sign -> t.sign_count <- t.sign_count + 1
  | Verify -> t.verify_count <- t.verify_count + 1
  | Hash -> ());
  t.sha256_blocks <- t.sha256_blocks + Sha256.blocks_of_len bytes;
  match t.on_op with None -> () | Some f -> f ~op ~bytes

let count_hash t ~bytes = record t Hash ~bytes

let reuse_sign t ~bytes =
  record t Sign ~bytes;
  t.signs_reused <- t.signs_reused + 1

module Stbl = Hashtbl.Make (String)

(* Bound on the per-suite verify-context cache; reset when full, so keys
   an adversary makes up cannot grow it without limit. *)
let max_prepared_keys = 256

(* The verify context of [pk_bytes] in [prepared]: the parsed key with
   its Montgomery context, or None for bytes that do not parse. *)
let prepare prepared pk_bytes =
  (* manetcheck: allow hot-string-key — the cache is keyed by the
     signer's public key bytes, which arrive in each message: the
     content is the key, so there is no name to bind once, and one hash
     of 70 bytes saves a key parse and a Montgomery set-up. *)
  match Stbl.find_opt prepared pk_bytes with
  | Some p -> p
  | None ->
      (* manetcheck: cold — a key's first verify since the cache was
         last emptied. *)
      let p = Option.map Rsa.prepare (Rsa.public_key_of_bytes pk_bytes) in
      if Stbl.length prepared >= max_prepared_keys then Stbl.reset prepared;
      Stbl.add prepared pk_bytes p;
      p

let rsa ?(bits = 512) prng =
  let prepared = Stbl.create 64 in
  let rec suite =
    {
      scheme_name = Printf.sprintf "rsa-%d" bits;
      generate =
        (fun () ->
          let pub, priv = Rsa.generate prng ~bits in
          {
            pk_bytes = Rsa.public_key_to_bytes pub;
            sign =
              (fun msg ->
                record suite Sign ~bytes:(String.length msg);
                Rsa.sign priv msg);
          });
      verify =
        (fun ~pk_bytes ~msg ~signature ->
          record suite Verify ~bytes:(String.length msg);
          match prepare prepared pk_bytes with
          | None -> false
          | Some p -> Rsa.verify_prepared p ~msg ~signature);
      (* n is [bits] bits and e = 65537: 3 bytes, plus two 2-byte length
         prefixes. *)
      signature_size = (bits + 7) / 8;
      public_key_size = ((bits + 7) / 8) + 3 + 4;
      sign_count = 0;
      verify_count = 0;
      sha256_blocks = 0;
      signs_reused = 0;
      on_op = None;
    }
  in
  suite

let mock prng =
  let registry = Mock_sig.create_registry () in
  let rec suite =
    {
      scheme_name = "mock-hmac";
      generate =
        (fun () ->
          let pk_bytes, sk = Mock_sig.generate registry prng in
          {
            pk_bytes;
            sign =
              (fun msg ->
                record suite Sign ~bytes:(String.length msg);
                Mock_sig.sign sk msg);
          });
      verify =
        (fun ~pk_bytes ~msg ~signature ->
          record suite Verify ~bytes:(String.length msg);
          Mock_sig.verify registry ~pk_bytes ~msg ~signature);
      signature_size = Mock_sig.signature_size;
      public_key_size = Mock_sig.public_key_size;
      sign_count = 0;
      verify_count = 0;
      sha256_blocks = 0;
      signs_reused = 0;
      on_op = None;
    }
  in
  suite

let set_on_op t f = t.on_op <- f

