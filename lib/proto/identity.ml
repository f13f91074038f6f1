module Address = Manet_ipv6.Address
module Cga = Manet_ipv6.Cga
module Suite = Manet_crypto.Suite
module Prng = Manet_crypto.Prng
(* manetcheck: allow-file hot-string-key — [Memo] is the signature
   memo, keyed by the signed payload itself: the content is the key, so
   there is no name to bind once, and one hash of the payload is far
   cheaper than the signature a hit saves. *)
module Memo = Hashtbl.Make (String)

type t = {
  node_id : int;
  suite : Suite.t;
  keypair : Suite.keypair;
  mutable rn : int64;
  mutable address : Address.t;
  mutable domain_name : string option;
  memo : string Memo.t;
}

(* Bound on the signature memo; reset when full. *)
let max_memo = 64

let create ?address ?name suite g ~node_id =
  let keypair = suite.Suite.generate () in
  let rn, cga = Cga.fresh g ~pk_bytes:keypair.Suite.pk_bytes in
  let address = match address with Some a -> a | None -> cga in
  { node_id; suite; keypair; rn; address; domain_name = name; memo = Memo.create 16 }

let refresh_address t g =
  let rn, addr = Cga.fresh g ~pk_bytes:t.keypair.Suite.pk_bytes in
  t.rn <- rn;
  t.address <- addr

(* An entry never goes stale (see the interface), so the memo is only
   ever emptied to bound it. *)
let sign t msg =
  match Memo.find_opt t.memo msg with
  | Some signature ->
      Suite.reuse_sign t.suite ~bytes:(String.length msg);
      signature
  | None ->
      let signature = t.keypair.Suite.sign msg in
      if Memo.length t.memo >= max_memo then Memo.reset t.memo;
      Memo.add t.memo msg signature;
      signature

let pk_bytes t = t.keypair.Suite.pk_bytes

