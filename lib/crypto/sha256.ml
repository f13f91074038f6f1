(* FIPS 180-4 SHA-256 over 32-bit words carried in native ints (OCaml
   ints are 63-bit, so sums of a few 32-bit values never overflow; every
   stored word is masked back to 32 bits). *)

let mask32 = 0xFFFFFFFF

(* manetcheck: allow toplevel-state — FIPS round constants: the array is
   created once and never written, only indexed, so it is read-only
   across domains after module init. *)
let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  (* manetcheck: allow hot-alloc — one context per digest: this is the
     streaming API's state, reused across every block of the message;
     sharing it across digests would be cross-domain mutable state. *)
  {
    h =
      (* manetcheck: allow hot-alloc — initial chaining values of the same
         per-digest context. *)
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    (* manetcheck: allow hot-alloc — block buffer and message schedule of
       the same per-digest context, allocated once and reused for every
       block. *)
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    (* manetcheck: allow hot-alloc — message schedule scratch of the same
       per-digest context. *)
    w = Array.make 64 0;
  }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* The 64-round compression loop as a tail recursion over the eight
   working variables (plain int arguments, so no ref cells and no
   boxing); the final feed-forward adds them into the chaining array in
   the base case, so nothing is returned or boxed. *)
let rec rounds h w t a b c d e f g hh =
  if t = 64 then begin
    h.(0) <- (h.(0) + a) land mask32;
    h.(1) <- (h.(1) + b) land mask32;
    h.(2) <- (h.(2) + c) land mask32;
    h.(3) <- (h.(3) + d) land mask32;
    h.(4) <- (h.(4) + e) land mask32;
    h.(5) <- (h.(5) + f) land mask32;
    h.(6) <- (h.(6) + g) land mask32;
    h.(7) <- (h.(7) + hh) land mask32
  end
  else begin
    let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
    let ch = (e land f) lxor (lnot e land g) in
    let t1 = (hh + s1 + ch + k.(t) + w.(t)) land mask32 in
    let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
    let maj = (a land b) lxor (a land c) lxor (b land c) in
    let t2 = (s0 + maj) land mask32 in
    rounds h w (t + 1) ((t1 + t2) land mask32) a b c ((d + t1) land mask32) e
      f g
  end

(* Compress one 64-byte block read directly out of [block] at [off] —
   a string, so whole blocks of the input are consumed in place with
   no staging copy (the partial-block buffer goes through
   [Bytes.unsafe_to_string], which copies nothing either). *)
let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (t * 4) in
    w.(t) <-
      (Char.code (String.unsafe_get block i) lsl 24)
      lor (Char.code (String.unsafe_get block (i + 1)) lsl 16)
      lor (Char.code (String.unsafe_get block (i + 2)) lsl 8)
      lor Char.code (String.unsafe_get block (i + 3))
  done;
  for t = 16 to 63 do
    let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
    let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
  done;
  let h = ctx.h in
  rounds h w 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

(* Whole blocks straight from the input, no staging copy. *)
let rec absorb ctx s pos len =
  if len - pos >= 64 then begin
    compress ctx s pos;
    absorb ctx s (pos + 64) len
  end
  else pos

let update ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  (* Top up a partial block first. *)
  let start =
    if ctx.buf_len > 0 then begin
      let need = 64 - ctx.buf_len in
      let take = if need < len then need else len in
      Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      if ctx.buf_len = 64 then begin
        compress ctx (Bytes.unsafe_to_string ctx.buf) 0;
        ctx.buf_len <- 0
      end;
      take
    end
    else 0
  in
  let pos = absorb ctx s start len in
  if pos < len then begin
    Bytes.blit_string s pos ctx.buf ctx.buf_len (len - pos);
    ctx.buf_len <- ctx.buf_len + (len - pos)
  end

(* Padding happens inside the context's own block buffer: append 0x80,
   zero-fill, spill into a second compression if the 8-byte length
   field does not fit, then write the bit length big-endian into bytes
   56..63.  No pad block is allocated. *)
let finalize ctx =
  let total_bits = ctx.total * 8 in
  Bytes.set ctx.buf ctx.buf_len '\x80';
  Bytes.fill ctx.buf (ctx.buf_len + 1) (63 - ctx.buf_len) '\000';
  if ctx.buf_len + 1 > 56 then begin
    compress ctx (Bytes.unsafe_to_string ctx.buf) 0;
    Bytes.fill ctx.buf 0 64 '\000'
  end;
  for i = 0 to 7 do
    Bytes.set ctx.buf (56 + i)
      (Char.chr ((total_bits lsr ((7 - i) * 8)) land 0xFF))
  done;
  compress ctx (Bytes.unsafe_to_string ctx.buf) 0;
  ctx.buf_len <- 0;
  (* manetcheck: allow hot-alloc — the 32-byte digest is the return
     value. *)
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (i * 4) (Char.chr ((v lsr 24) land 0xFF));
    Bytes.set out ((i * 4) + 1) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out ((i * 4) + 2) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out ((i * 4) + 3) (Char.chr (v land 0xFF))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let hex s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
    s;
  Buffer.contents buf

let digest_hex s = hex (digest s)

(* Compression-function invocations for a message of [len] bytes: the
   padded input is len + 1 (0x80) + >=8 (length field) bytes rounded up
   to a 64-byte block, i.e. ceil((len + 9) / 64) blocks. *)
let blocks_of_len len =
  if len < 0 then invalid_arg "Sha256.blocks_of_len: negative length";
  (len + 72) / 64
