module Address = Manet_ipv6.Address
module M = Messages

(* Every function here interprets {!Messages}' table: one function per
   concern over the field codecs, and one small walk over an entry's
   fields. *)

(* --- encoding ----------------------------------------------------------- *)

let in_range what max v =
  if v < 0 || v > max then invalid_arg what;
  v

(* The one u16 range check, shared by [encode] and [encoded_size] so
   both reject an over-long field with the same exception. *)
let u16_checked v = in_range "Binary: u16 out of range" 0xFFFF v

let rec put : type a. Buffer.t -> a M.codec -> a -> unit =
 fun buf c v ->
  match c with
  | M.U8 -> Buffer.add_uint8 buf (in_range "Binary: u8 out of range" 0xFF v)
  | M.U32 ->
      Buffer.add_int32_be buf (Int32.of_int (in_range "Binary: u32 out of range" 0xFFFF_FFFF v))
  | M.U64 -> Buffer.add_int64_be buf v
  | M.Bool -> Buffer.add_uint8 buf (Bool.to_int v)
  | M.Addr -> Buffer.add_string buf (Address.to_bytes v)
  | M.Str ->
      Buffer.add_uint16_be buf (u16_checked (String.length v));
      Buffer.add_string buf v
  | M.Opt c -> (
      match v with
      | None -> Buffer.add_uint8 buf 0
      | Some x ->
          Buffer.add_uint8 buf 1;
          put buf c x)
  | M.List c ->
      Buffer.add_uint16_be buf (u16_checked (List.length v));
      List.iter (put buf c) v
  | M.Srr ->
      put buf M.Addr v.ip;
      put buf M.Str v.sig_;
      put buf M.Str v.pk;
      put buf M.U64 v.rn
  | M.Addr_u32 ->
      put buf M.Addr (fst v);
      put buf M.U32 (snd v)
  | M.Sent_at -> Buffer.add_int64_be buf (Int64.bits_of_float v)

let rec put_fields buf r = function
  | [] -> ()
  | M.Field f :: rest ->
      put buf f.codec (f.get r);
      put_fields buf r rest

let encoder =
  {
    M.run =
      (fun d r buf () ->
        Buffer.add_uint8 buf d.wire;
        put_fields buf r d.fields);
  }

let encode m =
  let buf = Buffer.create 128 in
  M.view encoder buf () m;
  Buffer.contents buf

(* --- encoded size -------------------------------------------------------- *)

(* [String.length (encode m)] without building the encoding: an entry's
   fixed-width fields are folded into its [fixed] bytes, so only the
   variable-width ones are read, and only for their lengths and counts. *)

let rec count n = function [] -> n | _ :: tl -> count (n + 1) tl
let addr_width = M.width M.Addr

(* An SRR entry without its two strings' bytes: its fewest bytes. *)
let srr_fixed = addr_width + 2 + 2 + M.width M.U64

let rec size : type a. a M.codec -> a -> int =
 fun c v ->
  match c with
  | M.Str -> 2 + u16_checked (String.length v)
  | M.Opt c -> ( match v with None -> 1 | Some x -> 1 + size c x)
  | M.List c ->
      ignore (u16_checked (count 0 v));
      elements_size c 2 v
  | M.Srr -> srr_fixed + u16_checked (String.length v.sig_) + u16_checked (String.length v.pk)
  | M.U8 | M.U32 | M.U64 | M.Bool | M.Addr | M.Addr_u32 | M.Sent_at -> M.width c

and elements_size : type a. a M.codec -> int -> a list -> int =
 fun c acc -> function [] -> acc | x :: tl -> elements_size c (acc + size c x) tl

(* Source routes, in nearly every message, are sized in place. *)
let rec var_size r acc = function
  | [] -> acc
  | M.Field { codec = M.List M.Addr; get = route; _ } :: rest ->
      var_size r (acc + 2 + (addr_width * u16_checked (count 0 (route r)))) rest
  | M.Field f :: rest -> var_size r (acc + size f.codec (f.get r)) rest

let entry_size d r () () = var_size r d.M.fixed d.var
let sizer = { M.run = entry_size }
let encoded_size m = M.view sizer () () m

(* --- decoding ------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type reader = { data : string; mutable pos : int }

(* The offset of the next [n] bytes, which the reader then skips. *)
let take r n =
  if r.pos + n > String.length r.data then bad "truncated at byte %d (need %d)" r.pos n;
  let at = r.pos in
  r.pos <- at + n;
  at

let get_u16 r = String.get_uint16_be r.data (take r 2)

(* The fewest bytes a value of [c] encodes to. *)
let min_size : type a. a M.codec -> int = function
  | M.Str | M.List _ -> 2
  | M.Opt _ -> 1
  | M.Srr -> srr_fixed
  | c -> M.width c

let rec get : type a. reader -> a M.codec -> a =
 fun r c ->
  match c with
  | M.U8 -> String.get_uint8 r.data (take r 1)
  | M.U32 -> Int32.to_int (String.get_int32_be r.data (take r 4)) land 0xFFFF_FFFF
  | M.U64 -> String.get_int64_be r.data (take r 8)
  | M.Bool -> ( match get r M.U8 with 0 -> false | 1 -> true | v -> bad "bad bool byte %d" v)
  | M.Addr -> Address.of_bytes (String.sub r.data (take r 16) 16)
  | M.Str ->
      let n = get_u16 r in
      String.sub r.data (take r n) n
  | M.Opt c -> (
      match get r M.U8 with 0 -> None | 1 -> Some (get r c) | v -> bad "bad option byte %d" v)
  | M.List c ->
      (* The count is checked against the bytes left before anything is
         allocated, so a hostile count costs nothing. *)
      let n = get_u16 r in
      let left = String.length r.data - r.pos in
      if n * min_size c > left then bad "%d elements cannot fit in %d bytes" n left;
      List.init n (fun _ -> get r c)
  | M.Srr ->
      let ip = get r M.Addr in
      let sig_ = get r M.Str in
      let pk = get r M.Str in
      let rn = get r M.U64 in
      { M.ip; sig_; pk; rn }
  | M.Addr_u32 ->
      let a = get r M.Addr in
      let n = get r M.U32 in
      (a, n)
  | M.Sent_at -> Int64.float_of_bits (get r M.U64)

let rec get_fields : type r k. reader -> (r, k) M.Fields.t -> k -> M.t =
 fun r fields make ->
  match fields with
  | M.Fields.[] -> make
  | (_, c, _) :: rest ->
      let v = get r c in
      get_fields r rest (make v)

let rec get_body r wire = function
  | [] -> bad "unknown message tag %d" wire
  | M.Entry d :: rest -> (
      if d.wire <> wire then get_body r wire rest
      else match d.layout with M.Layout (fields, make) -> get_fields r fields make)

let decode data =
  let r = { data; pos = 0 } in
  match get_body r (get r M.U8) M.entries with
  | msg ->
      if r.pos <> String.length data then
        Error (Printf.sprintf "%d trailing bytes" (String.length data - r.pos))
      else Ok msg
  | exception Bad reason -> Error reason

(* --- structural equality --------------------------------------------------- *)

let rec equal : type a. a M.codec -> a -> a -> bool =
 fun c x y ->
  match c with
  | M.U8 -> Int.equal x y
  | M.U32 -> Int.equal x y
  | M.U64 -> Int64.equal x y
  | M.Bool -> Bool.equal x y
  | M.Addr -> Address.equal x y
  | M.Str -> String.equal x y
  | M.Opt c -> Option.equal (equal c) x y
  | M.List c -> List.equal (equal c) x y
  | M.Srr ->
      Address.equal x.ip y.ip && String.equal x.sig_ y.sig_ && String.equal x.pk y.pk
      && Int64.equal x.rn y.rn
  | M.Addr_u32 -> Address.equal (fst x) (fst y) && Int.equal (snd x) (snd y)
  | M.Sent_at -> Float.equal x y

let rec equal_fields a b = function
  | [] -> true
  | M.Field f :: rest -> equal f.codec (f.get a) (f.get b) && equal_fields a b rest

(* [m]'s record when [m] is [d]'s constructor. *)
let record_of (type r) (d : r M.desc) m : r option =
  let cast (type s) (d' : s M.desc) (r' : s) (d : r M.desc) () : r option =
    match Type.Id.provably_equal d'.id d.id with Some Type.Equal -> Some r' | None -> None
  in
  M.view { M.run = cast } d () m

let same =
  {
    M.run =
      (fun d a m () ->
        match record_of d m with Some b -> equal_fields a b d.fields | None -> false);
  }

let equal_message a b = M.view same b () a

module Oracle = struct
  let encode = encode
  let decode = decode
  let equal_message = equal_message
end
