type t = { hi : int64; lo : int64 }

let make ~hi ~lo = { hi; lo }

let compare a b =
  let c = Int64.unsigned_compare a.hi b.hi in
  if c <> 0 then c else Int64.unsigned_compare a.lo b.lo

let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo

let hash a =
  Int64.to_int (Int64.logxor a.hi (Int64.mul a.lo 0x9E3779B97F4A7C15L)) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

type seq_key = { addr : t; seq : int }

(* Monomorphic equality and hash, mixed like the flood keys: no
   polymorphic primitive and no allocation per lookup.  The final shift
   folds the multiplied high bits into the low bits the table indexes
   by. *)
module Seq_tbl = Hashtbl.Make (struct
  type t = seq_key

  let equal a b = Int.equal a.seq b.seq && equal a.addr b.addr

  let mix h x = (h lxor x) * 0x100000001b3

  let hash k =
    let h = mix (mix (Int64.to_int k.addr.hi) (Int64.to_int k.addr.lo)) k.seq in
    (h lxor (h lsr 31)) land max_int
end)

let unspecified = { hi = 0L; lo = 0L }
let loopback = { hi = 0L; lo = 1L }

let of_groups g =
  if Array.length g <> 8 then invalid_arg "Address.of_groups: need 8 groups";
  Array.iter
    (fun v -> if v < 0 || v > 0xFFFF then invalid_arg "Address.of_groups: group out of range")
    g;
  let pack a b c d =
    Int64.logor
      (Int64.shift_left (Int64.of_int a) 48)
      (Int64.logor
         (Int64.shift_left (Int64.of_int b) 32)
         (Int64.logor (Int64.shift_left (Int64.of_int c) 16) (Int64.of_int d)))
  in
  { hi = pack g.(0) g.(1) g.(2) g.(3); lo = pack g.(4) g.(5) g.(6) g.(7) }

(* Group [i] (0-7) of the eight 16-bit groups, most significant first. *)
let group a i =
  let w = if i < 4 then a.hi else a.lo in
  Int64.to_int (Int64.shift_right_logical w (48 - (16 * (i land 3)))) land 0xFFFF

let to_groups a = Array.init 8 (group a)

let of_bytes s =
  if String.length s <> 16 then invalid_arg "Address.of_bytes: need 16 bytes";
  let word off =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
    done;
    !v
  in
  { hi = word 0; lo = word 8 }

let to_bytes a =
  let b = Bytes.create 16 in
  let put off v =
    for i = 0 to 7 do
      Bytes.set b (off + i)
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v ((7 - i) * 8)) 0xFFL)))
    done
  in
  put 0 a.hi;
  put 8 a.lo;
  Bytes.unsafe_to_string b

(* --- parsing ---------------------------------------------------------- *)

let parse_group s =
  let len = String.length s in
  if len = 0 || len > 4 then None
  else begin
    let v = ref 0 in
    let ok = ref true in
    String.iter
      (fun c ->
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ ->
              ok := false;
              0
        in
        v := (!v lsl 4) lor d)
      s;
    if !ok then Some !v else None
  end

let parse_ipv4_tail s =
  (* "a.b.c.d" -> two 16-bit groups *)
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let byte x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 && String.length x <= 3 && x <> "" -> Some v
        | _ -> None
      in
      match (byte a, byte b, byte c, byte d) with
      | Some a, Some b, Some c, Some d -> Some [ (a lsl 8) lor b; (c lsl 8) lor d ]
      | _ -> None)
  | _ -> None

let parse_side s =
  (* Parse a "g:g:...:g" fragment (no "::") into a list of 16-bit groups.
     The last component may be an embedded IPv4 dotted quad. *)
  if s = "" then Some []
  else begin
    let parts = String.split_on_char ':' s in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | [ last ] when String.contains last '.' -> (
          match parse_ipv4_tail last with
          | Some gs -> Some (List.rev_append acc gs)
          | None -> None)
      | p :: rest -> (
          match parse_group p with
          | Some v -> go (v :: acc) rest
          | None -> None)
    in
    go [] parts
  end

let find_double_colon s =
  let n = String.length s in
  let rec go i =
    if i >= n - 1 then None
    else if s.[i] = ':' && s.[i + 1] = ':' then Some i
    else go (i + 1)
  in
  go 0

let of_string s =
  let fail reason = Error (Printf.sprintf "%S: %s" s reason) in
  match find_double_colon s with
  | None -> (
      match parse_side s with
      | Some groups when List.length groups = 8 -> Ok (of_groups (Array.of_list groups))
      | Some _ -> fail "wrong number of groups"
      | None -> fail "malformed group")
  | Some i -> (
      let left = String.sub s 0 i in
      let right = String.sub s (i + 2) (String.length s - i - 2) in
      if find_double_colon right <> None then fail "multiple '::'"
      else begin
        match (parse_side left, parse_side right) with
        | Some l, Some r ->
            let missing = 8 - List.length l - List.length r in
            if missing < 1 then fail "'::' expands to nothing"
            else begin
              let zeros = List.init missing (fun _ -> 0) in
              Ok (of_groups (Array.of_list (l @ zeros @ r)))
            end
        | _ -> fail "malformed group"
      end)

let of_string_exn s =
  match of_string s with
  | Ok a -> a
  | Error e -> invalid_arg ("Address.of_string_exn: " ^ e)

(* --- printing (RFC 5952) ---------------------------------------------- *)

let hex_digits = "0123456789abcdef"

(* [v] in lower-case hex without leading zeros, as [%x] prints it. *)
let add_hex buf v =
  if v >= 0x1000 then Buffer.add_char buf hex_digits.[v lsr 12];
  if v >= 0x100 then Buffer.add_char buf hex_digits.[(v lsr 8) land 0xF];
  if v >= 0x10 then Buffer.add_char buf hex_digits.[(v lsr 4) land 0xF];
  Buffer.add_char buf hex_digits.[v land 0xF]

let add_to_buffer buf a =
  (* Longest run of >= 2 zero groups, leftmost on ties. *)
  let best_start = ref (-1) and best_len = ref 0 in
  let i = ref 0 in
  while !i < 8 do
    if group a !i = 0 then begin
      let j = ref (!i + 1) in
      while !j < 8 && group a !j = 0 do incr j done;
      let len = !j - !i in
      if len >= 2 && len > !best_len then begin
        best_start := !i;
        best_len := len
      end;
      i := !j
    end
    else incr i
  done;
  (* With no run, [resume] is -1 and every group prints. *)
  let stop = !best_start and resume = !best_start + !best_len in
  for i = 0 to 7 do
    if i = stop then Buffer.add_string buf "::"
    else if i < stop || i >= resume then begin
      if i > 0 && i <> resume then Buffer.add_char buf ':';
      add_hex buf (group a i)
    end
  done

let to_string a =
  let buf = Buffer.create 39 in
  add_to_buffer buf a;
  Buffer.contents buf

let pp fmt a = Format.pp_print_string fmt (to_string a)

(* --- well-known constants and prefixes -------------------------------- *)

let site_local_prefix = { hi = 0xFEC0_0000_0000_0000L; lo = 0L }

let matches_prefix a ~prefix ~len =
  if len < 0 || len > 128 then invalid_arg "Address.matches_prefix: bad length";
  let mask64 bits =
    if bits <= 0 then 0L
    else if bits >= 64 then -1L
    else Int64.shift_left (-1L) (64 - bits)
  in
  let hi_mask = mask64 len and lo_mask = mask64 (len - 64) in
  Int64.equal (Int64.logand a.hi hi_mask) (Int64.logand prefix.hi hi_mask)
  && Int64.equal (Int64.logand a.lo lo_mask) (Int64.logand prefix.lo lo_mask)

let is_site_local a = matches_prefix a ~prefix:site_local_prefix ~len:10

let dns_server_1 = of_string_exn "fec0:0:0:ffff::1"
let dns_server_2 = of_string_exn "fec0:0:0:ffff::2"
let dns_server_3 = of_string_exn "fec0:0:0:ffff::3"

let interface_id a = a.lo
