type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printing ----------------------------------------------------------- *)

(* The [k] decimal digits of [n >= 0] (leading zeros included), with a
   '.' before digit [point] (counted from 0 on the left) when
   [0 < point < k].  The divisions are by the constant 10, which the
   compiler turns into a multiply. *)
let rec add_digits buf n k point =
  if k > 1 then add_digits buf (n / 10) (k - 1) point;
  if k - 1 = point && point > 0 then Buffer.add_char buf '.';
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let rec digit_count n = if n < 10 then 1 else 1 + digit_count (n / 10)

let add_uint buf n = add_digits buf n (digit_count n) 0

let add_int buf n =
  if n >= 0 then add_uint buf n
  else if n = min_int then
    (* manetcheck: cold — min_int has no positive counterpart; it never
       reaches an export but must still print as string_of_int does. *)
    Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_uint buf (-n)
  end

let int_length n =
  if n >= 0 then digit_count n
  else if n = min_int then
    (* manetcheck: cold — as in [add_int]. *)
    String.length (string_of_int n)
  else 1 + digit_count (-n)

(* 10^s for the scales of the %.12g fast path; every one is exact in a
   double. *)
let[@inline] pow10 = function
  | 1 -> 1e1
  | 2 -> 1e2
  | 3 -> 1e3
  | 4 -> 1e4
  | 5 -> 1e5
  | 6 -> 1e6
  | 7 -> 1e7
  | 8 -> 1e8
  | 9 -> 1e9
  | 10 -> 1e10
  | 11 -> 1e11
  | 12 -> 1e12
  | 13 -> 1e13
  | 14 -> 1e14
  | _ -> 1e15

(* The scale s = 11 - floor(log10 a) that puts 1e-4 <= a < 1e11 into
   [1e11, 1e12).  The comparisons are exact: each negative power's
   double lies above the real power, with no double in between. *)
let[@inline] scale_of a =
  if a >= 1.0 then
    if a >= 1e5 then
      if a >= 1e8 then if a >= 1e10 then 1 else if a >= 1e9 then 2 else 3
      else if a >= 1e7 then 4
      else if a >= 1e6 then 5
      else 6
    else if a >= 1e3 then if a >= 1e4 then 7 else 8
    else if a >= 1e2 then 9
    else if a >= 1e1 then 10
    else 11
  else if a >= 1e-1 then 12
  else if a >= 1e-2 then 13
  else if a >= 1e-3 then 14
  else 15

(* The [k] digits of [d] as %g writes them, with [int_digits] of them
   before the point: trailing zeros dropped, "0.00ddd" when
   [int_digits <= 0], and "ddd000" with no point when no fraction digit
   is left. *)
let rec add_trimmed buf d k int_digits =
  if d mod 10 = 0 then add_trimmed buf (d / 10) (k - 1) int_digits
  else if int_digits <= 0 then begin
    Buffer.add_string buf "0.";
    for _ = 1 to -int_digits do
      Buffer.add_char buf '0'
    done;
    add_digits buf d k 0
  end
  else begin
    add_digits buf d k int_digits;
    for _ = k + 1 to int_digits do
      Buffer.add_char buf '0'
    done
  end

(* The 12 significant digits of %.12g for 1e-4 <= a < 1e11 at scale
   [s = scale_of a] when their rounding is decided, else -1.  They are
   round(a * 10^s), and the decimal exponent is 11 - s, between -4 and
   10: %g's fixed-point form.  The one multiply is off by at most half
   an ulp of a value below 2^40, i.e. 2^-14, so when its fraction is at
   least 1e-3 from one half, the exact product rounds the same way.  A
   product that rounds up to 10^12 has 13 digits and is left to the
   fallback. *)
let[@inline] g12_digits a s =
  let y = a *. pow10 s in
  let n = int_of_float y in
  let frac = y -. float_of_int n in
  let d = if frac <= 0.499 then n else if frac >= 0.501 then n + 1 else -1 in
  if d >= 1_000_000_000_000 then -1 else d

(* %.12g of [x], for 1e-4 <= a = |x| < 1e11, when its rounding is
   decided; returns false, having written nothing, otherwise. *)
let add_g12 buf x =
  let a = Float.abs x in
  let s = scale_of a in
  let d = g12_digits a s in
  if d < 0 then false
  else begin
    if x < 0.0 then Buffer.add_char buf '-';
    add_trimmed buf d 12 (12 - s);
    true
  end

(* Canonical float rendering: integral values print with a single
   trailing ".0" (as %.1f), everything else as %.12g.  Both are pure
   functions of the value, which is what keeps JSONL exports
   byte-identical across replays of the same seed.  NaN and the
   infinities have no JSON representation at all, so they are rejected
   here rather than silently emitted as unparseable tokens. *)
let add_float buf x =
  if not (Float.is_finite x) then
    invalid_arg "Json.float_str: non-finite floats have no JSON encoding";
  let a = Float.abs x in
  if a < 1e15 && Float.of_int (int_of_float a) = a then begin
    if Float.sign_bit x then Buffer.add_char buf '-';
    add_uint buf (int_of_float a);
    Buffer.add_string buf ".0"
  end
  else if not (a >= 1e-4 && a < 1e11 && add_g12 buf x) then
    (* manetcheck: cold — magnitudes outside [1e-4, 1e11) and products
       within 1e-3 of a tie (one uniform fraction in 500); the fast path
       wrote nothing. *)
    Buffer.add_string buf (Printf.sprintf "%.12g" x)

(* The length [add_trimmed] writes. *)
let rec trimmed_length d k int_digits =
  if d mod 10 = 0 then trimmed_length (d / 10) (k - 1) int_digits
  else if int_digits <= 0 then 2 - int_digits + k
  else if int_digits < k then k + 1
  else int_digits

let float_length x =
  if not (Float.is_finite x) then
    invalid_arg "Json.float_str: non-finite floats have no JSON encoding";
  let a = Float.abs x in
  let sign = if Float.sign_bit x then 1 else 0 in
  if a < 1e15 && Float.of_int (int_of_float a) = a then
    sign + digit_count (int_of_float a) + 2
  else
    let s = scale_of a in
    let d = if a >= 1e-4 && a < 1e11 then g12_digits a s else -1 in
    if d >= 0 then sign + trimmed_length d 12 (12 - s)
    else
      (* manetcheck: cold — the values [add_float] hands to Printf. *)
      String.length (Printf.sprintf "%.12g" x)

let float_str x =
  let buf = Buffer.create 24 in
  add_float buf x;
  Buffer.contents buf

let hex_digit n = Char.unsafe_chr (if n < 10 then 48 + n else 87 + n)

let escape_char buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
      (* Only bytes below 0x20 get here: \u00XX. *)
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf (hex_digit (Char.code c lsr 4));
      Buffer.add_char buf (hex_digit (Char.code c land 15))

(* Bytes 0-6 of [w] hold no byte to escape.  Each test is exact per
   byte: [nz y] has bit 7 of a byte set iff that byte of [y] is nonzero,
   and no sum carries out of its byte. *)
let lanes = 0x7f7f7f7f7f7f7f
let tops = 0x80808080808080

let[@inline] nz y = ((y land lanes) + lanes) lor y

let[@inline] clean7 w =
  nz (w lxor 0x22222222222222) land nz (w lxor 0x5c5c5c5c5c5c5c)
  land nz (w land 0xe0e0e0e0e0e0e0) land tops
  = tops

(* One pass: clean runs are copied whole, so a string with nothing to
   escape (the common case) is a single [Buffer.add_substring].  The
   scan loads 8 bytes at a time and tests the first 7, and steps byte by
   byte from a window that holds something to escape. *)
let rec escape_from buf s run i =
  if i + 8 <= String.length s && clean7 (Int64.to_int (String.get_int64_le s i))
  then escape_from buf s run (i + 7)
  else if i = String.length s then Buffer.add_substring buf s run (i - run)
  else
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s run (i - run);
      escape_char buf c;
      escape_from buf s (i + 1) (i + 1)
    end
    else escape_from buf s run (i + 1)

(* The bytes [escape_from] adds to [s], by the same scan. *)
let rec escape_growth s extra i =
  if i + 8 <= String.length s && clean7 (Int64.to_int (String.get_int64_le s i))
  then escape_growth s extra (i + 7)
  else if i = String.length s then extra
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\n' | '\r' | '\t' -> escape_growth s (extra + 1) (i + 1)
    | c when Char.code c < 0x20 -> escape_growth s (extra + 5) (i + 1)
    | _ -> escape_growth s extra (i + 1)

let escaped_length s = String.length s + 2 + escape_growth s 0 0

let escape_to buf s =
  Buffer.add_char buf '"';
  escape_from buf s 0 0;
  Buffer.add_char buf '"'

let rec to_buffer buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float x -> add_float buf x
  | String s -> escape_to buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf item)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

type cursor = { text : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "offset %d: %s" cur.pos msg))

let peek cur =
  if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let n = String.length cur.text in
  while
    cur.pos < n
    &&
    match cur.text.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | Some got -> fail cur (Printf.sprintf "expected %c, found %c" c got)
  | None -> fail cur (Printf.sprintf "expected %c, found end of input" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.text
    && String.sub cur.text cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let hex_val cur c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail cur "bad hex digit in \\u escape"

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | None -> fail cur "unterminated escape"
        | Some c ->
            advance cur;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if cur.pos + 4 > String.length cur.text then
                  fail cur "truncated \\u escape";
                let v = ref 0 in
                for _ = 1 to 4 do
                  (match peek cur with
                  | Some h -> v := (!v * 16) + hex_val cur h
                  | None -> fail cur "truncated \\u escape");
                  advance cur
                done;
                (* Our own exports only emit \u00XX control codes; decode
                   anything in the Latin-1 range and reject the rest
                   rather than silently mangling it. *)
                if !v < 0x100 then Buffer.add_char buf (Char.chr !v)
                else fail cur "\\u escape above U+00FF unsupported"
            | c -> fail cur (Printf.sprintf "bad escape \\%c" c));
            go ())
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let n = String.length cur.text in
  let is_float = ref false in
  let numeric c =
    match c with
    | '0' .. '9' | '-' | '+' -> true
    | '.' | 'e' | 'E' ->
        is_float := true;
        true
    | _ -> false
  in
  while cur.pos < n && numeric cur.text.[cur.pos] do
    advance cur
  done;
  let s = String.sub cur.text start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some x -> Float x
    | None -> fail cur (Printf.sprintf "bad number %S" s)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some x -> Float x
        | None -> fail cur (Printf.sprintf "bad number %S" s))

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          fields := (k, v) :: !fields;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              members ()
          | Some '}' -> advance cur
          | _ -> fail cur "expected , or } in object"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value cur in
          items := v :: !items;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              elements ()
          | Some ']' -> advance cur
          | _ -> fail cur "expected , or ] in array"
        in
        elements ();
        List (List.rev !items)
      end
  | Some '"' -> String (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some _ -> parse_number cur

let parse text =
  let cur = { text; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length text then fail cur "trailing garbage";
  v

(* --- accessors ---------------------------------------------------------- *)

let member key v =
  match v with Obj fields -> List.assoc_opt key fields | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
