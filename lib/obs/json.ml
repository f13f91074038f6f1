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

(* Canonical float rendering: integral values print with a single
   trailing ".0", everything else through %.12g.  Both are pure
   functions of the value, which is what keeps JSONL exports
   byte-identical across replays of the same seed.  NaN and the
   infinities have no JSON representation at all, so they are rejected
   here rather than silently emitted as unparseable tokens. *)
let float_str x =
  if not (Float.is_finite x) then
    invalid_arg "Json.float_str: non-finite floats have no JSON encoding";
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.12g" x

let escape_char buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))

(* One pass: clean runs are copied whole, so a string with nothing to
   escape (the common case) is a single [Buffer.add_substring]. *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = s.[i] in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !run (i - !run);
      escape_char buf c;
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (String.length s - !run);
  Buffer.add_char buf '"'

let rec to_buffer buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_str x)
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
