(* analyzer_common — the runtime of manetcheck.  One comment scanner, one
   allow-directive grammar, one parse/alias/binding toolkit over
   compiler-libs, and one baseline fresh/stale/diff semantics, so every
   rule suppresses, pins and reports findings identically.  See
   common.mli. *)

open Parsetree

type finding = { file : string; line : int; rule : string; msg : string }

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line f.rule f.msg

let compare_findings a b =
  match compare a.file b.file with
  | 0 -> (
      match compare a.line b.line with
      | 0 -> (
          match compare a.rule b.rule with 0 -> compare a.msg b.msg | c -> c)
      | c -> c)
  | c -> c

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

(* ------------------------------------------------------------------ *)
(* Comment scanning.  The parser drops comments, so suppression
   directives are collected lexically: strings (plain and {id|...|id}),
   char literals and nested comments are tracked so that comment line
   ranges are exact. *)

let scan_comments src =
  let n = String.length src in
  let comments = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let bump c = if c = '\n' then incr line in
  while !i < n do
    let c = src.[!i] in
    if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      let l0 = !line in
      let buf = Buffer.create 64 in
      let depth = ref 1 in
      i := !i + 2;
      while !depth > 0 && !i < n do
        if !i + 1 < n && src.[!i] = '(' && src.[!i + 1] = '*' then begin
          incr depth;
          Buffer.add_string buf "(*";
          i := !i + 2
        end
        else if !i + 1 < n && src.[!i] = '*' && src.[!i + 1] = ')' then begin
          decr depth;
          if !depth > 0 then Buffer.add_string buf "*)";
          i := !i + 2
        end
        else begin
          bump src.[!i];
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      comments := (Buffer.contents buf, l0, !line) :: !comments
    end
    else if c = '"' then begin
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        match src.[!i] with
        | '\\' ->
            if !i + 1 < n && src.[!i + 1] = '\n' then incr line;
            i := !i + 2
        | '"' ->
            fin := true;
            incr i
        | ch ->
            bump ch;
            incr i
      done
    end
    else if c = '{' then begin
      let j = ref (!i + 1) in
      while
        !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
      do
        incr j
      done;
      if !j < n && src.[!j] = '|' then begin
        let id = String.sub src (!i + 1) (!j - !i - 1) in
        let close = "|" ^ id ^ "}" in
        let cl = String.length close in
        i := !j + 1;
        let fin = ref false in
        while (not !fin) && !i < n do
          if !i + cl <= n && String.sub src !i cl = close then begin
            fin := true;
            i := !i + cl
          end
          else begin
            bump src.[!i];
            incr i
          end
        done
      end
      else begin
        bump c;
        incr i
      end
    end
    else if c = '\'' then begin
      if !i + 2 < n && src.[!i + 1] = '\\' then begin
        let j = ref (!i + 2) in
        while !j < n && src.[!j] <> '\'' && !j < !i + 6 do
          incr j
        done;
        if !j < n && src.[!j] = '\'' then i := !j + 1 else incr i
      end
      else if !i + 2 < n && src.[!i + 2] = '\'' then begin
        if src.[!i + 1] = '\n' then incr line;
        i := !i + 3
      end
      else incr i
    end
    else begin
      bump c;
      incr i
    end
  done;
  List.rev !comments

let words_of s =
  String.split_on_char '\n' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun w -> w <> "")

(* ------------------------------------------------------------------ *)
(* Directives.  [manetcheck:] may sit anywhere inside a comment, so one
   comment can carry several directives; each needs prose (a rationale)
   between its keyword (and rule names) and the next marker.  An
   [allow] suppresses on the comment's own lines and on the line
   directly below the comment's last line; [allow-file] suppresses
   file-wide; [cold] marks branches for the hot-path rules.  A
   directive that breaks the grammar, or a marker of one of the four
   analyzers manetcheck replaced, lands in [a_bad]. *)

type allows = {
  a_ranges : (string * int * int) list;
  a_whole : (string * int) list;
  a_cold : (int * int) list;
  a_bad : (int * string) list;
}

let no_allows = { a_ranges = []; a_whole = []; a_cold = []; a_bad = [] }
let marker = "manetcheck:"

let retired_markers =
  List.map (fun t -> "manet" ^ t ^ ":") [ "lint"; "sem"; "dom"; "hot" ]

let has_prose ws =
  List.exists
    (String.exists (function 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false))
    ws

let scan_allows ~rules src =
  let rec split_rules = function
    | w :: rest when List.mem w rules ->
        let rs, tail = split_rules rest in
        (w :: rs, tail)
    | tail -> ([], tail)
  in
  let rec rationale acc = function
    | w :: _ when w = marker -> List.rev acc
    | w :: rest -> rationale (w :: acc) rest
    | [] -> List.rev acc
  in
  let bad acc l msg = { acc with a_bad = (l, msg) :: acc.a_bad } in
  let directive acc kw rest l0 l1 =
    let rs, tail = split_rules rest in
    let ok = has_prose (rationale [] tail) in
    match kw with
    | "cold" when ok -> { acc with a_cold = (l0, l1) :: acc.a_cold }
    | "cold" -> bad acc l0 "cold directive needs a rationale (prose after cold)"
    | _ when rs = [] || not ok ->
        bad acc l0
          "allow directive needs at least one known rule name and a \
           rationale (prose after the rule names)"
    | "allow-file" ->
        { acc with a_whole = List.map (fun r -> (r, l0)) rs @ acc.a_whole }
    | _ ->
        {
          acc with
          a_ranges = List.map (fun r -> (r, l0, l1 + 1)) rs @ acc.a_ranges;
        }
  in
  List.fold_left
    (fun acc (text, l0, l1) ->
      let rec go acc = function
        | [] -> acc
        | w :: kw :: rest
          when w = marker
               && (kw = "allow" || kw = "allow-file" || kw = "cold") ->
            go (directive acc kw rest l0 l1) rest
        | w :: rest when List.mem w retired_markers ->
            go
              (bad acc l0
                 (w ^ " is a retired directive prefix; write " ^ marker))
              rest
        | _ :: rest -> go acc rest
      in
      go acc (words_of text))
    no_allows (scan_comments src)

(* ------------------------------------------------------------------ *)
(* Parsing and per-file units. *)

type parsed =
  | Impl of structure
  | Intf of signature
  | Fail of int * string

type unit_ = {
  u_path : string;
  u_mod : string;
  u_parsed : parsed;
  u_aliases : (string, string) Hashtbl.t;
  u_allows : allows;
  u_analyzed : bool;
}

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let parse_file path content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf path;
  try
    if Filename.check_suffix path ".mli" then Intf (Parse.interface lexbuf)
    else Impl (Parse.implementation lexbuf)
  with exn ->
    let line = (Lexing.lexeme_start_p lexbuf).Lexing.pos_lnum in
    Fail (line, first_line (Printexc.to_string exn))

let rec lid_last = function
  | Longident.Lident s -> s
  | Longident.Ldot (_, s) -> s
  | Longident.Lapply (_, l) -> lid_last l

(* [resolve] maps a reference to an (optional module last-component,
   name) pair.  Local [module X = A.B] aliases are chased one step; all
   library module basenames in this tree are distinct, so the last
   component identifies a module uniquely. *)
let resolve aliases lid =
  match lid with
  | Longident.Lident x -> (None, x)
  | Longident.Ldot (p, x) ->
      let m =
        match p with
        | Longident.Lident m0 -> (
            match Hashtbl.find_opt aliases m0 with Some r -> r | None -> m0)
        | _ -> lid_last p
      in
      (Some m, x)
  | Longident.Lapply (_, _) -> (None, lid_last lid)

let rec collect_aliases str tbl =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_module
          {
            pmb_name = { txt = Some name; _ };
            pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
            _;
          } ->
          Hashtbl.replace tbl name (lid_last txt)
      | Pstr_module
          { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
          collect_aliases sub tbl
      | _ -> ())
    str

let mk_unit ~rules ~analyzed (path, content) =
  let parsed = parse_file path content in
  let aliases = Hashtbl.create 8 in
  (match parsed with Impl str -> collect_aliases str aliases | _ -> ());
  {
    u_path = path;
    u_mod =
      String.capitalize_ascii
        (Filename.remove_extension (Filename.basename path));
    u_parsed = parsed;
    u_aliases = aliases;
    u_allows = (if analyzed then scan_allows ~rules content else no_allows);
    u_analyzed = analyzed;
  }

let in_lib u = u.u_analyzed && String.starts_with ~prefix:"lib/" u.u_path

let parse_failures units =
  List.filter_map
    (fun u ->
      match u.u_parsed with
      | Fail (line, msg) when u.u_analyzed ->
          Some
            {
              file = u.u_path;
              line;
              rule = "parse";
              msg = "file does not parse: " ^ msg;
            }
      | _ -> None)
    units

(* ------------------------------------------------------------------ *)
(* Traversal helpers. *)

let iterator f =
  {
    Ast_iterator.default_iterator with
    expr =
      (fun self x ->
        f x;
        Ast_iterator.default_iterator.expr self x);
  }

let walk_expr f e =
  let it = iterator f in
  it.expr it e

let walk_unit f u =
  let it = iterator f in
  match u.u_parsed with Impl str -> it.structure it str | _ -> ()

let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | Pexp_constraint (x, _) | Pexp_open (_, x) -> is_function x
  | _ -> false

let rec peel_funs e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> peel_funs body
  | Pexp_constraint (x, _) -> peel_funs x
  | _ -> e

let rec peel_wrappers e =
  match e.pexp_desc with
  | Pexp_constraint (x, _) | Pexp_coerce (x, _, _) | Pexp_open (_, x) ->
      peel_wrappers x
  | _ -> e

(* ------------------------------------------------------------------ *)
(* Top-level bindings, nested modules included. *)

type binding = {
  b_unit : unit_;
  b_mod : string; (* enclosing module: file module or submodule *)
  b_name : string;
  b_expr : expression;
  b_line : int;
}

let rec binding_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (q, _) -> binding_name q
  | _ -> None

let collect_bindings u =
  let out = ref [] in
  let rec go modname items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match binding_name vb.pvb_pat with
                | Some name ->
                    out :=
                      {
                        b_unit = u;
                        b_mod = modname;
                        b_name = name;
                        b_expr = vb.pvb_expr;
                        b_line = line_of vb.pvb_loc;
                      }
                      :: !out
                | None -> ())
              vbs
        | Pstr_module
            {
              pmb_name = { txt = Some sub; _ };
              pmb_expr = { pmod_desc = Pmod_structure str; _ };
              _;
            } ->
            go sub str
        | _ -> ())
      items
  in
  (match u.u_parsed with Impl str -> go u.u_mod str | _ -> ());
  List.rev !out

(* The least set of (module, name) keys, starting from [init], that
   holds every binding [step set b] admits. *)
let fixpoint ?(init = []) bindings step =
  let set = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace set k ()) init;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let k = (b.b_mod, b.b_name) in
        if (not (Hashtbl.mem set k)) && step set b then begin
          Hashtbl.replace set k ();
          changed := true
        end)
      bindings
  done;
  set

(* One-level expression children, for generic traversal cases. *)
let sub_expressions e =
  let acc = ref [] in
  let sub =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ x -> acc := x :: !acc);
    }
  in
  Ast_iterator.default_iterator.expr sub e;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Suppression.  Every allow must earn its place: one that suppresses
   no finding is reported, like a grammar error, as an "annotation"
   finding, which nothing can suppress. *)

let finish units findings =
  let used = Hashtbl.create 64 in
  let allows = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace allows u.u_path u.u_allows) units;
  let suppressed f =
    f.rule <> "annotation"
    &&
    match Hashtbl.find_opt allows f.file with
    | None -> false
    | Some a -> (
        let hit =
          match List.find_opt (fun (r, _) -> r = f.rule) a.a_whole with
          | Some (_, l) -> Some l
          | None ->
              List.find_map
                (fun (r, lo, hi) ->
                  if r = f.rule && lo <= f.line && f.line <= hi then Some lo
                  else None)
                a.a_ranges
        in
        match hit with
        | Some l ->
            Hashtbl.replace used (f.file, f.rule, l) ();
            true
        | None -> false)
  in
  let kept = List.filter (fun f -> not (suppressed f)) findings in
  let annotation u line msg =
    { file = u.u_path; line; rule = "annotation"; msg }
  in
  let unused u =
    let a = u.u_allows in
    List.map (fun (r, l, _) -> (r, l)) a.a_ranges @ a.a_whole
    |> List.filter (fun (r, l) -> not (Hashtbl.mem used (u.u_path, r, l)))
    |> List.map (fun (r, l) ->
           annotation u l
             (Printf.sprintf
                "allow %s suppresses no finding; delete it or fix its rule \
                 name"
                r))
  in
  let bad u = List.map (fun (l, msg) -> annotation u l msg) u.u_allows.a_bad in
  List.sort_uniq compare_findings
    (kept @ List.concat_map (fun u -> bad u @ unused u) units)

(* ------------------------------------------------------------------ *)
(* Baseline. *)

let finding_key f = f.file ^ "|" ^ f.rule ^ "|" ^ f.msg

let render_baseline findings =
  let keys = List.sort_uniq compare (List.map finding_key findings) in
  "# manetcheck baseline — accepted pre-existing findings.\n\
   # One key per line: file|rule|message.  Regenerate with:\n\
   #   dune exec tools/manetcheck/main.exe -- --write-baseline\n"
  ^ String.concat "" (List.map (fun k -> k ^ "\n") keys)

let parse_baseline s =
  String.split_on_char '\n' s
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let diff_baseline ~baseline findings =
  let fresh =
    List.filter (fun f -> not (List.mem (finding_key f) baseline)) findings
  in
  let keys = List.map finding_key findings in
  let stale = List.filter (fun k -> not (List.mem k keys)) baseline in
  (fresh, stale)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ~baseline findings =
  let obj f =
    Printf.sprintf
      "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"msg\":\"%s\",\"baselined\":%b}"
      (json_escape f.file) f.line (json_escape f.rule) (json_escape f.msg)
      (List.mem (finding_key f) baseline)
  in
  "[" ^ String.concat ",\n " (List.map obj findings) ^ "]\n"
