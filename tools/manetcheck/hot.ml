(* Hot-path rules: per-call allocation, polymorphic compare/hash, O(n)
   list walks, per-event partial application, boxed float stores and
   string-keyed table operations, flagged only inside the hot set — the roster's seed functions plus
   everything they transitively reference.  See check.mli for the
   catalogue. *)

open Parsetree
module C = Analyzer_common.Common
open C

let rules =
  [
    "hot-alloc"; "hot-poly"; "hot-list"; "hot-partial"; "hot-boxed-store";
    "hot-string-key"; "roster";
  ]

(* ------------------------------------------------------------------ *)
(* Roster: the committed hotpaths.sexp.  One (Module function) pair per
   form; [;] starts a line comment.  Every entry must name an existing
   top-level function — stale entries are findings, so the roster can
   not silently rot as the tree is refactored. *)

type token = Lp of int | Rp of int | Atom of string * int

let tokenize text =
  let toks = ref [] in
  let line = ref 1 in
  let n = String.length text in
  let i = ref 0 in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Atom (Buffer.contents buf, !line) :: !toks;
      Buffer.clear buf
    end
  in
  while !i < n do
    (match text.[!i] with
    | ';' ->
        flush ();
        while !i < n && text.[!i] <> '\n' do
          incr i
        done;
        decr i
    | '(' ->
        flush ();
        toks := Lp !line :: !toks
    | ')' ->
        flush ();
        toks := Rp !line :: !toks
    | ' ' | '\t' | '\r' -> flush ()
    | '\n' ->
        flush ();
        incr line
    | c -> Buffer.add_char buf c);
    incr i
  done;
  flush ();
  List.rev !toks

(* Returns (entries, errors): entries are (Module, fn, line). *)
let parse_roster text =
  let entries = ref [] and errors = ref [] in
  let err line msg = errors := (line, msg) :: !errors in
  let rec go = function
    | [] -> ()
    | Lp l :: Atom (m, _) :: Atom (f, _) :: Rp _ :: rest ->
        if m = "" || not (m.[0] >= 'A' && m.[0] <= 'Z') then
          err l (Printf.sprintf "module name %S must be capitalized" m)
        else entries := (m, f, l) :: !entries;
        go rest
    | Lp l :: rest ->
        err l "malformed entry: expected (Module function)";
        let rec skip = function
          | Rp _ :: r -> r
          | _ :: r -> skip r
          | [] -> []
        in
        go (skip rest)
    | Atom (a, l) :: rest ->
        err l (Printf.sprintf "stray atom %S outside an entry" a);
        go rest
    | Rp l :: rest ->
        err l "unmatched )";
        go rest
  in
  go (tokenize text);
  (List.rev !entries, List.rev !errors)

(* ------------------------------------------------------------------ *)
(* Cold directives mark the branches (an [if] arm, or a
   [match]/[function]/[try] case body) that start on the comment's
   lines or on the line below it as off the hot path.  The rules skip
   such a branch and hotness does not propagate through it.  One that
   marks no branch is an unsuppressible "annotation" finding. *)

let start_line e = line_of e.pexp_loc

let marks_line (l0, l1) s = l0 <= s && s <= l1 + 1
let marks r e = marks_line r (start_line e)

(* One-level children of [e] minus the branches a cold directive marks. *)
let live_children ranges e =
  let live x = not (List.exists (fun r -> marks r x) ranges) in
  let cases cs =
    List.concat_map
      (fun c -> Option.to_list c.pc_guard @ List.filter live [ c.pc_rhs ])
      cs
  in
  match e.pexp_desc with
  | Pexp_ifthenelse (c, a, b) -> c :: List.filter live (a :: Option.to_list b)
  | Pexp_match (s, cs) | Pexp_try (s, cs) -> s :: cases cs
  | Pexp_function cs -> cases cs
  | _ -> sub_expressions e

(* Every branch start line of a unit, to find directives that mark
   nothing. *)
let branch_lines u =
  let out = ref [] in
  let add e = out := start_line e :: !out in
  walk_unit
    (fun e ->
      match e.pexp_desc with
      | Pexp_ifthenelse (_, a, b) ->
          add a;
          Option.iter add b
      | Pexp_match (_, cs) | Pexp_try (_, cs) | Pexp_function cs ->
          List.iter (fun c -> add c.pc_rhs) cs
      | _ -> ())
    u;
  !out

let cold_findings u =
  let lines = branch_lines u in
  List.filter_map
    (fun ((l0, _) as r) ->
      if List.exists (marks_line r) lines then None
      else
        Some
          {
            file = u.u_path;
            line = l0;
            rule = "annotation";
            msg =
              "cold directive marks no branch; put it on the line before an \
               if arm or a match case body";
          })
    u.u_allows.a_cold

(* ------------------------------------------------------------------ *)
(* Hot set: roster seeds plus transitive callees.  A reference from a
   hot function to another analyzed top-level function makes the callee
   hot too — calls, but also closures installed as callbacks, which is
   exactly how event handlers reach the engine.  A name bound by a
   parameter, a [let] or a case pattern shadows a top-level function of
   the same name inside its scope. *)

let pattern_vars p =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self q ->
          (match q.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> out := txt :: !out
          | _ -> ());
          Ast_iterator.default_iterator.pat self q);
    }
  in
  it.pat it p;
  !out

let referenced_fns fn_tbl b =
  let out = ref [] in
  let ranges = b.b_unit.u_allows.a_cold in
  let live x = not (List.exists (fun r -> marks r x) ranges) in
  let rec go locals e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } when List.mem x locals -> ()
    | Pexp_ident { txt; _ } ->
        let key =
          match resolve b.b_unit.u_aliases txt with
          | Some m, x -> (m, x)
          | None, x -> (b.b_mod, x)
        in
        if Hashtbl.mem fn_tbl key then out := key :: !out
    | Pexp_let (rf, vbs, body) ->
        let inner = List.concat_map (fun vb -> pattern_vars vb.pvb_pat) vbs @ locals in
        let rhs = if rf = Asttypes.Recursive then inner else locals in
        List.iter (fun vb -> go rhs vb.pvb_expr) vbs;
        go inner body
    | Pexp_fun (_, dflt, p, body) ->
        Option.iter (go locals) dflt;
        go (pattern_vars p @ locals) body
    | Pexp_function cs -> List.iter (case locals) cs
    | Pexp_match (s, cs) | Pexp_try (s, cs) ->
        go locals s;
        List.iter (case locals) cs
    | Pexp_for (p, lo, hi, _, body) ->
        go locals lo;
        go locals hi;
        go (pattern_vars p @ locals) body
    | _ -> List.iter (go locals) (live_children ranges e)
  and case locals c =
    let locals = pattern_vars c.pc_lhs @ locals in
    Option.iter (go locals) c.pc_guard;
    if live c.pc_rhs then go locals c.pc_rhs
  in
  go [] b.b_expr;
  !out

let hot_fixpoint fn_tbl bindings seeds =
  let hot = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace hot k ()) seeds;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if Hashtbl.mem hot (b.b_mod, b.b_name) then
          List.iter
            (fun k ->
              if not (Hashtbl.mem hot k) then begin
                Hashtbl.replace hot k ();
                changed := true
              end)
            (referenced_fns fn_tbl b))
      bindings
  done;
  hot

(* ------------------------------------------------------------------ *)
(* Rules.  All walks run over hot function bodies only. *)

let list_linear =
  [
    "length"; "nth"; "mem"; "memq"; "assoc"; "assq"; "mem_assoc";
    "mem_assq"; "find"; "find_opt"; "exists"; "append"; "rev_append";
  ]

(* Generic-[Hashtbl] operations that hash or compare keys with the
   polymorphic primitives.  Functor instances ([Stbl.find] where
   [module Stbl = Hashtbl.Make (String)]) resolve to the instance name
   and are silent by construction — which is exactly the fix. *)
let generic_tbl_ops =
  [ "find"; "find_opt"; "mem"; "replace"; "add"; "remove" ]

let alloc_builders =
  [
    ("Array", [ "make"; "create"; "init"; "of_list"; "copy"; "append"; "sub" ]);
    ("Bytes", [ "make"; "create"; "init"; "of_string"; "copy"; "sub" ]);
    ("Buffer", [ "create" ]);
    ("Queue", [ "create" ]);
    ("Hashtbl", [ "create" ]);
  ]

(* Callback argument position of the higher-order sinks checked by
   hot-partial: `First = first unlabelled argument, `Last = last. *)
let hof_sinks =
  [
    (("Engine", "schedule"), `Last);
    (("Engine", "schedule_at"), `Last);
    (("List", "iter"), `First);
    (("List", "map"), `First);
    (("List", "fold_left"), `First);
    (("Array", "iter"), `First);
    (("Array", "iteri"), `First);
    (("Hashtbl", "iter"), `First);
    (("Queue", "iter"), `First);
    (("Option", "iter"), `First);
  ]

(* A constructed operand makes [=]/[<>] a structural comparison for
   sure; identifiers of unknown type are left alone. *)
let structured_operand e =
  match (peel_wrappers e).pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct ({ txt; _ }, Some _) -> lid_last txt <> "()"
  | Pexp_construct ({ txt; _ }, None) ->
      List.mem (lid_last txt) [ "None"; "[]" ]
  | _ -> false

let nolabel_args args =
  List.filter_map
    (fun (lbl, a) ->
      match lbl with Asttypes.Nolabel -> Some a | _ -> None)
    args

(* ------------------------------------------------------------------ *)
(* Boxed stores.  A record whose fields are all [float] is stored flat,
   one unboxed double per field.  Any other record -- and every inline
   record of a constructor -- holds a [float], [int64], [int32] or
   [nativeint] field as a pointer to a box, so storing a freshly
   computed value into it allocates the box. *)

let boxed_scalars = [ "float"; "int64"; "int32"; "nativeint" ]

let scalar_type (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt = Longident.Lident s; _ }, []) when List.mem s boxed_scalars
    ->
      Some s
  | Ptyp_constr ({ txt = Longident.Ldot (Longident.Lident m, "t"); _ }, [])
    when List.mem (String.uncapitalize_ascii m) boxed_scalars ->
      Some (String.uncapitalize_ascii m)
  | _ -> None

(* (declaring module, field) -> scalar type of every mutable field whose
   store boxes.  A field name that the same module also declares
   unboxed somewhere is left out rather than guessed at. *)
let boxed_fields units =
  let boxed = Hashtbl.create 16 and flat = Hashtbl.create 16 in
  let record m ~inline labels =
    let all_float =
      (not inline)
      && List.for_all (fun l -> scalar_type l.pld_type = Some "float") labels
    in
    List.iter
      (fun l ->
        let key = (m, l.pld_name.txt) in
        match (l.pld_mutable, scalar_type l.pld_type) with
        | Asttypes.Mutable, Some ty when not all_float -> Hashtbl.replace boxed key ty
        | _ -> Hashtbl.replace flat key ())
      labels
  in
  let decl m d =
    match d.ptype_kind with
    | Ptype_record labels -> record m ~inline:false labels
    | Ptype_variant cs ->
        List.iter
          (fun c ->
            match c.pcd_args with
            | Pcstr_record labels -> record m ~inline:true labels
            | Pcstr_tuple _ -> ())
          cs
    | _ -> ()
  in
  let rec go m items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_type (_, decls) -> List.iter (decl m) decls
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure str; _ }; _ } ->
            go m str
        | _ -> ())
      items
  in
  List.iter
    (fun u -> match u.u_parsed with Impl str -> go u.u_mod str | _ -> ())
    units;
  Hashtbl.filter_map_inplace
    (fun key ty -> if Hashtbl.mem flat key then None else Some ty)
    boxed;
  boxed

(* ------------------------------------------------------------------ *)
(* String-keyed tables.  An operation on a [Hashtbl.Make (String)]
   instance hashes the key's characters and compares them on a hit; on
   the hot path a name is bound once to a key ([Stats.key]) or the table
   is keyed by an int or an address instead.  Instances are matched by
   name within the file that declares them, at any module depth. *)

let string_tables u =
  let out = ref [] in
  let rec go items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
            match pmb_expr.pmod_desc with
            | Pmod_apply
                ( { pmod_desc = Pmod_ident { txt = f; _ }; _ },
                  { pmod_desc = Pmod_ident { txt = Longident.Lident "String"; _ }; _ } )
              when Longident.flatten f = [ "Hashtbl"; "Make" ] ->
                out := name :: !out
            | Pmod_structure str -> go str
            | _ -> ())
        | _ -> ())
      items
  in
  (match u.u_parsed with Impl str -> go str | _ -> ());
  !out

let analyze_binding ~emit ~ranges ~boxed ~string_tables b =
  let who = b.b_mod ^ "." ^ b.b_name in
  let aliases = b.b_unit.u_aliases in
  let alloc loc what advice =
    emit (line_of loc) "hot-alloc"
      (Printf.sprintf "%s allocates %s per call on the hot path; %s" who what
         advice)
  in
  let check e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match resolve aliases txt with
        | Some m, op when List.mem m string_tables ->
            emit (line_of e.pexp_loc) "hot-string-key"
              (Printf.sprintf
                 "%s calls %s.%s, a Hashtbl.Make (String) table, on the hot \
                  path: every call hashes the key's characters and compares \
                  them on a hit; bind the name to a key once (Stats.key) or \
                  key the table by an int or an address"
                 who m op)
        | _ -> ())
    | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ ->
        alloc e.pexp_loc "a closure"
          "hoist it out of the per-event path or flatten the event \
           representation"
    | Pexp_tuple _ ->
        alloc e.pexp_loc "a tuple"
          "flatten it into separate arguments or parallel arrays"
    | Pexp_record _ ->
        alloc e.pexp_loc "a record"
          "use a structure-of-arrays or reuse a preallocated cell"
    | Pexp_array (_ :: _) ->
        alloc e.pexp_loc "an array literal" "preallocate or reuse buffers"
    | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some _) ->
        alloc e.pexp_loc "a list cell"
          "iterate the source directly instead of materializing a list"
    | Pexp_lazy _ ->
        alloc e.pexp_loc "a lazy block" "evaluate eagerly or precompute"
    | Pexp_setfield (_, { txt; _ }, _) -> (
        let key =
          match resolve aliases txt with
          | Some m, f -> (m, f)
          | None, f -> (b.b_unit.u_mod, f)
        in
        match Hashtbl.find_opt boxed key with
        | Some ty ->
            emit (line_of e.pexp_loc) "hot-boxed-store"
              (Printf.sprintf
                 "%s stores into mutable %s field %s of a record that is not \
                  all-float, so a store of a computed value allocates a box \
                  on the hot path; keep the value in an all-float record, a \
                  float array or a Bytes buffer"
                 who ty (snd key))
        | None -> ())
    | Pexp_apply (head, args) -> (
        match head.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            let callee = resolve aliases txt in
            (* hot-partial: a callback argument that is itself an
               application builds a fresh closure at every call. *)
            (match callee with
            | Some m, x -> (
                match List.assoc_opt (m, x) hof_sinks with
                | Some pos -> (
                    let cands = nolabel_args args in
                    let cb =
                      match (pos, cands) with
                      | `First, a :: _ -> Some a
                      | `Last, (_ :: _ as l) ->
                          Some (List.nth l (List.length l - 1))
                      | _, [] -> None
                    in
                    match cb with
                    | Some a when
                        (match (peel_wrappers a).pexp_desc with
                        | Pexp_apply _ -> true
                        | _ -> false) ->
                        emit (line_of a.pexp_loc) "hot-partial"
                          (Printf.sprintf
                             "%s passes a partially applied callback to \
                              %s.%s; the closure is rebuilt every call — \
                              bind it once outside the hot path"
                             who m x)
                    | _ -> ())
                | None -> ())
            | _ -> ());
            match callee with
            | None, "ref" ->
                alloc head.pexp_loc "a ref cell"
                  "use a mutable field or a preallocated cell"
            | None, "^" ->
                alloc head.pexp_loc "a string (^ concatenation)"
                  "precompute the string or write into a reused Buffer"
            | None, "@" ->
                emit (line_of head.pexp_loc) "hot-list"
                  (Printf.sprintf
                     "%s appends lists with @ (O(n) copy) on the hot path; \
                      accumulate differently or use an indexed structure"
                     who)
            | None, ("compare" | "min" | "max") ->
                emit (line_of head.pexp_loc) "hot-poly"
                  (Printf.sprintf
                     "%s calls polymorphic %s on the hot path; use a \
                      monomorphic comparison (Int.compare, Float.compare, \
                      String.compare)"
                     who (lid_last txt))
            | Some "Stdlib", ("compare" | "min" | "max") ->
                emit (line_of head.pexp_loc) "hot-poly"
                  (Printf.sprintf
                     "%s calls polymorphic Stdlib.%s on the hot path; use a \
                      monomorphic comparison"
                     who (lid_last txt))
            | None, (("=" | "<>") as op)
              when List.exists structured_operand (List.map snd args) ->
                emit (line_of head.pexp_loc) "hot-poly"
                  (Printf.sprintf
                     "%s applies structural %s to a constructed value on the \
                      hot path; match on the shape or compare fields \
                      monomorphically"
                     who op)
            | Some "Hashtbl", op when List.mem op generic_tbl_ops ->
                emit (line_of head.pexp_loc) "hot-poly"
                  (Printf.sprintf
                     "%s uses polymorphic-hash Hashtbl.%s on the hot path; \
                      instantiate Hashtbl.Make over the key type"
                     who op)
            | Some "List", op when List.mem op list_linear ->
                emit (line_of head.pexp_loc) "hot-list"
                  (Printf.sprintf
                     "%s calls List.%s (O(n)) on the hot path; use an \
                      indexed or constant-time structure"
                     who op)
            | Some (("String" | "Printf" | "Format") as m), x
              when (m = "String" && (x = "concat" || x = "cat"))
                   || (m = "Printf" && x = "sprintf")
                   || (m = "Format" && x = "asprintf") ->
                alloc head.pexp_loc
                  (Printf.sprintf "strings (%s.%s)" m x)
                  "precompute the string or write into a reused Buffer"
            | Some m, x
              when List.exists
                     (fun (bm, xs) -> bm = m && List.mem x xs)
                     alloc_builders ->
                alloc head.pexp_loc (m ^ "." ^ x)
                  "preallocate once and reuse across calls"
            | _ -> ())
        | _ -> ())
    | _ -> ()
  in
  let rec walk e =
    check e;
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_newtype _ -> walk (peel_funs e)
    | _ -> List.iter walk (live_children ranges e)
  in
  let body = peel_funs b.b_expr in
  match body.pexp_desc with
  | Pexp_function _ -> List.iter walk (live_children ranges body)
  | _ -> walk body

(* ------------------------------------------------------------------ *)
(* Assembly. *)

let fn_table bindings = fixpoint bindings (fun _ b -> is_function b.b_expr)

let seeds_of fn_tbl entries =
  List.filter_map
    (fun (m, f, _) -> if Hashtbl.mem fn_tbl (m, f) then Some (m, f) else None)
    entries

(* The hot set of [lib] under the roster [(path, text)], and the roster
   findings. *)
let hot_set ~roster lib =
  let roster_path, roster_text = roster in
  let bindings = List.concat_map collect_bindings lib in
  let fn_tbl = fn_table bindings in
  let entries, roster_errors = parse_roster roster_text in
  let roster_findings =
    List.map
      (fun (line, msg) -> { file = roster_path; line; rule = "roster"; msg })
      roster_errors
    @ List.filter_map
        (fun (m, f, line) ->
          if Hashtbl.mem fn_tbl (m, f) then None
          else
            Some
              {
                file = roster_path;
                line;
                rule = "roster";
                msg =
                  Printf.sprintf
                    "hotpaths entry %s.%s matches no top-level function in \
                     the analyzed tree; remove or fix the entry"
                    m f;
              })
        entries
  in
  let hot = hot_fixpoint fn_tbl bindings (seeds_of fn_tbl entries) in
  (bindings, hot, roster_findings)

let findings ~roster lib =
  let bindings, hot, roster_findings = hot_set ~roster lib in
  let boxed = boxed_fields lib in
  let tables = Hashtbl.create 16 in
  List.iter (fun u -> Hashtbl.replace tables u.u_path (string_tables u)) lib;
  let out = ref [] in
  List.iter
    (fun b ->
      if Hashtbl.mem hot (b.b_mod, b.b_name) && is_function b.b_expr then
        let emit line rule msg =
          out := { file = b.b_unit.u_path; line; rule; msg } :: !out
        in
        analyze_binding ~emit ~ranges:b.b_unit.u_allows.a_cold ~boxed
          ~string_tables:(Hashtbl.find tables b.b_unit.u_path)
          b)
    bindings;
  ( roster_findings @ !out
    @ List.concat_map
        (fun u ->
          (* An interface has no branches to mark. *)
          match u.u_parsed with
          | Impl _ -> cold_findings u
          | Intf _ | Fail _ -> [])
        lib,
    hot )
