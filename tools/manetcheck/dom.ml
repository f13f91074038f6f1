(* Domain-safety rules: lib/ must hold no state that OCaml 5 domains
   could share (top-level mutable values, lazy bindings, escaping memo
   tables, the process-global Random) and must touch the concurrency
   primitives only in the reviewed scheduler.  This is the certificate
   [manetsim sweep] relies on to fan runs across domains.  See
   check.mli for the catalogue. *)

open Parsetree
module C = Analyzer_common.Common
open C

let rules =
  [
    "toplevel-state"; "toplevel-lazy"; "escaping-memo"; "global-rng";
    "domain-primitive";
  ]

(* The one module allowed to touch the domain primitives: the reviewed
   fan-out scheduler.  Matched by path suffix so fixtures can opt in. *)
let domain_allowlisted path =
  Filename.basename path = "parallel.ml"
  && Filename.basename (Filename.dirname path) = "sim"

let domain_modules =
  [ "Domain"; "Atomic"; "Mutex"; "Condition"; "Semaphore"; "Thread" ]

(* ------------------------------------------------------------------ *)
(* Record mutability: collect (label set, has mutable field) for every
   record type declared anywhere in the analyzed tree (.ml and .mli),
   inline constructor records included.  A record literal is judged
   mutable only when at least one declaration matches its labels and
   every matching declaration has a mutable field, so label collisions
   between mutable and immutable types do not produce false
   positives. *)

let record_decls units =
  let out = ref [] in
  let record lds =
    let labels = List.map (fun ld -> ld.pld_name.Location.txt) lds in
    let has_mut =
      List.exists (fun ld -> ld.pld_mutable = Asttypes.Mutable) lds
    in
    out := (labels, has_mut) :: !out
  in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun self d ->
          (match d.ptype_kind with
          | Ptype_record lds -> record lds
          | Ptype_variant cs ->
              List.iter
                (fun c ->
                  match c.pcd_args with
                  | Pcstr_record lds -> record lds
                  | Pcstr_tuple _ -> ())
                cs
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration self d);
    }
  in
  List.iter
    (fun u ->
      match u.u_parsed with
      | Impl str -> it.structure it str
      | Intf sg -> it.signature it sg
      | Fail _ -> ())
    units;
  !out

let record_literal_mutable decls fields =
  let labels =
    List.map (fun (l, _) -> lid_last l.Location.txt) fields
  in
  let matching =
    List.filter
      (fun (ls, _) -> List.for_all (fun l -> List.mem l ls) labels)
      decls
  in
  matching <> [] && List.for_all (fun (_, m) -> m) matching

(* ------------------------------------------------------------------ *)
(* Mutable-allocation classifier.  Returns a human description of the
   first mutable allocation the expression evaluates to, peeling
   wrappers and looking through branches; [returns_mut] answers for
   full applications of local constructor functions (fixpoint below). *)

let mutable_builders =
  [
    ("Hashtbl", [ "create"; "copy"; "of_seq" ]);
    ("Queue", [ "create"; "copy"; "of_seq" ]);
    ("Buffer", [ "create" ]);
    ("Stack", [ "create"; "copy"; "of_seq" ]);
    ("Atomic", [ "make" ]);
    ("Weak", [ "create" ]);
    ( "Array",
      [
        "make"; "create"; "init"; "of_list"; "copy"; "make_matrix"; "append";
        "concat"; "sub";
      ] );
    ("Bytes", [ "make"; "create"; "init"; "of_string"; "copy"; "sub" ]);
  ]

let rec mutable_alloc ~decls ~aliases ~returns_mut e =
  let recur = mutable_alloc ~decls ~aliases ~returns_mut in
  match e.pexp_desc with
  | Pexp_constraint (x, _) | Pexp_coerce (x, _, _) | Pexp_open (_, x) ->
      recur x
  | Pexp_let (_, _, b) | Pexp_sequence (_, b) -> recur b
  | Pexp_array [] -> None (* zero cells: nothing to race on *)
  | Pexp_array _ -> Some "array literal"
  | Pexp_tuple xs -> List.find_map recur xs
  | Pexp_record (fields, base) ->
      if record_literal_mutable decls fields then
        Some "record with mutable fields"
      else (
        match List.find_map (fun (_, x) -> recur x) fields with
        | Some _ as r -> r
        | None -> Option.bind base recur)
  | Pexp_construct (_, Some x) | Pexp_variant (_, Some x) -> recur x
  | Pexp_ifthenelse (_, t, eo) -> (
      match recur t with Some _ as r -> r | None -> Option.bind eo recur)
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.find_map (fun c -> recur c.pc_rhs) cases
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match resolve aliases txt with
      | None, "ref" -> Some "ref cell"
      | Some m, x ->
          if
            List.exists
              (fun (bm, xs) -> bm = m && List.mem x xs)
              mutable_builders
          then Some (m ^ "." ^ x)
          else if returns_mut (Some m, x) then
            Some
              (Printf.sprintf "call to %s.%s, which returns mutable state" m x)
          else None
      | None, x ->
          if returns_mut (None, x) then
            Some (Printf.sprintf "call to %s, which returns mutable state" x)
          else None)
  | _ -> None

let rec strip_lets e =
  match e.pexp_desc with
  | Pexp_let (_, _, b) | Pexp_sequence (_, b) -> strip_lets b
  | Pexp_constraint (x, _) | Pexp_open (_, x) -> strip_lets x
  | _ -> e

(* Constructor-function fixpoint: a top-level function "returns mutable
   state" when, after peeling its parameters, some evaluation path ends
   in a mutable allocation or a full application of another such
   function.  This lets [let make () = Hashtbl.create 64] taint
   [let registry = make ()] even across modules. *)
let returns_mut_fixpoint decls tops =
  let tbl =
    fixpoint tops (fun tbl t ->
        let member = function
          | None, x -> Hashtbl.mem tbl (t.b_mod, x)
          | Some m, x -> Hashtbl.mem tbl (m, x)
        in
        is_function t.b_expr
        && mutable_alloc ~decls ~aliases:t.b_unit.u_aliases ~returns_mut:member
             (peel_funs t.b_expr)
           <> None)
  in
  fun b_mod c ->
    match c with
    | None, x -> Hashtbl.mem tbl (b_mod, x)
    | Some m, x -> Hashtbl.mem tbl (m, x)

(* ------------------------------------------------------------------ *)
(* Rules (a)+(b): top-level mutable state, lazy bindings, escaping memo
   tables. *)

let toplevel_findings decls returns_mut tops =
  let out = ref [] in
  let emit t line rule msg =
    out := { file = t.b_unit.u_path; line; rule; msg } :: !out
  in
  List.iter
    (fun t ->
      let alloc e =
        mutable_alloc ~decls ~aliases:t.b_unit.u_aliases
          ~returns_mut:(returns_mut t.b_mod) e
      in
      let e = peel_wrappers t.b_expr in
      (* A plain function value holds no state of its own; lets inside
         its body allocate per call. *)
      if not (is_function e) then begin
        (* The memo-table idiom: a let-chain that allocates mutable
           state and then evaluates to a closure capturing it.  The
           allocation happens once, at module init. *)
        let mut_locals = Hashtbl.create 4 in
        let rec memo_chain e =
          match e.pexp_desc with
          | Pexp_let (_, vbs, body) ->
              let body_is_closure = is_function (strip_lets body) in
              List.iter
                (fun vb ->
                  match alloc vb.pvb_expr with
                  | Some what ->
                      (match binding_name vb.pvb_pat with
                      | Some n -> Hashtbl.replace mut_locals n what
                      | None -> ());
                      if body_is_closure then
                        emit t (line_of vb.pvb_loc)
                          "escaping-memo"
                          (Printf.sprintf
                             "%s allocated at module init escapes into the \
                              closure %s.%s; every domain shares one table"
                             what t.b_mod t.b_name)
                  | None -> ())
                vbs;
              memo_chain body
          | Pexp_constraint (x, _) | Pexp_open (_, x) -> memo_chain x
          | _ -> ()
        in
        memo_chain e;
        let final = peel_wrappers (strip_lets e) in
        match final.pexp_desc with
        | Pexp_lazy _ ->
            emit t t.b_line "toplevel-lazy"
              (Printf.sprintf
                 "top-level lazy %s.%s: forcing is not atomic across \
                  domains; make it a per-scenario value"
                 t.b_mod t.b_name)
        | Pexp_ident { txt = Longident.Lident n; _ }
          when Hashtbl.mem mut_locals n ->
            emit t t.b_line "toplevel-state"
              (Printf.sprintf
                 "top-level mutable value %s.%s (%s bound in its own let \
                  chain) is shared by every domain"
                 t.b_mod t.b_name (Hashtbl.find mut_locals n))
        | _ when is_function final -> ()
        | _ -> (
            match alloc e with
            | Some what ->
                emit t t.b_line "toplevel-state"
                  (Printf.sprintf
                     "top-level mutable value %s.%s (%s) is shared by every \
                      domain; allocate it per scenario or prove it read-only"
                     t.b_mod t.b_name what)
            | None -> ())
      end)
    tops;
  !out

(* ------------------------------------------------------------------ *)
(* Rule (c): global RNG. *)

let rng_ident aliases txt =
  match resolve aliases txt with
  | Some "Random", x ->
      Some
        (Printf.sprintf
           "Random.%s draws from the process-global RNG; split the \
            engine's Prng instead"
           x)
  | Some "State", "make_self_init" ->
      Some
        "Random.State.make_self_init seeds from the environment; derive \
         the state from the run seed"
  | _ -> None

let global_rng_direct u =
  let out = ref [] in
  walk_unit
    (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; loc } ->
          Option.iter
            (fun msg ->
              let line = line_of loc in
              out :=
                { file = u.u_path; line; rule = "global-rng"; msg } :: !out)
            (rng_ident u.u_aliases txt)
      | _ -> ())
    u;
  !out

(* Call-graph reachability: exported functions that can reach a
   global-RNG user through local calls without using it directly
   themselves (direct uses are already reported at the use site). *)
let rng_reach_findings units tops =
  let idents_of t =
    let acc = ref [] in
    walk_expr
      (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; _ } -> acc := resolve t.b_unit.u_aliases txt :: !acc
        | _ -> ())
      t.b_expr;
    !acc
  in
  let direct =
    fixpoint tops (fun _ t ->
        List.exists
          (function
            | Some "Random", _ | Some "State", "make_self_init" -> true
            | _ -> false)
          (idents_of t))
  in
  let reach =
    fixpoint
      ~init:(Hashtbl.fold (fun k () acc -> k :: acc) direct [])
      tops
      (fun reach t ->
        List.exists
          (function
            | None, x -> Hashtbl.mem reach (t.b_mod, x)
            | Some m, x -> Hashtbl.mem reach (m, x))
          (idents_of t))
  in
  let exported = Hashtbl.create 64 in
  List.iter
    (fun u ->
      match u.u_parsed with
      | Intf sg ->
          List.iter
            (fun item ->
              match item.psig_desc with
              | Psig_value vd ->
                  Hashtbl.replace exported (u.u_mod, vd.pval_name.Location.txt)
                    ()
              | _ -> ())
            sg
      | _ -> ())
    units;
  List.filter_map
    (fun t ->
      if
        Hashtbl.mem reach (t.b_mod, t.b_name)
        && (not (Hashtbl.mem direct (t.b_mod, t.b_name)))
        && Hashtbl.mem exported (t.b_mod, t.b_name)
      then
        Some
          {
            file = t.b_unit.u_path;
            line = t.b_line;
            rule = "global-rng";
            msg =
              Printf.sprintf
                "exported %s.%s reaches the process-global Random through \
                 its call graph; thread an engine Prng down instead"
                t.b_mod t.b_name;
          }
      else None)
    tops

(* ------------------------------------------------------------------ *)
(* Rule (d): domain primitives outside the sanctioned scheduler. *)

let domain_findings u =
  if domain_allowlisted u.u_path then []
  else
    let out = ref [] in
    let emit line m x =
      out :=
        {
          file = u.u_path;
          line;
          rule = "domain-primitive";
          msg =
            Printf.sprintf
              "%s outside lib/sim/parallel.ml: concurrency primitives \
               belong only in the sanctioned scheduler"
              (match x with Some x -> m ^ "." ^ x | None -> "open " ^ m);
        }
        :: !out
    in
    (match u.u_parsed with
    | Impl str ->
        let check_open loc lid =
          let m = lid_last lid in
          let m =
            match Hashtbl.find_opt u.u_aliases m with Some r -> r | None -> m
          in
          if List.mem m domain_modules then
            emit (line_of loc) m None
        in
        let it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun self e ->
                (match e.pexp_desc with
                | Pexp_ident { txt; loc } -> (
                    match resolve u.u_aliases txt with
                    | Some m, x when List.mem m domain_modules ->
                        emit (line_of loc) m (Some x)
                    | _ -> ())
                | _ -> ());
                Ast_iterator.default_iterator.expr self e);
            open_declaration =
              (fun self od ->
                (match od.popen_expr.pmod_desc with
                | Pmod_ident { txt; _ } -> check_open od.popen_loc txt
                | _ -> ());
                Ast_iterator.default_iterator.open_declaration self od);
            module_binding =
              (fun self mb ->
                (match (mb.pmb_name.Location.txt, mb.pmb_expr.pmod_desc) with
                | Some _, Pmod_ident { txt; _ } ->
                    let m = lid_last txt in
                    if List.mem m domain_modules then
                      emit (line_of mb.pmb_loc) m None
                | _ -> ());
                Ast_iterator.default_iterator.module_binding self mb);
          }
        in
        it.structure it str
    | _ -> ());
    List.rev !out

(* ------------------------------------------------------------------ *)
(* Assembly, over the analyzed lib units. *)

let findings lib =
  let decls = record_decls lib in
  let tops = List.concat_map collect_bindings lib in
  let returns_mut = returns_mut_fixpoint decls tops in
  toplevel_findings decls returns_mut tops
  @ List.concat_map global_rng_direct lib
  @ rng_reach_findings lib tops
  @ List.concat_map domain_findings lib
