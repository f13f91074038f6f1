(* Project conventions: type and error hygiene (obj-magic, catch-all,
   failwith, obs-no-printf, poly-compare), signing sites
   (placeholder-sig), telemetry attribution (audit-counter,
   schedule-label, flood-origin-label) and the shape of the tree
   (scenario-keyword, mli-coverage).  See check.mli for the
   catalogue. *)

open Parsetree
module C = Analyzer_common.Common
open C

let rules =
  [
    "obj-magic"; "catch-all"; "failwith"; "obs-no-printf"; "poly-compare";
    "placeholder-sig"; "audit-counter"; "schedule-label"; "flood-origin-label";
    "scenario-keyword"; "mli-coverage";
  ]

let under dirs u =
  List.exists (fun d -> String.starts_with ~prefix:(d ^ "/") u.u_path) dirs

(* [resolve], with [Stdlib.x] read as a bare [x]. *)
let callee u lid =
  match resolve u.u_aliases lid with Some "Stdlib", x -> (None, x) | c -> c

let name = function Some m, x -> m ^ "." ^ x | None, x -> x

(* Library code must not write to stdout: human-facing output belongs
   to bin/ and bench/, and library telemetry goes through the Trace/Obs
   sinks (or is returned as a string) so it stays queryable and
   replay-deterministic.  [Printf.sprintf] and the [Format.pp_*]
   combinators build values and stay fine. *)
let printers =
  [
    (Some "Printf", "printf"); (Some "Printf", "eprintf");
    (Some "Format", "printf"); (Some "Format", "eprintf");
    (None, "print_endline"); (None, "print_string"); (None, "print_newline");
    (None, "prerr_endline");
  ]

let addr_fields =
  [
    "sip"; "dip"; "src"; "dst"; "reporter"; "broken_next"; "origin"; "target";
    "requester"; "cacher"; "old_ip"; "new_ip"; "ip";
  ]

(* A counter whose name says "rejected", "replayed", "suspected", ...
   carries the information of a security audit event with none of its
   structure (subject, cause, an entry in the stream the misbehaviour
   detector reads).  Under the protocol layers such counters are bumped
   through [Node_ctx.audit] / [Audit.emit] with [~stats], never with a
   raw [Ctx.stat] / [Stats.incr].  A counter is named by a key made once
   ([Stats.key "name"]); the rule reads the name through the binding. *)
let audit_markers =
  [
    "reject"; "replay"; "suspect"; "slash"; "forged"; "hostile"; "mismatch";
    "implausible"; "conflict"; "collision"; "duplicate";
  ]

let string_const e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

let is_ctx = function Some ("Ctx" | "Node_ctx") -> true | _ -> false

let stats_key u e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, a) ])
    when callee u txt = (Some "Stats", "key") ->
      string_const a
  | _ -> None

(* The counter name of each key a unit binds, at top level or in a
   submodule, by (module, binding). *)
let key_names u =
  List.filter_map
    (fun b -> Option.map (fun n -> ((b.b_mod, b.b_name), n)) (stats_key u b.b_expr))
    (collect_bindings u)

(* The counter name a [stat]/[incr] argument denotes: a literal, an
   inline [Stats.key "name"], or a key bound in this unit. *)
let counter_name u keys a =
  match (string_const a, a.pexp_desc) with
  | Some s, _ -> Some s
  | None, Pexp_ident { txt; _ } -> (
      match resolve u.u_aliases txt with
      | Some m, x -> List.assoc_opt (m, x) keys
      | None, x -> List.assoc_opt (u.u_mod, x) keys)
  | None, _ -> stats_key u a

(* The per-expression rules of one analyzed unit.  [hot] are the line
   ranges of the unit's hot functions, where hot-poly owns compares. *)
let expr_findings ~hot u =
  let out = ref [] in
  let emit loc rule msg =
    out := { file = u.u_path; line = line_of loc; rule; msg } :: !out
  in
  let lib = in_lib u in
  let protocol = under [ "lib/dad"; "lib/dns"; "lib/dsr"; "lib/secure" ] u in
  let keys = if protocol then key_names u else [] in
  let signing = under [ "lib/secure"; "lib/dad"; "lib/dns" ] u in
  let cold_compare loc =
    let l = line_of loc in
    lib && not (List.exists (fun (a, b) -> a <= l && l <= b) hot)
  in
  (* A module defining its own [compare] may use it below the
     definition. *)
  let own_compare =
    List.fold_left
      (fun acc b -> if b.b_name = "compare" then min acc b.b_line else acc)
      max_int (collect_bindings u)
  in
  let placeholder (lid : Longident.t Location.loc) e =
    let f = lid_last lid.txt in
    if
      signing
      && String.starts_with ~prefix:"sig_" f
      && string_const e = Some ""
    then
      emit lid.loc "placeholder-sig"
        (Printf.sprintf
           "placeholder %s = \"\" in a security-critical layer; sign the \
            payload or annotate the designated signing site"
           f)
  in
  let addr_operand e =
    match e.pexp_desc with
    | Pexp_field (_, { txt; _ }) | Pexp_ident { txt = Lident _ as txt; _ } ->
        List.mem (lid_last txt) addr_fields
    | _ -> false
  in
  walk_unit
    (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
          match callee u txt with
          | _ when resolve u.u_aliases txt = (Some "Stdlib", "compare") ->
              if cold_compare loc then
                emit loc "poly-compare"
                  "Stdlib.compare is polymorphic; use the dedicated compare \
                   of the values' type"
          | Some "Obj", "magic" ->
              emit loc "obj-magic"
                "Obj.magic defeats the type system; find a typed encoding"
          | None, "failwith" when lib ->
              emit loc "failwith"
                "failwith under lib/ — raise a documented typed exception or \
                 return a Result"
          | c when lib && List.mem c printers ->
              emit loc "obs-no-printf"
                (Printf.sprintf
                   "%s under lib/ bypasses the Trace/Obs sinks; return a \
                    string or log through the telemetry layer"
                   (name c))
          | None, "compare" when cold_compare loc && line_of loc < own_compare
            ->
              emit loc "poly-compare"
                "bare polymorphic compare; use Address.compare / Int.compare \
                 / String.compare"
          | _ -> ())
      | (Pexp_try (_, c :: _) | Pexp_match (_, c :: _))
        when c.pc_guard = None && c.pc_lhs.ppat_desc = Ppat_any ->
          emit c.pc_lhs.ppat_loc "catch-all"
            "catch-all `with _ ->` swallows unexpected exceptions/cases; \
             match the constructors you mean"
      | Pexp_record (fields, _) ->
          List.iter (fun (l, x) -> placeholder l x) fields
      | Pexp_let (_, vbs, _) ->
          List.iter
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var v ->
                  placeholder
                    { v with txt = Longident.Lident v.txt }
                    vb.pvb_expr
              | _ -> ())
            vbs
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) when lib
        -> (
          match (callee u txt, args) with
          | (None, (("=" | "<>") as op)), [ (_, l); (_, r) ]
            when addr_operand l && addr_operand r && cold_compare loc ->
              emit loc "poly-compare"
                (Printf.sprintf
                   "polymorphic %s on address-typed fields; use Address.equal"
                   op)
          | (Some "Engine", ("schedule" | "schedule_at")), _
            when not (List.mem_assoc (Asttypes.Labelled "label") args) ->
              emit loc "schedule-label"
                (Printf.sprintf
                   "%s without ~label files its events under \"other\"; name \
                    the scheduling subsystem so perf counters and profiles \
                    can attribute it"
                   (name (callee u txt)))
          | ((m, ("stat" | "stat_by")) | ((Some "Stats" as m), ("incr" | "add"))), _
            when protocol && (is_ctx m || m = Some "Stats") -> (
              match List.find_map (fun (_, a) -> counter_name u keys a) args with
              | Some counter
                when List.exists
                       (contains (String.lowercase_ascii counter))
                       audit_markers ->
                  emit loc "audit-counter"
                    (Printf.sprintf
                       "security-shaped counter %S bumped directly; emit the \
                        typed event instead (Node_ctx.audit / Audit.emit \
                        with ~stats keeps the counter and feeds the audit \
                        stream)"
                       counter)
              | _ -> ())
          | _ -> ())
      | _ -> ())
    u;
  !out

(* Every broadcast the flooding protocols (DAD AREQ, DSR / secure / SRP
   RREQ) put on the air must be visible to the flood-provenance
   registry: a [Flood.] call has to precede the [Ctx.broadcast] in the
   same top-level function (inline, or inside the relay closure), or
   the per-flood accounting under-counts and skews the
   duplicate-verify and redundancy metrics. *)
let flood_findings u =
  if not (under [ "lib/dad"; "lib/dsr"; "lib/secure" ] u) then []
  else
    List.concat_map
      (fun b ->
        let floods = ref [] and casts = ref [] in
        let pos loc = loc.Location.loc_start.Lexing.pos_cnum in
        walk_expr
          (fun e ->
            match e.pexp_desc with
            | Pexp_ident { txt; loc } -> (
                if List.mem "Flood" (Longident.flatten txt) then
                  floods := pos loc :: !floods;
                match callee u txt with
                | m, "broadcast" when is_ctx m -> casts := loc :: !casts
                | _ -> ())
            | _ -> ())
          b.b_expr;
        List.filter_map
          (fun loc ->
            if List.exists (fun p -> p < pos loc) !floods then None
            else
              Some
                {
                  file = u.u_path;
                  line = line_of loc;
                  rule = "flood-origin-label";
                  msg =
                    "Ctx.broadcast without a preceding Flood. recording call: \
                     this copy is invisible to the flood provenance \
                     accounting; record it (Flood.handle/sent) or allow with \
                     a rationale";
                })
          !casts)
      (collect_bindings u)

(* The scenario grammar's vocabulary lives in one table: schema.ml's
   keyword-shaped literals are the table, and another lib/scenario
   module spelling one of them as a fresh literal (instead of naming
   the Schema constant) forks the grammar the moment either changes. *)
let string_literals u =
  let out = ref [] in
  let lit loc = function
    | Pconst_string (s, _, _) -> out := (s, line_of loc) :: !out
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_constant c -> lit e.pexp_loc c
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_constant c -> lit p.ppat_loc c
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  (match u.u_parsed with Impl str -> it.structure it str | _ -> ());
  !out

let keyword_shaped s =
  String.length s >= 2
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false)
       s

let scenario_findings units =
  let scn =
    List.filter
      (fun u ->
        under [ "lib/scenario" ] u && Filename.check_suffix u.u_path ".ml")
      units
  in
  let finding u line msg =
    { file = u.u_path; line; rule = "scenario-keyword"; msg }
  in
  let is_schema u = Filename.basename u.u_path = "schema.ml" in
  match (scn, List.find_opt is_schema scn) with
  | [], _ -> []
  | u :: _, None ->
      [
        finding u 1
          "lib/scenario has no schema.ml keyword table; the scenario \
           grammar's vocabulary must live in one file";
      ]
  | _, Some table ->
      let vocab =
        List.filter_map
          (fun (s, _) -> if keyword_shaped s then Some s else None)
          (string_literals table)
      in
      List.concat_map
        (fun u ->
          if is_schema u then []
          else
            List.filter_map
              (fun (s, line) ->
                if List.mem s vocab then
                  Some
                    (finding u line
                       (Printf.sprintf
                          "scenario keyword %S spelled as a stray literal; \
                           reference the Schema constant (the grammar's \
                           vocabulary lives in schema.ml alone)"
                          s))
                else None)
              (string_literals u))
        scn

let mli_findings units =
  List.filter_map
    (fun u ->
      if
        in_lib u
        && Filename.check_suffix u.u_path ".ml"
        && not (List.exists (fun v -> v.u_path = u.u_path ^ "i") units)
      then
        Some
          {
            file = u.u_path;
            line = 1;
            rule = "mli-coverage";
            msg =
              "lib module has no .mli; every lib/** module must declare its \
               interface";
          }
      else None)
    units

(* [analyzed] are lib, bin and test; [hot] the hot set. *)
let findings ~hot analyzed =
  let hot_lines u =
    List.filter_map
      (fun b ->
        if Hashtbl.mem hot (b.b_mod, b.b_name) then
          Some
            ( line_of b.b_expr.pexp_loc,
              b.b_expr.pexp_loc.Location.loc_end.Lexing.pos_lnum )
        else None)
      (collect_bindings u)
  in
  List.concat_map
    (fun u -> expr_findings ~hot:(hot_lines u) u @ flood_findings u)
    analyzed
  @ scenario_findings analyzed
  @ mli_findings analyzed
