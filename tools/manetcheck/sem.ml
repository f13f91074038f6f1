(* Security-argument rules: verify-before-use (taint, security),
   dispatch coverage, codec sign/verify pairing, wire-schema
   consistency, semantic determinism, and dead and test-only exports.
   See check.mli for the catalogue. *)

open Parsetree
module C = Analyzer_common.Common
open C

let rules =
  [
    "taint"; "security"; "dispatch"; "codec"; "proto-schema"; "determinism";
    "dead-export"; "test-only-export";
  ]

(* ------------------------------------------------------------------ *)
(* Verify-before-use taint. *)

let signed_ctors =
  [
    "Arep"; "Drep"; "Rreq"; "Rrep"; "Crep"; "Rerr"; "Probe_reply";
    "Name_reply"; "Ip_change_proof";
  ]

let named_sinks =
  [
    ("Route_cache", [ "insert"; "remove_link"; "remove_route"; "remove_containing" ]);
    ("Credit", [ "slash"; "reward_route"; "record_rerr" ]);
    ("Directory", [ "register"; "unregister" ]);
    ("Identity", [ "refresh_address" ]);
  ]

let state_fields =
  [
    "table"; "pending_by_sip"; "pending_by_dn"; "pending_changes";
    "stashed_warnings"; "trusted"; "reg_cancelled"; "p_resolved";
  ]

(* MAC recomputation counts as verification: SRP checks replies by
   recomputing [*_mac] over the received fields and comparing. *)
let name_is_verifier n =
  contains n "verify" || contains n "cga_check"
  || Filename.check_suffix n "_mac"

(* A callee verifies when its name does or it is in the verifier
   fixpoint [vset]. *)
let verifier vset = function
  | Some m, x -> name_is_verifier x || Hashtbl.mem vset (m, x)
  | None, x -> name_is_verifier x

type scan_env = {
  sv_self : string;
  sv_aliases : (string, string) Hashtbl.t;
  sv_is_verifier : string option * string -> bool;
  sv_is_sinky : string option * string -> bool;
  sv_sink : string -> Location.t -> string -> unit;
}

(* The environment of binding [f] with no verifier, sink or report. *)
let plain_env f =
  {
    sv_self = f.b_mod;
    sv_aliases = f.b_unit.u_aliases;
    sv_is_verifier = (fun _ -> false);
    sv_is_sinky = (fun _ -> false);
    sv_sink = (fun _ _ _ -> ());
  }

let callee_of env head =
  match head.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match resolve env.sv_aliases txt with
      | None, x -> Some (Some env.sv_self, x)
      | r -> Some r)
  | Pexp_field (_, { txt; _ }) -> Some (None, lid_last txt)
  | _ -> None

let callee_str = function
  | Some m, x -> m ^ "." ^ x
  | None, x -> x

let first_positional args =
  List.find_map
    (fun (lbl, a) ->
      match lbl with Asttypes.Nolabel -> Some a | _ -> None)
    args

let primitive_sink callee args =
  match callee with
  | Some m, x
    when List.exists
           (fun (sm, xs) -> sm = m && List.mem x xs)
           named_sinks ->
      Some ("sink " ^ m ^ "." ^ x)
  | Some "Hashtbl", (("replace" | "add") as x) -> (
      match first_positional args with
      | Some { pexp_desc = Pexp_field (_, { txt; _ }); _ }
        when List.mem (lid_last txt) state_fields ->
          Some
            ("Hashtbl." ^ x ^ " on state field " ^ lid_last txt)
      | _ -> None)
  | _ -> None

let pattern_binds p =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self q ->
          (match q.ppat_desc with
          | Ppat_var _ | Ppat_alias _ -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.pat self q);
    }
  in
  it.pat it p;
  !found

(* A case taints when its pattern destructures a signed constructor and
   actually binds part of the payload; a bare [Ctor _] dispatch pattern
   is not a taint source. *)
let taint_ctor pat =
  let found = ref None in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self q ->
          (match q.ppat_desc with
          | Ppat_construct ({ txt; _ }, Some (_, arg)) ->
              let name = lid_last txt in
              if List.mem name signed_ctors && pattern_binds arg
                 && !found = None
              then found := Some name
          | _ -> ());
          Ast_iterator.default_iterator.pat self q);
    }
  in
  it.pat it pat;
  !found

(* The core threading scan.  [v] is "a verifier has run on this path";
   joins are may-joins (any branch verifying blesses the continuation),
   which keeps false positives down at the cost of missing flows that
   verify on one branch only — the rule is a regression tripwire, not a
   soundness proof.  Returns the verified state after [e]. *)
let rec scan env ~tainted v e =
  match e.pexp_desc with
  | Pexp_let (_, vbs, body) ->
      let v =
        List.fold_left (fun v vb -> scan env ~tainted v vb.pvb_expr) v vbs
      in
      scan env ~tainted v body
  | Pexp_sequence (a, b) -> scan env ~tainted (scan env ~tainted v a) b
  | Pexp_ifthenelse (c, t, eo) ->
      let vc = scan env ~tainted v c in
      let vt = scan env ~tainted vc t in
      let ve =
        match eo with Some x -> scan env ~tainted vc x | None -> vc
      in
      vc || vt || ve
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
      let vs = scan env ~tainted v s in
      List.fold_left (fun acc c -> acc || scan_case env ~tainted vs c) vs cases
  | Pexp_function cases ->
      List.iter (fun c -> ignore (scan_case env ~tainted v c)) cases;
      v
  | Pexp_fun (_, dflt, _, body) ->
      (match dflt with
      | Some d -> ignore (scan env ~tainted v d)
      | None -> ());
      ignore (scan env ~tainted v body);
      v
  | Pexp_apply (head, args) ->
      let v_args =
        List.fold_left (fun v (_, a) -> scan env ~tainted v a) v args
      in
      let v_args =
        match head.pexp_desc with
        | Pexp_ident _ -> v_args
        | Pexp_field (b, _) -> scan env ~tainted v_args b
        | _ -> scan env ~tainted v_args head
      in
      let callee = callee_of env head in
      let verifies =
        match callee with Some c -> env.sv_is_verifier c | None -> false
      in
      (match (callee, tainted) with
      | Some c, Some ctor when not v_args -> (
          match primitive_sink c args with
          | Some desc ->
              env.sv_sink ctor head.pexp_loc desc
          | None ->
              if env.sv_is_sinky c then
                env.sv_sink ctor head.pexp_loc
                  (callee_str c ^ ", which mutates protocol state"))
      | _ -> ());
      v_args || verifies
  | Pexp_setfield (obj, fld, value) ->
      let v' = scan env ~tainted (scan env ~tainted v obj) value in
      let fname = lid_last fld.Location.txt in
      (match tainted with
      | Some ctor when (not v') && List.mem fname state_fields ->
          env.sv_sink ctor e.pexp_loc ("mutation of state field " ^ fname)
      | _ -> ());
      v'
  | _ -> List.fold_left (fun v x -> scan env ~tainted v x) v (sub_expressions e)

and scan_case env ~tainted v c =
  let t' =
    match taint_ctor c.pc_lhs with Some ctor -> Some ctor | None -> tainted
  in
  let vg =
    match c.pc_guard with
    | Some g -> scan env ~tainted:t' v g
    | None -> v
  in
  scan env ~tainted:t' vg c.pc_rhs

(* Verifier fixpoint: a function verifies if its body applies something
   whose name contains "verify" (Suite.verify, Cga.verify, hand-rolled
   verify_* helpers) or another member of the set. *)
let verifier_fixpoint fns =
  fixpoint fns (fun vset f ->
      let env = plain_env f and hit = ref false in
      walk_expr
        (fun e ->
          match e.pexp_desc with
          | Pexp_apply (head, _) -> (
              match callee_of env head with
              | Some c when verifier vset c -> hit := true
              | _ -> ())
          | _ -> ())
        f.b_expr;
      !hit)

(* Unguarded-sink fixpoint: a function is "sinky" when some path through
   its body reaches a state-mutating sink (or a sinky callee) without a
   verifier having run first.  Calling one of these from a taint arm
   without prior verification is exactly the bug class of §3.3/§3.4. *)
let is_sinky sinky = function
  | Some m, x -> Hashtbl.mem sinky (m, x)
  | None, _ -> false

let sinky_fixpoint fns vset =
  fixpoint fns (fun sinky f ->
      let hit = ref false in
      let env =
        {
          (plain_env f) with
          sv_is_verifier = verifier vset;
          sv_is_sinky = is_sinky sinky;
          sv_sink = (fun _ _ _ -> hit := true);
        }
      in
      ignore (scan env ~tainted:(Some "summary") false f.b_expr);
      !hit)

let taint_findings fns vset sinky =
  let out = ref [] in
  List.iter
    (fun f ->
      let env =
        {
          (plain_env f) with
          sv_is_verifier = verifier vset;
          sv_is_sinky = is_sinky sinky;
          sv_sink =
            (fun ctor loc desc ->
              out :=
                {
                  file = f.b_unit.u_path;
                  line = line_of loc;
                  rule = "taint";
                  msg =
                    Printf.sprintf "unverified %s payload reaches %s" ctor
                      desc;
                }
                :: !out);
        }
      in
      ignore (scan env ~tainted:None false f.b_expr))
    fns;
  !out

(* ------------------------------------------------------------------ *)
(* Security: a handler arm that destructures a signed message's record
   must mention a verifier — a verify/cga_check/_mac name or a member
   of the verifier fixpoint — in its guard or body.  Unlike taint,
   which follows the fields into state-mutating sinks, this holds every
   arm of a handler to the check, whatever it does with the fields. *)

let handler_prefixes =
  [ "handle"; "consume"; "observe"; "serve"; "receive"; "on_" ]

let signed_record p =
  let found = ref None in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self q ->
          (match q.ppat_desc with
          | Ppat_construct
              ({ txt; _ }, Some (_, { ppat_desc = Ppat_record _; _ }))
            when List.mem (lid_last txt) signed_ctors && !found = None ->
              found := Some (lid_last txt, line_of q.ppat_loc)
          | _ -> ());
          Ast_iterator.default_iterator.pat self q);
    }
  in
  it.pat it p;
  !found

let security_findings fns vset =
  List.concat_map
    (fun f ->
      let env = plain_env f and out = ref [] in
      let mentions_verifier e =
        let hit = ref false in
        walk_expr
          (fun x ->
            match callee_of env x with
            | Some c when verifier vset c -> hit := true
            | _ -> ())
          e;
        !hit
      in
      let arm c =
        match signed_record c.pc_lhs with
        | Some (ctor, line)
          when not
                 (List.exists mentions_verifier
                    (Option.to_list c.pc_guard @ [ c.pc_rhs ])) ->
            out :=
              {
                file = f.b_unit.u_path;
                line;
                rule = "security";
                msg =
                  Printf.sprintf
                    "handler %s destructures signed %s without calling a \
                     verify/cga_check function in the arm"
                    f.b_name ctor;
              }
              :: !out
        | _ -> ()
      in
      if
        List.exists
          (fun p -> String.starts_with ~prefix:p f.b_name)
          handler_prefixes
      then
        walk_expr
          (fun e ->
            match e.pexp_desc with
            | Pexp_match (_, cs) | Pexp_try (_, cs) | Pexp_function cs ->
                List.iter arm cs
            | _ -> ())
          f.b_expr;
      !out)
    fns

(* ------------------------------------------------------------------ *)
(* Dispatch coverage. *)

(* The lib's messages.mli and the (name, line) of each constructor of
   its [type t]. *)
let messages_ctors units =
  let from_sig sg =
    List.find_map
      (fun item ->
        match item.psig_desc with
        | Psig_type (_, decls) ->
            List.find_map
              (fun d ->
                match (d.ptype_name.Location.txt, d.ptype_kind) with
                | "t", Ptype_variant cds ->
                    Some
                      (List.map
                         (fun cd ->
                           (cd.pcd_name.Location.txt, line_of cd.pcd_loc))
                         cds)
                | _ -> None)
              decls
        | _ -> None)
      sg
  in
  List.find_map
    (fun u ->
      match u.u_parsed with
      | Intf sg when Filename.basename u.u_path = "messages.mli" ->
          Option.map (fun cs -> (u, cs)) (from_sig sg)
      | _ -> None)
    units

let dispatch_dirs = [ "dad"; "dns"; "dsr"; "secure" ]

let in_dispatch_dir path =
  let dir = Filename.basename (Filename.dirname path) in
  List.mem dir dispatch_dirs

(* The dispatch site is the outermost match of a [handle] function:
   descend through parameters and leading bindings, stopping at the
   first match/function in tail position. *)
let rec dispatch_site e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> dispatch_site body
  | Pexp_let (_, _, body) -> dispatch_site body
  | Pexp_sequence (_, b) -> dispatch_site b
  | Pexp_constraint (x, _) | Pexp_open (_, x) -> dispatch_site x
  | Pexp_match (_, cases) | Pexp_function cases -> Some (e.pexp_loc, cases)
  | _ -> None

let rec covers_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (q, _) | Ppat_constraint (q, _) | Ppat_open (_, q) ->
      covers_all q
  | Ppat_or (a, b) -> covers_all a || covers_all b
  | _ -> false

let pattern_ctors ctors p =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self q ->
          (match q.ppat_desc with
          | Ppat_construct ({ txt; _ }, _) ->
              let n = lid_last txt in
              if List.mem n ctors && not (List.mem n !out) then
                out := n :: !out
          | _ -> ());
          Ast_iterator.default_iterator.pat self q);
    }
  in
  it.pat it p;
  !out

let dispatch_findings fns ctors =
  let out = ref [] in
  List.iter
    (fun f ->
      if f.b_name = "handle" && in_dispatch_dir f.b_unit.u_path then
        match dispatch_site f.b_expr with
        | Some (loc, cases) ->
            let mentioned =
              List.concat_map (fun c -> pattern_ctors ctors c.pc_lhs) cases
            in
            if mentioned <> [] then begin
              let line = line_of loc in
              let catch_alls =
                List.filter (fun c -> covers_all c.pc_lhs) cases
              in
              List.iter
                (fun c ->
                  out :=
                    {
                      file = f.b_unit.u_path;
                      line = line_of c.pc_lhs.ppat_loc;
                      rule = "dispatch";
                      msg =
                        "catch-all arm hides Messages.t constructors; \
                         enumerate every arm explicitly";
                    }
                    :: !out)
                catch_alls;
              if catch_alls = [] then begin
                let handled =
                  List.sort_uniq compare
                    (List.concat_map
                       (fun c -> pattern_ctors ctors c.pc_lhs)
                       cases)
                in
                let missing =
                  List.filter (fun c -> not (List.mem c handled)) ctors
                in
                if missing <> [] then
                  out :=
                    {
                      file = f.b_unit.u_path;
                      line;
                      rule = "dispatch";
                      msg =
                        "dispatch does not handle Messages.t constructors: "
                        ^ String.concat ", " missing;
                    }
                    :: !out
              end
            end
        | None -> ())
    fns;
  !out

(* ------------------------------------------------------------------ *)
(* Codec pairing.  Classification is per enclosing top-level function:
   a payload builder must be mentioned by at least one signing function
   (applies something whose name contains "sign") and one verification
   function (in the verifier fixpoint, or itself verify-named). *)

let codec_payloads units =
  List.concat_map
    (fun u ->
      if Filename.basename u.u_path = "codec.mli" then
        match u.u_parsed with
        | Intf sg ->
            List.filter_map
              (fun item ->
                match item.psig_desc with
                | Psig_value vd
                  when Filename.check_suffix vd.pval_name.Location.txt
                         "_payload" ->
                    Some
                      (vd.pval_name.Location.txt, u.u_path, line_of vd.pval_loc)
                | _ -> None)
              sg
        | _ -> []
      else [])
    units

let fn_payload_uses f =
  let out = ref [] in
  let has_sign = ref false in
  let env = plain_env f in
  walk_expr
    (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } ->
          let _, x = resolve f.b_unit.u_aliases txt in
          if Filename.check_suffix x "_payload" then out := x :: !out
      | Pexp_apply (head, _) -> (
          match callee_of env head with
          | Some (_, n) when contains n "sign" && not (contains n "verify") ->
              has_sign := true
          | _ -> ())
      | _ -> ())
    f.b_expr;
  (!out, !has_sign)

let codec_findings fns vset units =
  let payloads = codec_payloads units in
  if payloads = [] then []
  else begin
    let signed = Hashtbl.create 8 and verified = Hashtbl.create 8 in
    let used = Hashtbl.create 8 in
    List.iter
      (fun f ->
        (* the builder's own definition does not count as a use *)
        if not (Filename.check_suffix f.b_name "_payload") then begin
          let uses, has_sign = fn_payload_uses f in
          let in_verify =
            Hashtbl.mem vset (f.b_mod, f.b_name) || name_is_verifier f.b_name
          in
          List.iter
            (fun p ->
              Hashtbl.replace used p ();
              if has_sign then Hashtbl.replace signed p ();
              if in_verify then Hashtbl.replace verified p ())
            uses
        end)
      fns;
    List.filter_map
      (fun (p, file, line) ->
        let mk msg = Some { file; line; rule = "codec"; msg } in
        if not (Hashtbl.mem used p) then
          mk (Printf.sprintf "codec builder %s is never used (orphan wire helper)" p)
        else if not (Hashtbl.mem signed p) then
          mk (Printf.sprintf "codec builder %s never appears in a signing context" p)
        else if not (Hashtbl.mem verified p) then
          mk
            (Printf.sprintf
               "codec builder %s never appears in a verification context" p)
        else None)
      payloads
  end

(* ------------------------------------------------------------------ *)
(* Semantic determinism. *)

let clock_idents =
  [
    ("Unix", "time"); ("Unix", "gettimeofday"); ("Unix", "localtime");
    ("Unix", "gmtime"); ("Unix", "mktime"); ("Sys", "time");
  ]

let sortish n =
  List.mem n [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]

let commutative_ops =
  [ "+"; "+."; "*"; "*."; "max"; "min"; "land"; "lor"; "lxor"; "&&"; "||" ]

let rec comm_expr acc e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> x = acc
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when List.mem (lid_last txt) commutative_ops ->
      List.exists (fun (_, a) -> comm_expr acc a) args
  | Pexp_ifthenelse (_, t, eo) -> (
      comm_expr acc t
      && match eo with Some x -> comm_expr acc x | None -> false)
  | Pexp_match (_, cases) ->
      cases <> [] && List.for_all (fun c -> comm_expr acc c.pc_rhs) cases
  | Pexp_let (_, _, b) | Pexp_sequence (_, b) -> comm_expr acc b
  | Pexp_constraint (x, _) -> comm_expr acc x
  | _ -> false

let commutative_fold_fn f =
  let rec peel e =
    match e.pexp_desc with
    | Pexp_fun (_, _, p, body) -> (
        match body.pexp_desc with
        | Pexp_fun _ -> peel body
        | _ -> (binding_name p, Some body))
    | _ -> (None, None)
  in
  match peel f with
  | Some acc, Some body -> comm_expr acc body
  | _ -> false

let head_is_sortish env e =
  match e.pexp_desc with
  | Pexp_apply (h, _) -> (
      match callee_of env h with Some (_, n) -> sortish n | None -> false)
  | Pexp_ident { txt; _ } -> sortish (lid_last txt)
  | _ -> false

(* Reads that differ from run to run: the wall clock, and
   [Hashtbl.hash], whose values the stdlib leaves unspecified. *)
let nondeterministic_read = function
  | Some m, x when List.mem (m, x) clock_idents ->
      Some
        (Printf.sprintf "wall-clock read %s.%s is nondeterministic across runs"
           m x)
  | Some "Hashtbl", "hash" ->
      Some
        "Hashtbl.hash breaks simulation reproducibility; hash with an \
         explicit function (FNV-1a, as Stats does)"
  | _ -> None

let rec dwalk env report ~sorted e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
      Option.iter (report e.pexp_loc)
        (nondeterministic_read (resolve env.sv_aliases txt))
  | Pexp_apply (h, args) -> (
      match (callee_of env h, args) with
      | Some (_, "|>"), [ (_, l); (_, r) ] ->
          dwalk env report ~sorted:(sorted || head_is_sortish env r) l;
          dwalk env report ~sorted r
      | Some (_, "@@"), [ (_, fn); (_, x) ] ->
          dwalk env report ~sorted fn;
          dwalk env report ~sorted:(sorted || head_is_sortish env fn) x
      | callee, _ ->
          let sorted_args =
            sorted
            || match callee with Some (_, n) -> sortish n | None -> false
          in
          (match callee with
          | Some c when nondeterministic_read c <> None ->
              Option.iter (report h.pexp_loc) (nondeterministic_read c)
          | Some (Some "Hashtbl", "iter") ->
              report h.pexp_loc
                "Hashtbl.iter order is unspecified and can leak into \
                 traces; fold to a list and sort instead"
          | Some (Some "Hashtbl", "fold") ->
              let comm =
                match first_positional args with
                | Some f0 -> commutative_fold_fn f0
                | None -> false
              in
              if not (sorted || comm) then
                report h.pexp_loc
                  "Hashtbl.fold order is unspecified; sort the result or \
                   use a commutative accumulator"
          | _ -> ());
          List.iter (fun (_, a) -> dwalk env report ~sorted:sorted_args a) args;
          (match h.pexp_desc with
          | Pexp_ident _ -> ()
          | _ -> dwalk env report ~sorted h))
  | _ -> List.iter (dwalk env report ~sorted) (sub_expressions e)

let determinism_findings fns =
  List.concat_map
    (fun f ->
      let out = ref [] in
      let report loc msg =
        let line = line_of loc and file = f.b_unit.u_path in
        out := { file; line; rule = "determinism"; msg } :: !out
      in
      dwalk (plain_env f) report ~sorted:false f.b_expr;
      !out)
    fns

(* ------------------------------------------------------------------ *)
(* Dead exports. *)

(* The core library (lib/core/manetsec.ml) re-exports modules under new
   names ([module Obs_report = Manet_obs.Report]); bin/test reference
   them through those names.  Chase aliases transitively across all
   files so such uses land on the defining module. *)
let global_chase units =
  (* Names of real compilation units: a reference that already lands on
     one must not be chased further — another file's alias of the same
     bare name (e.g. bin's [module Json = Manetsec.Obs_json]) is a
     different scope and must not capture it. *)
  let real = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace real u.u_mod ()) units;
  let pairs =
    List.concat_map
      (fun u ->
        Hashtbl.fold
          (fun k v acc -> if k <> v then (k, v) :: acc else acc)
          u.u_aliases [])
      units
    |> List.sort_uniq compare
  in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) pairs;
  let rec chase seen n =
    if Hashtbl.mem real n then n
    else
      match Hashtbl.find_opt tbl n with
      | Some v when (not (List.mem v seen)) && List.length seen < 8 ->
          chase (n :: seen) v
      | _ -> n
  in
  fun n -> chase [] n

(* The (module, name) pairs [units] reference from outside that
   module. *)
let collect_uses chase units =
  let used = Hashtbl.create 256 in
  List.iter
    (fun u ->
      walk_unit
        (fun e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match resolve u.u_aliases txt with
              | Some m, x when chase m <> u.u_mod ->
                  Hashtbl.replace used (chase m, x) ()
              | _ -> ())
          | _ -> ())
        u)
    units;
  used

let is_operator_name n =
  n = "" || match n.[0] with 'a' .. 'z' | '_' -> false | _ -> true

(* An exported value is live when a unit other than its own references
   it.  References from [tests] (the test roots) do not make it live: a
   value only tests call is a test-only export.  Values inside a
   submodule (an [Oracle] a test compares against) are not top-level
   and are never flagged. *)
let dead_export_findings ~tests units =
  let is_test u = List.memq u tests in
  let chase = global_chase units in
  let used = collect_uses chase (List.filter (fun u -> not (is_test u)) units)
  and tested = collect_uses chase tests in
  List.concat_map
    (fun u ->
      if not (in_lib u) then []
      else
        match u.u_parsed with
        | Intf sg ->
            List.filter_map
              (fun item ->
                match item.psig_desc with
                | Psig_value vd
                  when not (is_operator_name vd.pval_name.Location.txt) ->
                    let name = vd.pval_name.Location.txt in
                    let outside tbl = Hashtbl.mem tbl (u.u_mod, name) in
                    let finding rule what =
                      Some
                        {
                          file = u.u_path;
                          line = line_of vd.pval_loc;
                          rule;
                          msg =
                            Printf.sprintf "val %s.%s is %s" u.u_mod name what;
                        }
                    in
                    if outside used then None
                    else if outside tested then
                      finding "test-only-export"
                        "referenced outside its module only by tests"
                    else
                      finding "dead-export"
                        "never referenced outside its module"
                | _ -> None)
              sg
        | _ -> [])
    units

(* ------------------------------------------------------------------ *)
(* Wire schema: every Messages.t constructor has an encode arm in the
   sibling binary.ml that writes a literal wire tag ([put_u8 buf <n>])
   no other arm takes, a decode_body arm that decodes that tag back to
   it, and a mention in test_binary.ml or test_proto.ml. *)

let int_const e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | _ -> None

let cases_of e =
  let out = ref [] in
  walk_expr
    (fun x ->
      match x.pexp_desc with
      | Pexp_match (_, cs) | Pexp_function cs -> out := !out @ cs
      | _ -> ())
    e;
  !out

let first_construct names e =
  let r = ref None in
  walk_expr
    (fun x ->
      match x.pexp_desc with
      | Pexp_construct ({ txt; _ }, _)
        when !r = None && List.mem (lid_last txt) names ->
          r := Some (lid_last txt)
      | _ -> ())
    e;
  !r

(* The first literal wire tag [put_u8 buf <n>] an encode arm writes,
   with its line. *)
let wire_tag e =
  let r = ref None in
  walk_expr
    (fun x ->
      match x.pexp_desc with
      | Pexp_apply
          ({ pexp_desc = Pexp_ident { txt = Lident "put_u8"; _ }; _ }, args)
        when !r = None ->
          Option.iter
            (fun v -> r := Some (v, line_of x.pexp_loc))
            (List.find_map (fun (_, a) -> int_const a) args)
      | _ -> ())
    e;
  !r

let proto_schema_findings lib units =
  match messages_ctors lib with
  | None -> []
  | Some (mu, ctors) -> (
      let names = List.map fst ctors in
      let finding file line msg = { file; line; rule = "proto-schema"; msg } in
      let tested = Hashtbl.create 32 in
      List.iter
        (fun u ->
          if
            List.mem (Filename.basename u.u_path)
              [ "test_binary.ml"; "test_proto.ml" ]
          then
            walk_unit
              (fun e ->
                match e.pexp_desc with
                | Pexp_construct ({ txt; _ }, _) ->
                    Hashtbl.replace tested (lid_last txt) ()
                | _ -> ())
              u)
        units;
      let untested =
        List.filter_map
          (fun (c, line) ->
            if Hashtbl.mem tested c then None
            else
              Some
                (finding mu.u_path line
                   (Printf.sprintf
                      "constructor %s has no roundtrip test mention in \
                       test_binary.ml / test_proto.ml"
                      c)))
          ctors
      in
      let binary = Filename.concat (Filename.dirname mu.u_path) "binary.ml" in
      match List.find_opt (fun u -> u.u_path = binary) lib with
      | None -> untested
      | Some bu ->
          let top name =
            match
              List.find_opt (fun b -> b.b_name = name) (collect_bindings bu)
            with
            | Some b -> Ok b
            | None ->
                Error
                  [
                    finding binary 1
                      ("binary.ml has no top-level " ^ name ^ " function");
                  ]
          in
          (* tag -> constructor, in declaration order *)
          let assigned = Hashtbl.create 32 in
          let encode enc =
            let arms =
              List.filter_map
                (fun c ->
                  match c.pc_lhs.ppat_desc with
                  | Ppat_construct ({ txt; _ }, Some _) ->
                      Some (lid_last txt, c)
                  | _ -> None)
                (cases_of enc.b_expr)
            in
            List.filter_map
              (fun (v, line) ->
                match List.assoc_opt v arms with
                | None ->
                    Some
                      (finding mu.u_path line
                         ("constructor " ^ v
                        ^ " has no encode branch in binary.ml"))
                | Some c -> (
                    match wire_tag c.pc_rhs with
                    | None ->
                        Some
                          (finding binary (line_of c.pc_lhs.ppat_loc)
                             (Printf.sprintf
                                "encode branch for %s writes no literal wire \
                                 tag (put_u8 buf <n>)"
                                v))
                    | Some (tag, tline) -> (
                        match Hashtbl.find_opt assigned tag with
                        | Some other ->
                            Some
                              (finding binary tline
                                 (Printf.sprintf
                                    "wire tag %d reused by %s (already taken \
                                     by %s)"
                                    tag v other))
                        | None ->
                            Hashtbl.replace assigned tag v;
                            None)))
              ctors
          in
          let decode dec =
            let decoded = Hashtbl.create 32 in
            List.iter
              (fun c ->
                match c.pc_lhs.ppat_desc with
                | Ppat_constant (Pconst_integer (s, None)) -> (
                    let line = line_of c.pc_lhs.ppat_loc in
                    match
                      (int_of_string_opt s, first_construct names c.pc_rhs)
                    with
                    | Some tag, Some v when not (Hashtbl.mem decoded tag) ->
                        Hashtbl.replace decoded tag (v, line)
                    | _ -> ())
                | _ -> ())
              (cases_of dec.b_expr);
            Hashtbl.fold
              (fun tag v acc ->
                match Hashtbl.find_opt decoded tag with
                | None ->
                    finding binary dec.b_line
                      (Printf.sprintf
                         "decode_body has no arm for wire tag %d (%s)" tag v)
                    :: acc
                | Some (c, line) when c <> v ->
                    finding binary line
                      (Printf.sprintf "wire tag %d decodes to %s but encodes %s"
                         tag c v)
                    :: acc
                | Some _ -> acc)
              assigned []
          in
          let run fn check = match top fn with Ok b -> check b | Error e -> e in
          let enc = run "encode" encode in
          untested @ enc @ run "decode_body" decode)

(* ------------------------------------------------------------------ *)
(* Assembly: [lib] are the analyzed lib units, [tests] the test-root
   units, [units] every parsed file, use-sites and tests included. *)

let findings ~lib ~tests ~units =
  let fns = List.concat_map collect_bindings lib in
  let vset = verifier_fixpoint fns in
  let sinky = sinky_fixpoint fns vset in
  taint_findings fns vset sinky
  @ security_findings fns vset
  @ (match messages_ctors lib with
    | Some (_, ctors) -> dispatch_findings fns (List.map fst ctors)
    | None -> [])
  @ codec_findings fns vset lib
  @ proto_schema_findings lib units
  @ determinism_findings fns
  @ dead_export_findings ~tests units
