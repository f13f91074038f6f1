(* manetlint — project-specific static analysis for the manetsec tree.

   A dependency-free, comment- and string-aware lexical analyser plus
   structural cross-checks.  No ppxlib, no compiler-libs: the rules are
   deliberately lexical so the tool keeps working on code that does not
   yet type-check.  See README.md "Static analysis" for the rule
   catalogue and DESIGN.md for the paper rationale behind each rule.

   Suppression syntax (inside an OCaml comment):

     (* manetlint: allow <rule> [<rule> ...] *)
         — suppresses the listed rules on the comment's own lines and on
           the line directly below the comment's *last* line, so a
           multi-line rationale still anchors to the flagged construct
           directly beneath it.

     (* manetlint: allow-file <rule> [<rule> ...] *)
         — suppresses the listed rules for the whole file.

   Trailing prose after the rule names is ignored, so annotations can
   (and should) explain *why* the exemption is sound. *)

type finding = { file : string; line : int; rule : string; msg : string }

let rules =
  [
    "proto-schema";
    "security";
    "placeholder-sig";
    "determinism";
    "obj-magic";
    "catch-all";
    "failwith";
    "mli-coverage";
    "poly-compare";
    "obs-no-printf";
    "audit-counter";
    "scenario-keyword";
    "schedule-label";
    "flood-origin-label";
  ]

let to_string f = Printf.sprintf "%s:%d: [%s] %s" f.file f.line f.rule f.msg

(* ------------------------------------------------------------------ *)
(* Small lexical helpers                                              *)
(* ------------------------------------------------------------------ *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_digit c = c >= '0' && c <= '9'

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let ends_with suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let starts_with prefix s =
  let n = String.length s and m = String.length prefix in
  n >= m && String.sub s 0 m = prefix

(* Is [path] under directory [dir] ("lib", "lib/secure", ...)?  Accepts
   both repo-relative paths and absolute ones. *)
let under dir path =
  starts_with (dir ^ "/") path || find_sub path ("/" ^ dir ^ "/") <> None

let skip_ws code n i =
  let j = ref i in
  while !j < n && is_ws code.[!j] do incr j done;
  !j

let prev_nonws code i0 =
  let j = ref (i0 - 1) in
  while !j >= 0 && is_ws code.[!j] do decr j done;
  !j

(* The identifier whose last character sits at [j], or "" if [j] is not
   on an identifier. *)
let token_ending_at code j =
  if j < 0 || not (is_ident_char code.[j]) then ""
  else begin
    let s = ref j in
    while !s >= 0 && is_ident_char code.[!s] do decr s done;
    String.sub code (!s + 1) (j - !s)
  end

(* Positions where [tok] occurs as a whole token.  [tok] may be dotted
   ("Unix.gettimeofday").  With [qualified:false] a match preceded by
   '.' is rejected (used to find *bare* [compare]). *)
let occurrences ?(qualified = true) code tok =
  let n = String.length code and m = String.length tok in
  let ok i =
    (i = 0
    ||
    let c = code.[i - 1] in
    (not (is_ident_char c)) && (qualified || c <> '.'))
    && (i + m >= n || not (is_ident_char code.[i + m]))
  in
  let acc = ref [] in
  let i = ref 0 in
  while !i + m <= n do
    if String.sub code !i m = tok && ok !i then acc := !i :: !acc;
    incr i
  done;
  List.rev !acc

let iter_idents code lo hi f =
  let i = ref lo in
  while !i < hi do
    if is_ident_start code.[!i] && (!i = 0 || not (is_ident_char code.[!i - 1]))
    then begin
      let j = ref !i in
      while !j < hi && is_ident_char code.[!j] do incr j done;
      f !i (String.sub code !i (!j - !i));
      i := !j
    end
    else incr i
  done

let line_start code p =
  let s = ref p in
  while !s > 0 && code.[!s - 1] <> '\n' do decr s done;
  !s

(* Start of the dotted identifier chain containing position [p]:
   "Messages.Arep" -> position of 'M'. *)
let chain_start code p =
  let s = ref p in
  while !s > 0 && (is_ident_char code.[!s - 1] || code.[!s - 1] = '.') do
    decr s
  done;
  !s

(* ------------------------------------------------------------------ *)
(* Sanitizer: blank comment bodies and string/char literal contents   *)
(* (keeping line structure and string delimiters) and collect the     *)
(* comments as (start_line, end_line, text).                          *)
(* ------------------------------------------------------------------ *)

let sanitize raw =
  let n = String.length raw in
  let out = Bytes.of_string raw in
  let comments = ref [] in
  let line = ref 1 in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let bump c = if c = '\n' then incr line in
  let is_lower_or_us c = (c >= 'a' && c <= 'z') || c = '_' in
  let i = ref 0 in
  while !i < n do
    let c = raw.[!i] in
    if c = '(' && !i + 1 < n && raw.[!i + 1] = '*' then begin
      (* Nested comment. *)
      let start_line = !line in
      let buf = Buffer.create 64 in
      blank !i;
      blank (!i + 1);
      i := !i + 2;
      let depth = ref 1 in
      while !depth > 0 && !i < n do
        if !i + 1 < n && raw.[!i] = '(' && raw.[!i + 1] = '*' then begin
          incr depth;
          Buffer.add_string buf "(*";
          blank !i;
          blank (!i + 1);
          i := !i + 2
        end
        else if !i + 1 < n && raw.[!i] = '*' && raw.[!i + 1] = ')' then begin
          decr depth;
          if !depth > 0 then Buffer.add_string buf "*)";
          blank !i;
          blank (!i + 1);
          i := !i + 2
        end
        else begin
          Buffer.add_char buf raw.[!i];
          bump raw.[!i];
          blank !i;
          incr i
        end
      done;
      comments := (start_line, !line, Buffer.contents buf) :: !comments
    end
    else if c = '"' then begin
      (* Regular string literal: keep the quotes, blank the body. *)
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        if raw.[!i] = '\\' && !i + 1 < n then begin
          blank !i;
          blank (!i + 1);
          bump raw.[!i + 1];
          i := !i + 2
        end
        else if raw.[!i] = '"' then begin
          fin := true;
          incr i
        end
        else begin
          bump raw.[!i];
          blank !i;
          incr i
        end
      done
    end
    else if
      c = '{'
      && begin
           let j = ref (!i + 1) in
           while !j < n && is_lower_or_us raw.[!j] do incr j done;
           !j < n && raw.[!j] = '|'
         end
    then begin
      (* Quoted string {id|...|id}: blank the body. *)
      let j = ref (!i + 1) in
      while !j < n && is_lower_or_us raw.[!j] do incr j done;
      let id = String.sub raw (!i + 1) (!j - !i - 1) in
      let close = "|" ^ id ^ "}" in
      let clen = String.length close in
      i := !j + 1;
      let fin = ref false in
      while (not !fin) && !i < n do
        if !i + clen <= n && String.sub raw !i clen = close then begin
          i := !i + clen;
          fin := true
        end
        else begin
          bump raw.[!i];
          blank !i;
          incr i
        end
      done
    end
    else if c = '\'' then begin
      if !i > 0 && is_ident_char raw.[!i - 1] then incr i (* prime: x' *)
      else if
        !i + 2 < n
        && raw.[!i + 1] <> '\\'
        && raw.[!i + 1] <> '\''
        && raw.[!i + 2] = '\''
      then begin
        (* 'a' char literal *)
        blank (!i + 1);
        i := !i + 3
      end
      else if !i + 1 < n && raw.[!i + 1] = '\\' then begin
        (* escaped char literal: closing quote within a few chars *)
        let j = ref (!i + 2) in
        while !j < n && !j <= !i + 6 && raw.[!j] <> '\'' do incr j done;
        if !j < n && raw.[!j] = '\'' then begin
          for k = !i + 1 to !j - 1 do
            blank k
          done;
          i := !j + 1
        end
        else incr i
      end
      else incr i (* type variable 'a *)
    end
    else begin
      bump c;
      incr i
    end
  done;
  (Bytes.to_string out, List.rev !comments)

(* ------------------------------------------------------------------ *)
(* Sources and suppression directives                                 *)
(* ------------------------------------------------------------------ *)

type source = {
  path : string;
  code : string; (* sanitized *)
  raw : string; (* original text, same length/offsets as [code] *)
  line_at : int array; (* line_at.(i) = 1-based line of offset i *)
  allow_file : (string, unit) Hashtbl.t;
  allow_ranges : (string * int * int) list; (* rule, first line, last line *)
}

let parse_directive text =
  match find_sub text "manetlint:" with
  | None -> None
  | Some p ->
      let rest = String.sub text (p + 10) (String.length text - p - 10) in
      let words =
        String.map (fun c -> if is_ws c then ' ' else c) rest
        |> String.split_on_char ' '
        |> List.filter (fun w -> w <> "")
      in
      let rec take = function
        | w :: tl when List.mem w rules -> w :: take tl
        | _ -> []
      in
      (match words with
      | "allow" :: tl -> Some (`Allow (take tl))
      | "allow-file" :: tl -> Some (`Allow_file (take tl))
      | _ -> None)

let make_source path raw =
  let code, comments = sanitize raw in
  let n = String.length code in
  let line_at = Array.make (n + 1) 1 in
  for i = 0 to n - 1 do
    line_at.(i + 1) <- (line_at.(i) + if code.[i] = '\n' then 1 else 0)
  done;
  let allow_file = Hashtbl.create 4 in
  let allow_ranges = ref [] in
  List.iter
    (fun (l0, l1, text) ->
      match parse_directive text with
      | Some (`Allow rs) ->
          List.iter (fun r -> allow_ranges := (r, l0, l1 + 1) :: !allow_ranges) rs
      | Some (`Allow_file rs) ->
          List.iter (fun r -> Hashtbl.replace allow_file r ()) rs
      | None -> ())
    comments;
  { path; code; raw; line_at; allow_file; allow_ranges = !allow_ranges }

let suppressed src f =
  Hashtbl.mem src.allow_file f.rule
  || List.exists
       (fun (r, l0, l1) -> r = f.rule && f.line >= l0 && f.line <= l1)
       src.allow_ranges

(* ------------------------------------------------------------------ *)
(* Top-level chunks (column-0 let/and bindings)                       *)
(* ------------------------------------------------------------------ *)

type chunk = { name : string; lo : int; hi : int }

let read_word code n i =
  if i < n && is_ident_start code.[i] then begin
    let j = ref i in
    while !j < n && is_ident_char code.[!j] do incr j done;
    (String.sub code i (!j - i), !j)
  end
  else ("", i)

let chunks src =
  let code = src.code in
  let n = String.length code in
  let starts = ref [] in
  let check o =
    let kw k =
      let m = String.length k in
      o + m < n && String.sub code o m = k && not (is_ident_char code.[o + m])
    in
    if kw "let" || kw "and" then begin
      let j = skip_ws code n (o + 3) in
      let w, je = read_word code n j in
      let name =
        if w = "rec" then fst (read_word code n (skip_ws code n je)) else w
      in
      let name =
        if name <> "" && (name.[0] = '_' || Char.lowercase_ascii name.[0] = name.[0])
        then name
        else ""
      in
      starts := (o, name) :: !starts
    end
  in
  check 0;
  String.iteri (fun i c -> if c = '\n' && i + 1 < n then check (i + 1)) code;
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) !starts in
  let rec build = function
    | [] -> []
    | (lo, name) :: tl ->
        let hi = match tl with (next, _) :: _ -> next | [] -> n in
        { name; lo; hi } :: build tl
  in
  build sorted

(* ------------------------------------------------------------------ *)
(* Security rule machinery                                            *)
(* ------------------------------------------------------------------ *)

let signed_variants =
  [
    "Arep"; "Drep"; "Rreq"; "Rrep"; "Crep"; "Rerr"; "Probe_reply";
    "Name_reply"; "Ip_change_proof";
  ]

let handler_prefixes =
  [ "handle"; "consume"; "observe"; "serve"; "receive"; "on_" ]

let is_handler name =
  name <> "" && List.exists (fun p -> starts_with p name) handler_prefixes

let is_verifier_name name =
  find_sub name "verify" <> None
  || find_sub name "cga_check" <> None
  || ends_with "_mac" name

(* Fixpoint of "this same-module function performs verification":
   a chunk verifies if its body mentions a verifier identifier or calls
   another verifying chunk of the same file. *)
let verifying_names src cks =
  let set = Hashtbl.create 16 in
  let body_verifies lo hi =
    let found = ref false in
    iter_idents src.code lo hi (fun _ name ->
        if (not !found) && (is_verifier_name name || Hashtbl.mem set name) then
          found := true);
    !found
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
        if c.name <> "" && (not (Hashtbl.mem set c.name)) && body_verifies c.lo c.hi
        then begin
          Hashtbl.replace set c.name ();
          changed := true
        end)
      cks
  done;
  set

(* Decide whether the variant identifier at [p] is used as a match
   pattern (vs. an expression constructing a message).  Walk left from
   the chain start, skipping whitespace, '(' and ','; a '|' or the
   keywords with/function mean pattern; a lowercase identifier or any
   other character means expression.  Uppercase identifiers (constructor
   application in a pattern, e.g. Some (Messages.Arep ...)) keep the
   walk going. *)
let pattern_intro code p =
  let res = ref None in
  let go = ref true in
  let j = ref (chain_start code p - 1) in
  while !go do
    while !j >= 0 && is_ws code.[!j] do decr j done;
    if !j < 0 then go := false
    else
      match code.[!j] with
      | '|' ->
          res := Some !j;
          go := false
      | '(' | ',' -> decr j
      | c when is_ident_char c ->
          let w = token_ending_at code !j in
          if w = "with" || w = "function" then begin
            res := Some (!j - String.length w + 1);
            go := false
          end
          else if w <> "" && w.[0] >= 'A' && w.[0] <= 'Z' then
            j := !j - String.length w
          else go := false
      | _ -> go := false
  done;
  !res

(* End of the match arm whose pattern starts at [p0]: the first
   subsequent line whose first non-blank character is '|' at a column
   not deeper than the introducing bar. *)
let arm_end code intro_col p0 hi =
  let i = ref p0 in
  let res = ref hi in
  (try
     while !i < hi do
       if code.[!i] = '\n' then begin
         let ls = !i + 1 in
         let j = ref ls in
         while !j < hi && (code.[!j] = ' ' || code.[!j] = '\t') do incr j done;
         if
           !j < hi
           && code.[!j] = '|'
           && (!j + 1 >= hi || (code.[!j + 1] <> '|' && code.[!j + 1] <> ']'))
           && !j - ls <= intro_col
         then begin
           res := ls;
           raise Exit
         end
       end;
       incr i
     done
   with Exit -> ());
  !res

let range_mentions_verifier code vset lo hi =
  let found = ref false in
  iter_idents code lo hi (fun _ name ->
      if (not !found) && (is_verifier_name name || Hashtbl.mem vset name) then
        found := true);
  !found

(* ------------------------------------------------------------------ *)
(* Per-file rules                                                     *)
(* ------------------------------------------------------------------ *)

(* Beyond the wall-clock and self-seeding offenders, the stdlib Random
   draws are banned under lib/ wholesale: any library randomness must
   come from a Manet_crypto.Prng stream split off the engine root, or a
   seeded fault plan (lib/faults) silently stops being replayable. *)
let deterministic_tokens =
  [
    "Random.self_init"; "Unix.gettimeofday"; "Sys.time"; "Hashtbl.hash";
    "Random.init"; "Random.int"; "Random.float"; "Random.bool";
    "Random.bits";
  ]

let addr_fields =
  [
    "sip"; "dip"; "src"; "dst"; "reporter"; "broken_next"; "origin"; "target";
    "requester"; "cacher"; "old_ip"; "new_ip"; "ip";
  ]

let binding_keywords = [ "with"; "let"; "and"; "rec"; "val"; "method" ]

let check_determinism add src =
  List.iter
    (fun tok ->
      List.iter
        (fun p ->
          add src src.line_at.(p) "determinism"
            (Printf.sprintf
               "%s breaks simulation reproducibility; use Manet_crypto.Prng \
                and Engine.now instead"
               tok))
        (occurrences src.code tok))
    deterministic_tokens

let check_obj_magic add src =
  List.iter
    (fun p ->
      add src src.line_at.(p) "obj-magic"
        "Obj.magic defeats the type system; find a typed encoding")
    (occurrences src.code "Obj.magic")

(* Library code must not write to stdout directly: human-facing output
   belongs to bin/ and bench/, and library telemetry must go through the
   Trace/Obs sinks (or be returned as a string) so it stays queryable
   and replay-deterministic.  [Printf.sprintf] and the [Format.pp_*]
   formatter combinators remain fine — they build values. *)
let printf_tokens =
  [
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "print_endline"; "print_string"; "print_newline"; "prerr_endline";
  ]

let check_obs_no_printf add src =
  List.iter
    (fun tok ->
      List.iter
        (fun p ->
          add src src.line_at.(p) "obs-no-printf"
            (Printf.sprintf
               "%s under lib/ bypasses the Trace/Obs sinks; return a string \
                or log through the telemetry layer"
               tok))
        (occurrences src.code tok))
    printf_tokens

let check_failwith add src =
  List.iter
    (fun p ->
      add src src.line_at.(p) "failwith"
        "failwith under lib/ — raise a documented typed exception or return \
         a Result")
    (occurrences src.code "failwith")

let check_catch_all add src =
  let code = src.code in
  let n = String.length code in
  List.iter
    (fun p ->
      let j = skip_ws code n (p + 4) in
      let j = if j < n && code.[j] = '|' then skip_ws code n (j + 1) else j in
      if j < n && code.[j] = '_' && (j + 1 >= n || not (is_ident_char code.[j + 1]))
      then begin
        let k = skip_ws code n (j + 1) in
        if k + 1 < n && code.[k] = '-' && code.[k + 1] = '>' then
          add src src.line_at.(p) "catch-all"
            "catch-all `with _ ->` swallows unexpected exceptions/cases; \
             match the constructors you mean"
      end)
    (occurrences code "with")

let check_placeholder_sig add src =
  let code = src.code in
  let n = String.length code in
  iter_idents code 0 n (fun p name ->
      if starts_with "sig_" name || name = "sig_" then begin
        let j = skip_ws code n (p + String.length name) in
        if j < n && code.[j] = '=' && (j + 1 >= n || code.[j + 1] <> '=') then begin
          let k = skip_ws code n (j + 1) in
          if k + 1 < n && code.[k] = '"' && code.[k + 1] = '"' then
            add src src.line_at.(p) "placeholder-sig"
              (Printf.sprintf
                 "placeholder %s = \"\" in a security-critical layer; sign \
                  the payload or annotate the designated signing site"
                 name)
        end
      end)

let check_poly_compare add src =
  let code = src.code in
  let n = String.length code in
  (* Stdlib.compare is always polymorphic. *)
  List.iter
    (fun p ->
      add src src.line_at.(p) "poly-compare"
        "Stdlib.compare is polymorphic; use the dedicated compare of the \
         values' type")
    (occurrences code "Stdlib.compare");
  (* Bare [compare]: allowed only after a same-file [let compare] definition
     (a module defining its own order may use it below the definition). *)
  let bare = occurrences ~qualified:false code "compare" in
  let def_sites, use_sites =
    List.partition
      (fun p ->
        let w = token_ending_at code (prev_nonws code p) in
        List.mem w [ "let"; "rec"; "and"; "val"; "external" ])
      bare
  in
  let first_def = match def_sites with [] -> max_int | p :: _ -> p in
  List.iter
    (fun p ->
      let prev = prev_nonws code p in
      let tilde = prev >= 0 && (code.[prev] = '~' || code.[prev] = '?') in
      if (not tilde) && p < first_def then
        add src src.line_at.(p) "poly-compare"
          "bare polymorphic compare; use Address.compare / Int.compare / \
           String.compare")
    use_sites;
  (* Polymorphic =/<> between address-typed fields. *)
  let flag_eq p oplen =
    let l = prev_nonws code p in
    if l >= 0 && is_ident_char code.[l] then begin
      let lstart = chain_start code l in
      let lname = token_ending_at code l in
      let before = prev_nonws code lstart in
      let binding =
        before >= 0
        && (code.[before] = '{' || code.[before] = ';' || code.[before] = '~'
          || code.[before] = '?'
           || List.mem (token_ending_at code before) binding_keywords)
      in
      let q = skip_ws code n (p + oplen) in
      let rname =
        if q < n && is_ident_start code.[q] then begin
          let e = ref q in
          while
            !e < n && (is_ident_char code.[!e] || code.[!e] = '.')
          do
            incr e
          done;
          token_ending_at code (!e - 1)
        end
        else ""
      in
      if
        (not binding) && List.mem lname addr_fields && List.mem rname addr_fields
      then
        add src src.line_at.(p) "poly-compare"
          (Printf.sprintf
             "polymorphic %s on address-typed fields (%s, %s); use \
              Address.equal"
             (if oplen = 1 then "=" else "<>")
             lname rname)
    end
  in
  let opchar c =
    match c with
    | '<' | '>' | '=' | '!' | ':' | '+' | '-' | '*' | '/' | '&' | '|' | '^'
    | '@' | '.' ->
        true
    | _ -> false
  in
  for p = 1 to n - 2 do
    if code.[p] = '=' && (not (opchar code.[p - 1])) && not (opchar code.[p + 1])
    then flag_eq p 1
    else if
      code.[p] = '<'
      && code.[p + 1] = '>'
      && (not (opchar code.[p - 1]))
      && (p + 2 >= n || not (opchar code.[p + 2]))
    then flag_eq p 2
  done

(* Every event entering the engine queue must carry a ~label: the
   deterministic per-label counters of the perf registry (and the
   opt-in wall-clock profile) attribute hot-path cost by label, and an
   unlabeled schedule call silently files its events under "other",
   which makes `manetsim perf` blind to that subsystem.  The label
   argument always precedes the closure, so the scan window runs from
   the call token to the first "(fun" (or a fixed horizon for the rare
   eta-passed callback). *)
let check_schedule_label add src =
  let code = src.code in
  let n = String.length code in
  List.iter
    (fun tok ->
      List.iter
        (fun p ->
          let limit = min n (p + 160) in
          let window = String.sub code p (limit - p) in
          let window =
            match find_sub window "(fun" with
            | Some q -> String.sub window 0 q
            | None -> window
          in
          if find_sub window "~label" = None then
            add src src.line_at.(p) "schedule-label"
              (Printf.sprintf
                 "%s without ~label files its events under \"other\"; name the \
                  scheduling subsystem so perf counters and profiles can \
                  attribute it"
                 tok))
        (occurrences code tok))
    [ "Engine.schedule"; "Engine.schedule_at" ]

(* Every broadcast put on the air by the flooding protocols (DAD AREQ,
   DSR / secure / SRP RREQ) must be visible to the flood-provenance
   registry: a copy sent without a [Flood.] recording call makes the
   per-flood propagation accounting under-count, which silently skews
   the duplicate-verify and redundancy metrics that size ROADMAP item
   3's verification cache.  Lexically: a [Ctx.broadcast] call under
   lib/dad, lib/dsr or lib/secure must have a [Flood.] token within the
   preceding window (the recording call directly precedes the broadcast,
   inline or inside the relay closure); non-flood broadcasts carry a
   one-line allow with the rationale, mirroring schedule-label. *)
let check_flood_origin_label add src =
  let code = src.code in
  List.iter
    (fun p ->
      let start = max 0 (p - 400) in
      let window = String.sub code start (p - start) in
      if find_sub window "Flood." = None then
        add src src.line_at.(p) "flood-origin-label"
          "Ctx.broadcast without a preceding Flood. recording call: this \
           copy is invisible to the flood provenance accounting; record it \
           (Flood.handle/sent) or allow with a rationale")
    (occurrences code "Ctx.broadcast")

(* A counter whose name says "rejected", "replayed", "suspected", ...
   carries the same information as a security audit event but none of the
   structure: no subject, no cause, no entry in the JSONL stream the
   misbehaviour detector consumes.  Under the protocol layers such
   counters must be bumped *through* the audit path — [Node_ctx.audit]
   / [Audit.emit] with [~stats] keep the legacy counter and emit the
   typed event atomically — never with a raw [Ctx.stat] / [Stats.incr]
   that leaves the audit stream blind. *)
let audit_counter_markers =
  [
    "reject"; "replay"; "suspect"; "slash"; "forged"; "hostile"; "mismatch";
    "implausible"; "conflict"; "collision"; "duplicate";
  ]

let audit_counter_dirs = [ "lib/dad"; "lib/dns"; "lib/dsr"; "lib/secure" ]

let check_audit_counter add src =
  let code = src.code in
  let n = String.length code in
  (* First "..." literal within a short window after the call token.
     The sanitizer kept the quote characters and blanked the body in
     place, so the literal's content is read back from [src.raw] at the
     very same offsets. *)
  let string_lit_after p =
    let limit = min n (p + 160) in
    let rec find_quote i =
      if i >= limit then None
      else if code.[i] = '"' then Some i
      else find_quote (i + 1)
    in
    match find_quote p with
    | None -> None
    | Some q ->
        let j = ref (q + 1) in
        while !j < n && code.[!j] <> '"' do incr j done;
        if !j < n then Some (String.sub src.raw (q + 1) (!j - q - 1)) else None
  in
  List.iter
    (fun tok ->
      List.iter
        (fun p ->
          match string_lit_after (p + String.length tok) with
          | None -> ()
          | Some name ->
              let lname = String.lowercase_ascii name in
              if
                List.exists
                  (fun m -> find_sub lname m <> None)
                  audit_counter_markers
              then
                add src src.line_at.(p) "audit-counter"
                  (Printf.sprintf
                     "security-shaped counter %S bumped directly; emit the \
                      typed event instead (Node_ctx.audit / Audit.emit with \
                      ~stats keeps the counter and feeds the audit stream)"
                     name))
        (occurrences code tok))
    [ "Ctx.stat"; "Stats.incr" ]

let check_security add src =
  let code = src.code in
  let n = String.length code in
  let cks = chunks src in
  let vset = verifying_names src cks in
  let variant_occs =
    List.concat_map
      (fun v -> List.map (fun p -> (v, p)) (occurrences code v))
      signed_variants
  in
  List.iter
    (fun ck ->
      if is_handler ck.name then
        List.iter
          (fun (v, p) ->
            if p >= ck.lo && p < ck.hi then begin
              let after = skip_ws code n (p + String.length v) in
              if after < n && code.[after] = '{' then
                match pattern_intro code p with
                | None -> () (* construction, not a pattern *)
                | Some intro ->
                    let col = intro - line_start code intro in
                    let hi = arm_end code col p ck.hi in
                    if not (range_mentions_verifier code vset p hi) then
                      add src src.line_at.(p) "security"
                        (Printf.sprintf
                           "handler %s destructures signed %s without calling \
                            a verify/cga_check function in the arm"
                           ck.name v)
            end)
          variant_occs)
    cks

(* ------------------------------------------------------------------ *)
(* proto-schema: messages.mli vs binary.ml vs roundtrip tests          *)
(* ------------------------------------------------------------------ *)

let parse_variants msrc =
  let code = msrc.code in
  let n = String.length code in
  match find_sub code "type t =" with
  | None -> []
  | Some p ->
      let stop = ref n in
      (try
         let i = ref p in
         while !i < n do
           if code.[!i] = '\n' then begin
             let ls = !i + 1 in
             let starts k =
               ls + String.length k <= n
               && String.sub code ls (String.length k) = k
             in
             if
               starts "val " || starts "type " || starts "module "
               || starts "exception " || starts "end"
             then begin
               stop := ls;
               raise Exit
             end
           end;
           incr i
         done
       with Exit -> ());
      let acc = ref [] in
      let depth = ref 0 in
      let j = ref (p + 8) in
      while !j < !stop do
        (match code.[!j] with
        | '{' | '(' | '[' -> incr depth
        | '}' | ')' | ']' -> decr depth
        | '|' when !depth = 0 ->
            let q = skip_ws code !stop (!j + 1) in
            if q < !stop && code.[q] >= 'A' && code.[q] <= 'Z' then begin
              let w, _ = read_word code !stop q in
              acc := (w, msrc.line_at.(q)) :: !acc
            end
        | _ -> ());
        incr j
      done;
      List.rev !acc

let read_int_lit code n i =
  if i < n && is_digit code.[i] then begin
    let j = ref i in
    while !j < n && is_ident_char code.[!j] do incr j done;
    match int_of_string_opt (String.sub code i (!j - i)) with
    | Some v -> Some (v, !j)
    | None -> None
  end
  else None

(* Literal `put_u8 buf <int>` sites inside [lo, hi): the wire tags. *)
let tag_sites code lo hi =
  List.filter_map
    (fun p ->
      if p < lo || p >= hi then None
      else
        let q = skip_ws code hi (p + 6) in
        let w, qe = read_word code hi q in
        if w = "" then None
        else
          let r = skip_ws code hi qe in
          match read_int_lit code hi r with
          | Some (v, _) -> Some (p, v)
          | None -> None)
    (occurrences code "put_u8")

(* Pattern positions of [variants] (followed by '{') inside [lo, hi). *)
let variant_patterns code lo hi variants =
  List.concat_map
    (fun (v, _) ->
      List.filter_map
        (fun p ->
          if p < lo || p >= hi then None
          else
            let after = skip_ws code hi (p + String.length v) in
            if after < hi && code.[after] = '{' then Some (v, p) else None)
        (occurrences code v))
    variants
  |> List.sort (fun (_, a) (_, b) -> Int.compare a b)

let check_proto_schema add srcs =
  match List.find_opt (fun s -> ends_with "messages.mli" s.path) srcs with
  | None -> ()
  | Some msrc -> (
      let variants = parse_variants msrc in
      if variants = [] then ()
      else begin
        let dir =
          match String.rindex_opt msrc.path '/' with
          | Some k -> String.sub msrc.path 0 (k + 1)
          | None -> ""
        in
        let tests =
          List.filter
            (fun s ->
              ends_with "test_binary.ml" s.path || ends_with "test_proto.ml" s.path)
            srcs
        in
        (* Roundtrip-test references. *)
        List.iter
          (fun (v, line) ->
            let mentioned =
              List.exists (fun t -> occurrences t.code v <> []) tests
            in
            if not mentioned then
              add msrc line "proto-schema"
                (Printf.sprintf
                   "constructor %s has no roundtrip test mention in \
                    test_binary.ml / test_proto.ml"
                   v))
          variants;
        match List.find_opt (fun s -> s.path = dir ^ "binary.ml") srcs with
        | None -> ()
        | Some bsrc ->
            let code = bsrc.code in
            let cks = chunks bsrc in
            (match List.find_opt (fun c -> c.name = "encode") cks with
            | None ->
                add bsrc 1 "proto-schema"
                  "binary.ml has no top-level encode function"
            | Some enc ->
                let pats = variant_patterns code enc.lo enc.hi variants in
                let tags = tag_sites code enc.lo enc.hi in
                (* Tag of each encode arm: first literal put_u8 after the
                   pattern and before the next pattern. *)
                let arm_tag p =
                  let next =
                    List.fold_left
                      (fun acc (_, q) -> if q > p && q < acc then q else acc)
                      enc.hi pats
                  in
                  List.find_opt (fun (tp, _) -> tp > p && tp < next) tags
                in
                let assigned = Hashtbl.create 32 in
                List.iter
                  (fun (v, line) ->
                    match List.find_opt (fun (v', _) -> v' = v) pats with
                    | None ->
                        add msrc line "proto-schema"
                          (Printf.sprintf
                             "constructor %s has no encode branch in binary.ml"
                             v)
                    | Some (_, p) -> (
                        match arm_tag p with
                        | None ->
                            add bsrc bsrc.line_at.(p) "proto-schema"
                              (Printf.sprintf
                                 "encode branch for %s writes no literal wire \
                                  tag (put_u8 buf <n>)"
                                 v)
                        | Some (tp, tag) -> (
                            match Hashtbl.find_opt assigned tag with
                            | Some other ->
                                add bsrc bsrc.line_at.(tp) "proto-schema"
                                  (Printf.sprintf
                                     "wire tag %d reused by %s (already taken \
                                      by %s)"
                                     tag v other)
                            | None -> Hashtbl.replace assigned tag v)))
                  variants;
                (* Decode side: every assigned tag must decode back to the
                   same constructor. *)
                (match List.find_opt (fun c -> c.name = "decode_body") cks with
                | None ->
                    add bsrc 1 "proto-schema"
                      "binary.ml has no top-level decode_body function"
                | Some dec ->
                    let decode_map = Hashtbl.create 32 in
                    let i = ref dec.lo in
                    let n = String.length code in
                    let arms = ref [] in
                    while !i < dec.hi do
                      (if code.[!i] = '|' && (!i = 0 || code.[!i - 1] <> '|')
                       && (!i + 1 >= n || code.[!i + 1] <> '|')
                      then
                        let q = skip_ws code dec.hi (!i + 1) in
                        match read_int_lit code dec.hi q with
                        | Some (v, _) -> arms := (v, !i) :: !arms
                        | None -> ());
                      incr i
                    done;
                    let arms = List.rev !arms in
                    let rec fill = function
                      | [] -> ()
                      | (tag, p) :: tl ->
                          let hi =
                            match tl with (_, next) :: _ -> next | [] -> dec.hi
                          in
                          let ctor = ref None in
                          iter_idents code p hi (fun _ name ->
                              if
                                !ctor = None
                                && List.exists (fun (v, _) -> v = name) variants
                              then ctor := Some name);
                          (match !ctor with
                          | Some c ->
                              if not (Hashtbl.mem decode_map tag) then
                                Hashtbl.replace decode_map tag (c, p)
                          | None -> ());
                          fill tl
                    in
                    fill arms;
                    Hashtbl.iter
                      (fun tag v ->
                        match Hashtbl.find_opt decode_map tag with
                        | None ->
                            add bsrc bsrc.line_at.(dec.lo) "proto-schema"
                              (Printf.sprintf
                                 "decode_body has no arm for wire tag %d (%s)"
                                 tag v)
                        | Some (c, p) ->
                            if c <> v then
                              add bsrc bsrc.line_at.(p) "proto-schema"
                                (Printf.sprintf
                                   "wire tag %d decodes to %s but encodes %s"
                                   tag c v))
                      assigned))
      end)

(* ------------------------------------------------------------------ *)
(* scenario-keyword: schema.ml is the single keyword table            *)
(* ------------------------------------------------------------------ *)

(* String literals of a sanitized source: the sanitizer kept the quote
   characters and blanked the body in place, so each literal's content
   is read back from [src.raw] at the same offsets (the audit-counter
   technique). *)
let iter_string_literals src f =
  let code = src.code in
  let n = String.length code in
  let i = ref 0 in
  while !i < n do
    if code.[!i] = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && code.[!j] <> '"' do incr j done;
      if !j < n then begin
        f !i (String.sub src.raw (!i + 1) (!j - !i - 1));
        i := !j + 1
      end
      else i := n
    end
    else incr i
  done

let keyword_shaped s =
  String.length s >= 2
  && s.[0] >= 'a'
  && s.[0] <= 'z'
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-')
       s

(* The scenario grammar's vocabulary must be enumerable in one place:
   schema.ml's keyword-shaped literals *are* the table, and any other
   lib/scenario module spelling one of those words as a fresh literal
   (instead of referencing the Schema constant) silently forks the
   grammar the moment either copy changes. *)
let check_scenario_keywords add srcs =
  let in_scenario s = under "lib/scenario" s.path && ends_with ".ml" s.path in
  match List.filter in_scenario srcs with
  | [] -> ()
  | scn -> (
      match List.find_opt (fun s -> ends_with "schema.ml" s.path) scn with
      | None ->
          add (List.hd scn) 1 "scenario-keyword"
            "lib/scenario has no schema.ml keyword table; the scenario \
             grammar's vocabulary must live in one file"
      | Some table ->
          let vocab = Hashtbl.create 128 in
          iter_string_literals table (fun _ lit ->
              if keyword_shaped lit then Hashtbl.replace vocab lit ());
          List.iter
            (fun s ->
              if not (ends_with "schema.ml" s.path) then
                iter_string_literals s (fun p lit ->
                    if Hashtbl.mem vocab lit then
                      add s s.line_at.(p) "scenario-keyword"
                        (Printf.sprintf
                           "scenario keyword %S spelled as a stray literal; \
                            reference the Schema constant (the grammar's \
                            vocabulary lives in schema.ml alone)"
                           lit)))
            scn)

(* ------------------------------------------------------------------ *)
(* mli coverage                                                       *)
(* ------------------------------------------------------------------ *)

let check_mli_coverage add srcs =
  let paths = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace paths s.path ()) srcs;
  List.iter
    (fun s ->
      if under "lib" s.path && ends_with ".ml" s.path then
        if not (Hashtbl.mem paths (s.path ^ "i")) then
          add s 1 "mli-coverage"
            "lib module has no .mli; every lib/** module must declare its \
             interface")
    srcs

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let lint_files inputs =
  let srcs = List.map (fun (p, raw) -> make_source p raw) inputs in
  let findings = ref [] in
  let add src line rule msg =
    let f = { file = src.path; line; rule; msg } in
    if not (suppressed src f) then findings := f :: !findings
  in
  List.iter
    (fun src ->
      if ends_with ".ml" src.path || ends_with ".mli" src.path then begin
        let in_lib = under "lib" src.path in
        if in_lib then check_determinism add src;
        check_obj_magic add src;
        if in_lib then check_failwith add src;
        if in_lib then check_obs_no_printf add src;
        check_catch_all add src;
        if
          under "lib/secure" src.path || under "lib/dad" src.path
          || under "lib/dns" src.path
        then check_placeholder_sig add src;
        if in_lib then check_poly_compare add src;
        if List.exists (fun d -> under d src.path) audit_counter_dirs then
          check_audit_counter add src;
        if in_lib then check_schedule_label add src;
        if
          under "lib/dad" src.path || under "lib/dsr" src.path
          || under "lib/secure" src.path
        then check_flood_origin_label add src;
        if in_lib then check_security add src
      end)
    srcs;
  check_mli_coverage add srcs;
  check_proto_schema add srcs;
  check_scenario_keywords add srcs;
  List.sort
    (fun a b ->
      match String.compare a.file b.file with
      | 0 -> (
          match Int.compare a.line b.line with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
    !findings
