(** analyzer_common — the runtime of manetcheck.

    manetcheck parses the tree once with compiler-libs, runs every rule
    over the AST, filters findings through in-source directives, and
    diffs against a committed baseline where both fresh findings and
    stale pins fail the build.  This library owns that shape — the
    comment scanner, the directive grammar, the parse/alias/binding
    toolkit and the baseline machinery — so the rule modules contain
    only their rules.

    {1 Findings} *)

type finding = { file : string; line : int; rule : string; msg : string }

val pp_finding : Format.formatter -> finding -> unit
(** [file:line: [rule] msg] — one line, the format the CLI prints. *)

val contains : string -> string -> bool
(** [contains s sub] — naive substring test (analyzer-time only). *)

val line_of : Location.t -> int
(** First line of a location. *)

(** {1 Directives}

    The marker [manetcheck:] may appear anywhere inside a comment, so
    one comment can carry several directives.  [allow <rules> why]
    suppresses the named rules on the comment's lines plus the line
    below its last line; [allow-file <rules> why] suppresses file-wide;
    [cold why] marks branches off the hot path.  The rationale (prose
    up to the next marker) is mandatory: a directive without it, one
    naming no known rule, or the marker of a retired analyzer lands in
    [a_bad] and suppresses nothing. *)

type allows = {
  a_ranges : (string * int * int) list;
      (** rule, first (the directive's) and last covered line *)
  a_whole : (string * int) list;  (** file-wide: rule, directive line *)
  a_cold : (int * int) list;  (** cold directive comments' line ranges *)
  a_bad : (int * string) list;  (** malformed directives: line, message *)
}

val scan_allows : rules:string list -> string -> allows
(** [scan_allows ~rules src] reads every directive of [src]'s
    comments; [rules] are the names an allow may list. *)

(** {1 Parsing and per-file units} *)

type parsed =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature
  | Fail of int * string

type unit_ = {
  u_path : string;
  u_mod : string;  (** capitalized basename: the compilation unit name *)
  u_parsed : parsed;
  u_aliases : (string, string) Hashtbl.t;  (** local module aliases *)
  u_allows : allows;
  u_analyzed : bool;  (** false for reference-only (use-site) files *)
}

val mk_unit : rules:string list -> analyzed:bool -> string * string -> unit_
(** Build a unit from (path, content).  Directives are only read from
    analyzed units; reference files carry {!no_allows}. *)

val in_lib : unit_ -> bool
(** An analyzed unit under [lib/], the scope of most rules. *)

val parse_failures : unit_ list -> finding list
(** One ["parse"] finding per analyzed unit that failed to parse. *)

val lid_last : Longident.t -> string
(** Last component of a long identifier. *)

val resolve :
  (string, string) Hashtbl.t -> Longident.t -> string option * string
(** Map a reference to (optional module last-component, name), chasing
    one step of local [module X = A.B] aliases.  Library module
    basenames in this tree are distinct, so the last component
    identifies a module uniquely. *)

(** {1 Traversal} *)

val walk_expr : (Parsetree.expression -> unit) -> Parsetree.expression -> unit
(** Apply [f] to an expression and every expression nested in it. *)

val walk_unit : (Parsetree.expression -> unit) -> unit_ -> unit
(** {!walk_expr} over every expression of an implementation. *)

val is_function : Parsetree.expression -> bool
(** A [fun]/[function]/[newtype], looking through constraints. *)

val peel_funs : Parsetree.expression -> Parsetree.expression
(** The body under a function's parameters. *)

val peel_wrappers : Parsetree.expression -> Parsetree.expression
(** Strip type constraints, coercions and local opens. *)

(** {1 Top-level bindings} *)

type binding = {
  b_unit : unit_;
  b_mod : string;  (** enclosing module: file module or submodule *)
  b_name : string;
  b_expr : Parsetree.expression;
  b_line : int;
}

val binding_name : Parsetree.pattern -> string option
(** The variable a pattern binds, looking through type constraints. *)

val collect_bindings : unit_ -> binding list
(** Every top-level [let] of an implementation, nested [module struct]s
    included, in source order. *)

val fixpoint :
  ?init:(string * string) list ->
  binding list ->
  ((string * string, unit) Hashtbl.t -> binding -> bool) ->
  (string * string, unit) Hashtbl.t
(** [fixpoint ~init bindings step] is the least set of (module, name)
    keys containing [init] and every binding that [step set] admits
    given the set so far. *)

val sub_expressions : Parsetree.expression -> Parsetree.expression list
(** One-level expression children, for generic traversal cases. *)

(** {1 Suppression} *)

val finish : unit_ list -> finding list -> finding list
(** The shared tail of [analyze]: drop the findings an allow
    suppresses, add one unsuppressible ["annotation"] finding per
    malformed directive and per allowed rule that suppressed nothing,
    then sort and de-duplicate. *)

(** {1 Baseline}

    A baseline pins accepted pre-existing findings so that [@lint] only
    fails on {e new} ones.  Keys deliberately omit the line number so
    unrelated edits do not invalidate the baseline. *)

val finding_key : finding -> string
(** Stable identity of a finding: ["file|rule|msg"]. *)

val render_baseline : finding list -> string
(** Serialize findings as a sorted, de-duplicated baseline file. *)

val parse_baseline : string -> string list
(** Keys from a baseline file's contents ([#] comments, blanks skipped). *)

val diff_baseline :
  baseline:string list -> finding list -> finding list * string list
(** [(fresh, stale)]: findings whose key is not pinned, and pinned keys
    that no longer fire.  Both are failures. *)

val to_json : baseline:string list -> finding list -> string
(** All findings as a JSON array (each with a ["baselined"] flag), for
    the CI artifact. *)
