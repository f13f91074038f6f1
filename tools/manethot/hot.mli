(** manethot — hot-path allocation & complexity analyzer.

    Where manetsem checks the security argument and manetdom checks
    domain-safety, manethot checks {e scale}: it parses the tree with
    compiler-libs and flags patterns that are harmless in cold code but
    hostile on the per-event path — allocation per call, polymorphic
    compare/hash, O(n) list walks, per-event closure construction.

    Hotness is declarative.  A committed roster
    ([tools/manethot/hotpaths.sexp], one [(Module function)] form per
    entry) names the seed functions: engine event dispatch, [Net]
    delivery and neighbour scan, the crypto verify path, [Hist]/[Perf]
    record sites.  Every analyzed top-level function referenced
    (called, or installed as a callback) from a hot function becomes
    hot too, to a fixpoint — so the rules follow the event wherever the
    code takes it, without per-function annotations in the tree.

    Rules:
    - ["hot-alloc"] — per-call allocation in a hot body: closures,
      tuples, records, array/list literals, list cons, [lazy], [ref],
      [^] string concatenation, [String.concat]/[Printf.sprintf]-style
      string building, and [Array.make]/[Buffer.create]-style builder
      calls.
    - ["hot-poly"] — polymorphic [compare]/[min]/[max], structural
      [=]/[<>] against a constructed operand, and generic-[Hashtbl]
      operations (polymorphic hash) on hot paths.
    - ["hot-list"] — [List.length]/[nth]/[mem]/[assoc]/[find]/… (O(n))
      and [@] list append in hot bodies.
    - ["hot-partial"] — a partially-applied callback passed to a known
      higher-order sink ([Engine.schedule], [List.iter], …): the
      closure is rebuilt at every call site execution.
    - ["hot-boxed-store"] — an assignment [r.f <- e] in a hot body where
      [f] is declared [mutable f : float | int64 | int32 | nativeint] in
      a record that is not all-float (or in a constructor's inline
      record).  Such a field holds a pointer to a box, so every store of
      a computed value allocates one; an all-float record, a float
      array or a [Bytes] buffer stores the value flat.
    - ["roster"] — the hotpaths roster itself is malformed or names a
      function that no longer exists; the roster can never silently
      rot.
    - ["parse"] — a file failed to parse.

    Suppression uses the strict grammar (shared with manetdom): the
    directive [(* manethot: allow <rules> — rationale *)] may sit
    anywhere in a comment and {e must} carry a prose rationale after
    the rule names; a bare directive is itself an unsuppressible
    ["annotation"] finding.

    One directive cuts propagation instead of suppressing a finding:
    [(* manethot: cold — rationale *)] marks the branches (an [if] arm,
    or the body of a [match], [function] or [try] case) that start on
    the comment's lines or on the line below it.  A marked branch is off
    the hot path: the rules do not walk it and the functions it
    references do not become hot through it.  It is meant for code that
    runs only when someone listens, such as formatting an event detail
    for an enabled telemetry sink.  The rationale is mandatory, and a
    cold directive that marks no branch is an ["annotation"] finding
    too. *)

type finding = Analyzer_common.Common.finding = {
  file : string;
  line : int;
  rule : string;
  msg : string;
}

val rules : string list
(** Rule identifiers accepted by the [allow] directives. *)

val analyze : roster:string * string -> (string * string) list -> finding list
(** [analyze ~roster:(path, text) files] parses the roster, computes
    the hot set over [files] (path, content pairs) and runs every rule
    over hot function bodies.  Findings are sorted by file, line, rule
    and filtered through in-source [allow] annotations; roster and
    annotation findings cannot be suppressed. *)

val hot_set : roster:string -> (string * string) list -> (string * string) list
(** [hot_set ~roster files] is the computed hot set — roster seeds plus
    transitive callees — as sorted (module, function) pairs.  Exposed
    for tests of the propagation semantics. *)
