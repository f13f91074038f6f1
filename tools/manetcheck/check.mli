(** manetcheck — the static analyzer of the manetsec tree.

    One pass: every file is parsed once with compiler-libs, every rule
    walks the AST, and the findings go through the directives of
    {!Analyzer_common.Common} and the committed baseline.  Scopes:
    every rule analyzes [lib/]; [obj-magic] and [catch-all] also cover
    [bin/] and [test/].  Use-site files (bench, examples, layerbench,
    tools, and bin/test for the rules that skip them) only feed the
    two export rules and [proto-schema].  The test roots ([test/]) are
    analyzed like [bin/], but a reference from them does not make a
    lib value live: it makes it a [test-only-export].

    Security argument (sem.ml):
    - ["taint"] — a value destructured from a signed {!Messages.t}
      constructor reaches a state-mutating sink (routing table, DNS
      directory, credit store, protocol state fields) on a path no
      [verify]/CGA check guards, directly or through a helper; the input
      of [consume_reply]/[consume_rerr], and of a [~check] passed to
      them, is tainted from entry, and building [Accepted] is a sink.
    - ["security"] — a handler ([handle*], [consume*], [observe*],
      [serve*], [receive*], [on_*]) arm destructures a signed message's
      record, or binds it whole ([Rreq r]), without mentioning a
      verifier (a verify/cga_check/_mac name or a function that calls
      one) in its guard or body.
    - ["dispatch"] — a protocol [handle] dispatch in [lib/dad],
      [lib/dns], [lib/dsr] or [lib/secure] hides or misses a
      [Messages.t] constructor.
    - ["codec"] — a [Codec.*_payload] builder never used, or never used
      in both a signing and a verification context.
    - ["proto-schema"] — a message constructor ([Messages.t]'s, or
      those of a variant one of them carries) without exactly one
      entry in messages.ml's table (a [desc] binding with a literal
      [~wire:<n>] no other entry takes), or without a mention in
      test_binary.ml / test_proto.ml.
    - ["determinism"] — wall-clock reads, [Hashtbl.hash], and
      [Hashtbl.iter] / unordered [Hashtbl.fold] whose order can leak
      into outputs.
    - ["dead-export"] — a top-level lib [.mli] val never referenced
      outside its own module anywhere in the tree.
    - ["test-only-export"] — a top-level lib [.mli] val referenced
      outside its own module only from the test roots.  A reference a
      test compares against belongs in a submodule named [Oracle],
      which neither rule reads.

    Domain safety (dom.ml):
    - ["toplevel-state"] — a top-level binding whose initialiser
      allocates mutable state (refs, non-empty arrays, builders,
      mutable records, or a call to a function returning such a value).
    - ["toplevel-lazy"] — a top-level [lazy]: forcing is not atomic
      across domains.
    - ["escaping-memo"] — a table allocated at module init and captured
      by the closure the binding evaluates to.
    - ["global-rng"] — any use of the process-global [Random], and an
      exported function reaching one through its call graph.
    - ["domain-primitive"] — [Domain]/[Atomic]/[Mutex]/[Condition]/
      [Semaphore]/[Thread] outside [lib/sim/parallel.ml].

    Hot path (hot.ml).  The roster [tools/manetcheck/hotpaths.sexp]
    names seed functions, one [(Module function)] per entry; every
    function they reference becomes hot, to a fixpoint (a local that
    shares a top-level function's name is not a reference to it):
    - ["hot-alloc"] — per-call allocation (closures, tuples, records,
      literals, list cells, [ref], string building, builders).
    - ["hot-poly"] — polymorphic [compare]/[min]/[max], structural
      [=]/[<>] against a constructed operand, generic [Hashtbl] ops.
    - ["hot-list"] — O(n) [List] lookups and [@].
    - ["hot-partial"] — a partially applied callback passed to a known
      higher-order sink.
    - ["hot-boxed-store"] — a store into a mutable boxed-scalar field
      of a record that is not all-float.
    - ["hot-string-key"] — any operation on a [Hashtbl.Make (String)]
      instance declared in the same file: it hashes and compares the
      key's characters per call.
    - ["roster"] — a malformed roster entry, or one naming no function.

    Conventions (conv.ml):
    - ["obj-magic"] — [Obj.magic] anywhere.
    - ["catch-all"] — a [try]/[match] whose first arm is a bare [_].
    - ["failwith"] — [failwith] in lib: raise a typed exception.
    - ["obs-no-printf"] — stdout/stderr printing in lib.
    - ["poly-compare"] — polymorphic [compare] (before any local
      definition) or [=]/[<>] between address fields, outside the hot
      set (where hot-poly owns compares).
    - ["placeholder-sig"] — [sig_* = ""] in lib/secure, lib/dad,
      lib/dns.
    - ["audit-counter"] — a security-shaped counter bumped with
      [Ctx.stat]/[Ctx.stat_by]/[Stats.incr]/[Stats.add] instead of the
      audit path; the counter's name is read from a literal or through
      the [Stats.key "name"] binding of its key.
    - ["schedule-label"] — [Engine.schedule(_at)] without [~label].
    - ["flood-origin-label"] — [Ctx.broadcast] in a flooding protocol
      with no [Flood.] call before it in the same function.
    - ["scenario-keyword"] — a lib/scenario literal that belongs to the
      schema.ml keyword table.
    - ["mli-coverage"] — a lib module without an [.mli].

    ["parse"] — a file failed to parse.  ["annotation"] — a malformed
    or retired directive, an allow that suppresses nothing, or a cold
    directive that marks no branch; it can never be suppressed. *)

val rules : string list
(** Every rule an allow may name (all of the above but
    ["annotation"]). *)

val analyze :
  ?uses:(string * string) list ->
  ?tests:(string * string) list ->
  ?roster:string * string ->
  (string * string) list ->
  Analyzer_common.Common.finding list
(** [analyze ~uses ~tests ~roster files] runs every rule over [files]
    and [tests] (path, content pairs).  [uses] are parsed as use-sites
    only; a reference from [tests] counts only as a test use; [roster] is
    the hot-path roster as (path, text), empty by default.  Findings
    are sorted and already filtered through the directives. *)

val hot_set : roster:string -> (string * string) list -> (string * string) list
(** The hot set of [files] under a roster text: seeds plus transitive
    callees, as sorted (module, function) pairs. *)
