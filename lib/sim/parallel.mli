(** Deterministic fan-out of independent tasks across OCaml 5 domains.

    This is the {e only} module in the tree sanctioned to touch the
    [Domain] API — manetcheck's ["domain-primitive"] rule pins concurrency
    primitives to this file so that the rest of the simulation core
    stays reviewable as strictly sequential code.  The contract that
    makes the fan-out safe is certified by manetcheck's other domain rules: no
    top-level mutable state anywhere under [lib/], so tasks passed to
    {!map} share nothing unless the caller threads it in explicitly.

    Determinism contract: [map ~domains f xs] returns results in the
    order of [xs], and the result list is {e independent of [domains]}
    — scheduling only changes wall-clock, never output.  Callers (the
    sweep runner) rely on this to produce byte-identical merged exports
    at any domain count. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] — what [--domains 0] resolves
    to in the CLI. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] applies [f] to every element of [xs] using up to
    [domains] concurrent domains (clamped to [1 .. length xs]; values
    [<= 1] run inline with no [Domain.spawn], the graceful fallback for
    single-core hosts or OCaml builds without effective parallelism).

    Work is dealt round-robin by index; the calling domain acts as
    worker 0, so [domains = 2] spawns one extra domain.  Exception
    semantics are identical at every domain count: every task runs,
    every spawned domain is joined, and then the first failure {e in
    input order} is re-raised with its original backtrace. *)
