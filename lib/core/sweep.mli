(** Parameter sweeps over the E1 / E6 experiment grids, fanned across
    domains.

    This is what manetcheck's domain-safety certificate buys: every
    {!point} is an independent simulation (its own engine, PRNG streams,
    telemetry and audit sinks — nothing shared at module level anywhere
    under [lib/]),
    so replications can run on concurrent domains via
    {!Manet_sim.Parallel.map} and still merge into byte-identical
    exports at any [~domains] value.

    Grid points:
    - E1 (black-hole fractions): the §3.4 evaluation scenario — secure
      routing with credits and probes against forging black holes, at
      each requested adversary fraction.
    - E6 (N sweep): the §3.1 secure-DAD bootstrap storm at each
      requested network size (no adversaries).

    Every run carries the uniform key
    [(experiment, n, fraction, seed)] — E6 points report fraction 0.0 —
    so a single sweep can mix both grids and still satisfy
    {!Manet_obs.Merge}'s same-key-fields requirement. *)

type point =
  | E1_blackhole of { n : int; fraction : float; seed : int; duration : float }
  | E6_bootstrap of { n : int; seed : int }

type spec = {
  e1_fractions : float list;  (** adversary fractions; [[]] disables E1 *)
  e1_nodes : int;  (** E1 network size *)
  e1_duration : float;  (** E1 CBR traffic duration, seconds *)
  e6_sizes : int list;  (** E6 network sizes; [[]] disables E6 *)
  seeds : int list;  (** replications per grid point *)
}

val default_spec : spec
(** The bench-scale grid: fractions 0.0/0.2/0.4 at 36 nodes for 60 s,
    E6 at 10/20/40 nodes, seeds 1-3. *)

val points : spec -> point list
(** The full grid in deterministic order (E1 fraction-major, then E6
    size-major; seeds innermost). *)

val run :
  domains:int -> exports:Export.kind list -> spec -> Manet_obs.Merge.run list
(** Run every grid point, fanning across [domains] concurrent domains
    ([1] runs inline — the single-core fallback), and return the
    per-run artefacts in canonical merged order.  Each point switches
    on only the sinks [exports] read ({!Export.prepare}: event capture
    only for [Trace_jsonl]); each run's [stats] is the scenario's
    sorted counter list and its [streams] are one per requested stream
    kind ({!Export.merge_run}).  The returned list — and therefore
    {!Export.merged} over it — is independent of [domains].  Raises
    [Invalid_argument] on a kind with no merged form. *)
