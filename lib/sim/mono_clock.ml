(* Wall-clock sampling for the profiler.

   This is the ONE place the library touches host time.  The value never
   feeds back into the simulation: simulated time is Engine.now, PRNG
   streams are seeded, and every protocol decision is a function of
   those.  Profiling data derived from this clock lives in a separate
   side table (Engine.profile) and is exported only into the JSON run
   report, never into the deterministic JSONL trace — see DESIGN.md
   "Observability". *)

(* manetcheck: allow determinism — profiler wall clock: this module IS
   the designated wall-clock boundary, and its samples never enter the
   deterministic sim-time domain (see above). *)
let now_s () = Unix.gettimeofday ()
