#!/bin/sh
# Replay gate: drives the built manetsim through --export and --out-dir
# and fails on the first export that is not reproducible.
#
#   sh test/replay.sh MANETSIM SCENARIO_DIR
#
# Writes everything under ./replay (run from _build/default/test by
# `dune runtest`):
#   a/, b/   `run secure_n12.scn` with every export kind
#   c/       the same run with every kind but report-json (wall time),
#            plus --profile and --progress, which must not move a byte
#   sweep-D/ every top-level scenario file swept at seeds 1 and 2 on
#            D = 1, 2 and 4 domains
#   dup/     sweeps with a repeated run key and with a malformed file,
#            which must fail before any run and write nothing
#   scn/     every committed scenario file run once (blackhole_e1 also
#            with perf-json); their bytes are pinned by the golden test,
#            and `audit` must read mixed_adversaries' stream into its
#            per-node scorecards
#   heap/    scale/n300.scn, dsr_faults.scn and blackhole_e1.scn run
#            with the GC summary on: the heap gates
#   check.txt  `scenario check` over every committed file, scale/
#            included, which must equal test/golden/scenario_check.txt
#   *.txt    the report, audit, perf and timeline readers' output
# a, b and c are compared with diff -r, leaving out report-json and
# comparing perf-json through `perf --det` (its wall-clock section
# varies between runs); the sweep is compared across domain counts.
set -eu

sim=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
scenarios=$(cd "$2" && pwd)
golden=$(cd "$(dirname "$0")" && pwd)/golden
rm -rf replay
mkdir replay
cd replay

det="--export stats-csv --export audit-jsonl --export trace-jsonl \
--export metrics-csv --export metrics-prom --export perf-json \
--export timeline-jsonl"

mkdir a b c
n12="$scenarios/secure_n12.scn"
"$sim" run "$n12" --out-dir a $det --export report-json > a.out
"$sim" run "$n12" --out-dir b $det --export report-json > b.out
"$sim" run "$n12" --out-dir c $det --profile --progress > c.out 2> c.err
for r in a b c; do
  "$sim" perf "$r/secure_n12.perf.json" --det > "$r/secure_n12.perf.det"
done
diff -r -x '*.perf.json' -x '*.report.json' a b
diff -r -x '*.perf.json' -x '*.report.json' a c

merged="--export stats-csv --export audit-jsonl --export trace-jsonl \
--export perf-json --export timeline-jsonl"
for d in 1 2 4; do
  mkdir "sweep-$d"
  "$sim" sweep "$scenarios"/*.scn --domains "$d" --seeds 1,2 $merged \
    --out-dir "sweep-$d" > "sweep-$d.out"
done
diff -r sweep-1 sweep-2
diff -r sweep-1 sweep-4

# A repeated (scenario, seed) key is refused before any run, and a
# malformed file after a good one before the good one runs.
mkdir dup
if "$sim" sweep "$scenarios/partition_heal_r1.scn" --seeds 1,1 \
  --out-dir dup > dup.out 2> dup.err; then
  echo "sweep accepted a repeated run key" >&2
  exit 1
fi
grep -q "duplicate run key (partition_heal_r1, 1)" dup.err
printf '(scenario\n  (nodes 3)' > dup/bad.scn
if "$sim" sweep "$scenarios/blackhole_e1.scn" dup/bad.scn \
  --out-dir dup > bad.out 2> bad.err; then
  echo "sweep accepted a malformed file" >&2
  exit 1
fi
grep -q "dup/bad.scn:1:1: " bad.err
[ "$(ls dup)" = bad.scn ] && [ ! -s bad.out ]

mkdir scn
for f in "$scenarios"/*.scn; do
  case "$f" in
  */blackhole_e1.scn) extra="--export perf-json" ;;
  *) extra="" ;;
  esac
  "$sim" run "$f" --out-dir scn $extra > "scn/$(basename "$f" .scn).out"
done
"$sim" audit scn/mixed_adversaries.audit.jsonl --no-timeline > scn/mixed_adversaries.audit.txt
grep -q '^-- per-node scorecards ' scn/mixed_adversaries.audit.txt
grep -q '^node [0-9]*: [0-9]* emitted, [0-9]* accusations$' scn/mixed_adversaries.audit.txt

# Heap gates: the N = 300 point of the bootstrap N-curve (counters
# only, so no flood keeps a propagation tree and no span is kept) must
# peak at no more than 480,000 heap words (439,853 today);
# dsr_faults (counters-only plain DSR with faults and churn, so no span,
# note or correlation key is kept) at no more than 135,000 (122,959
# today); and blackhole_e1 (event capture on, spans rendered at their
# exact size) at no more than 700,000.  The GC summary that
# OCAMLRUNPARAM=v=0x400 prints at exit is the simulator's own, since
# the binary runs directly.
heap_gate() {
  name=$(basename "$1" .scn)
  OCAMLRUNPARAM=v=0x400 "$sim" run "$1" --out-dir heap \
    > "heap/$name.out" 2> "heap/$name.gc"
  top=$(awk '$1 == "top_heap_words:" { print $2 }' "heap/$name.gc")
  [ -n "$top" ] && [ "$top" -le "$2" ] || {
    echo "heap gate: $name top_heap_words '$top' > $2" >&2
    exit 1
  }
}
mkdir heap
heap_gate "$scenarios/scale/n300.scn" 480000
heap_gate "$scenarios/dsr_faults.scn" 135000
heap_gate "$scenarios/blackhole_e1.scn" 700000

# What `scenario check` reports of each committed file (node, flow,
# adversary, fault and export counts) is pinned line for line.
(cd "$scenarios" && "$sim" scenario check *.scn scale/*.scn) > check.txt
diff "$golden/scenario_check.txt" check.txt

"$sim" report a/secure_n12.trace.jsonl --top 5 > report.txt
"$sim" audit a/secure_n12.audit.jsonl > audit.txt
"$sim" perf a/secure_n12.perf.json > perf.txt
"$sim" perf scn/blackhole_e1.perf.json > scn-perf.txt
"$sim" perf scn/blackhole_e1.perf.json --det > scn-perf.det
"$sim" timeline a/secure_n12.timeline.jsonl > timeline.txt
"$sim" timeline sweep-1/sweep.timeline.jsonl --top 3 > sweep-timeline.txt
# A run's key reads as the sweep's per-run line writes it: plain text.
grep -q '^run scenario=baseline_bootstrap seed=1 ' sweep-timeline.txt
