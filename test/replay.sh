#!/bin/sh
# Replay gate: drives the built manetsim through --export and --out-dir
# and fails on the first export that is not reproducible.
#
#   sh test/replay.sh MANETSIM SCENARIO_DIR
#
# Writes everything under ./replay (run from _build/default/test by
# `dune runtest`):
#   a/, b/   `run --seed 1 --nodes 12` with every export kind
#   c/       the same run with every kind but report-json (wall time),
#            plus --profile and --progress, which must not move a byte
#   sweep-D/ the E1/E6 sweep grid at D = 1, 2 and 4 domains
#   scn-sweep-D/  partition_heal_r1.scn swept at D = 1 and 2 domains
#   scn/     every committed scenario file run once (blackhole_e1 also
#            with perf-json); their bytes are pinned by the golden test
#   heap/    scale/n300.scn and blackhole_e1.scn run with the GC
#            summary on: the heap gates
#   *.txt    the report, audit, perf and timeline readers' output
# a, b and c are compared with diff -r, leaving out report-json and
# comparing perf-json through `perf --det` (its wall-clock section
# varies between runs); each sweep is compared across domain counts.
set -eu

sim=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
scenarios=$(cd "$2" && pwd)
rm -rf replay
mkdir replay
cd replay

det="--export stats-csv --export audit-jsonl --export trace-jsonl \
--export metrics-csv --export metrics-prom --export perf-json \
--export timeline-jsonl"

mkdir a b c
"$sim" run --seed 1 --nodes 12 --out-dir a $det --export report-json > a.out
"$sim" run --seed 1 --nodes 12 --out-dir b $det --export report-json > b.out
"$sim" run --seed 1 --nodes 12 --out-dir c $det --profile --progress \
  > c.out 2> c.err
for r in a b c; do
  "$sim" perf "$r/run.perf.json" --det > "$r/run.perf.det"
done
diff -r -x '*.perf.json' -x '*.report.json' a b
diff -r -x '*.perf.json' -x '*.report.json' a c

grid="--e1-fractions 0.0,0.2 --e1-nodes 16 --e1-duration 10 --e6-sizes 10 \
--seeds 1,2"
merged="--export stats-csv --export audit-jsonl --export trace-jsonl \
--export perf-json --export timeline-jsonl"
for d in 1 2 4; do
  mkdir "sweep-$d"
  "$sim" sweep --domains "$d" $grid $merged --out-dir "sweep-$d" > "sweep-$d.out"
done
diff -r sweep-1 sweep-2
diff -r sweep-1 sweep-4

for d in 1 2; do
  mkdir "scn-sweep-$d"
  "$sim" sweep --scenario "$scenarios/partition_heal_r1.scn" --domains "$d" \
    --seeds 1,2 $merged --out-dir "scn-sweep-$d" > "scn-sweep-$d.out"
done
diff -r scn-sweep-1 scn-sweep-2

mkdir scn
for f in "$scenarios"/*.scn; do
  case "$f" in
  */blackhole_e1.scn) extra="--export perf-json" ;;
  *) extra="" ;;
  esac
  "$sim" run --scenario "$f" --out-dir scn $extra > "scn/$(basename "$f" .scn).out"
done

# Heap gates: the N = 300 point of the bootstrap N-curve (counters
# only) must peak at no more than 2,000,000 heap words, and
# blackhole_e1 (event capture on, spans rendered at their exact size)
# at no more than 700,000.  The GC summary that OCAMLRUNPARAM=v=0x400
# prints at exit is the simulator's own, since the binary runs directly.
heap_gate() {
  name=$(basename "$1" .scn)
  OCAMLRUNPARAM=v=0x400 "$sim" run --scenario "$1" --out-dir heap \
    > "heap/$name.out" 2> "heap/$name.gc"
  top=$(awk '$1 == "top_heap_words:" { print $2 }' "heap/$name.gc")
  [ -n "$top" ] && [ "$top" -le "$2" ] || {
    echo "heap gate: $name top_heap_words '$top' > $2" >&2
    exit 1
  }
}
mkdir heap
heap_gate "$scenarios/scale/n300.scn" 2000000
heap_gate "$scenarios/blackhole_e1.scn" 700000

"$sim" report a/run.trace.jsonl --top 5 > report.txt
"$sim" audit a/run.audit.jsonl > audit.txt
"$sim" perf a/run.perf.json > perf.txt
"$sim" perf scn/blackhole_e1.perf.json > scn-perf.txt
"$sim" perf scn/blackhole_e1.perf.json --det > scn-perf.det
"$sim" timeline a/run.timeline.jsonl > timeline.txt
"$sim" timeline sweep-1/sweep.timeline.jsonl --top 3 > sweep-timeline.txt
