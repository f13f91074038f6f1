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

"$sim" report a/run.trace.jsonl --top 5 > report.txt
"$sim" audit a/run.audit.jsonl > audit.txt
"$sim" perf a/run.perf.json > perf.txt
"$sim" perf scn/blackhole_e1.perf.json > scn-perf.txt
"$sim" perf scn/blackhole_e1.perf.json --det > scn-perf.det
"$sim" timeline a/run.timeline.jsonl > timeline.txt
"$sim" timeline sweep-1/sweep.timeline.jsonl --top 3 > sweep-timeline.txt
