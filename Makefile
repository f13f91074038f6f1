.PHONY: all build lint test bench scenarios perf benchgate clean

all: build lint test

build:
	dune build

# manetcheck, the one static analyzer (security argument, domain
# safety, hot path, project conventions), plus `manetsim scenario
# check` over the committed example scenarios.  Fails on any finding
# not pinned in tools/manetcheck/baseline and on any stale pin.
lint:
	dune build @lint

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Validate and smoke-run every committed scenario file.
scenarios:
	dune exec bin/manetsim.exe -- scenario check examples/scenarios/*.scn
	mkdir -p _scn_out
	for f in examples/scenarios/*.scn; do \
	  dune exec bin/manetsim.exe -- run --scenario $$f --out-dir _scn_out || exit 1; \
	done

# Regenerate this PR's perf snapshot and gate it against the previous
# PR's committed one (hard-fails only on matching host core counts).
perf:
	dune exec bench/main.exe -- perf

benchgate: perf
	dune exec tools/benchgate/main.exe -- BENCH_9.json BENCH_10.json

benchtrend:
	dune exec tools/benchtrend/main.exe -- BENCH_6.json BENCH_7.json BENCH_8.json BENCH_9.json BENCH_10.json

clean:
	dune clean
