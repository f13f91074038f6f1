.PHONY: all build lint test bench clean

all: build lint test

build:
	dune build

# manetcheck, the one static analyzer (security argument, domain
# safety, hot path, project conventions), plus `manetsim scenario
# check` over the committed example scenarios, scale/ included.  Fails
# on any finding not pinned in tools/manetcheck/baseline and on any
# stale pin.
lint:
	dune build @lint

test:
	dune runtest

bench:
	dune exec bench/main.exe

clean:
	dune clean
