#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; all
# arguments go to layerbench/main.exe (see main.ml).  Run from the root
# of the checkout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "layerbench: run from the root of a manetsec checkout" >&2
  exit 2
fi
# No shared dune cache: the build reads and writes only this checkout.
dune build --root . --cache=disabled --display quiet ./layerbench/main.exe >&2
exec ./_build/default/layerbench/main.exe "$@"
