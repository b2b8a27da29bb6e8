#!/usr/bin/env bash
# Build the benchmark from source inside this checkout, then run it with
# the given arguments (see benchmark/README.md). Build output goes to
# stderr, so the run's result stays the last line of stdout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
