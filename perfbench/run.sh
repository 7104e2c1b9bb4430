#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout, then runs it:
#   bash perfbench/run.sh --workload compile|serve --seed N --seconds S --trace 0|1
# Run from the root of the checkout. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
