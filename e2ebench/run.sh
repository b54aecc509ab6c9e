#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash e2ebench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of the repository.  Build output goes to stderr, so
# the last line on stdout is the benchmark's JSON result.
set -euo pipefail
dune build --root . e2ebench/main.exe 1>&2
exec ./_build/default/e2ebench/main.exe "$@"
