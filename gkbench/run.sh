#!/bin/sh
# Build the benchmark from source and run it:
#   sh gkbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr and to
# _build/; the dune cache is off so nothing is written outside the
# working directory.
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f gkbench/dune ]; then
  echo "gkbench: run from the root of a full source checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./gkbench/gkbench.exe >&2
exec ./_build/default/gkbench/gkbench.exe "$@"
