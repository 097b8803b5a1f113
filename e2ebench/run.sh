#!/bin/sh
# Build the end-to-end benchmark from source (release profile) and run it.
#
#   sh e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr, so the last
# line of standard output is the benchmark's JSON result. The dune cache
# is disabled so that building writes only inside the checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled
export DUNE_CACHE
dune build --root . --profile release --display quiet ./e2ebench/main.exe 1>&2
exec ./_build/default/e2ebench/main.exe "$@"
