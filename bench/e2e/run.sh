#!/usr/bin/env bash
# Build the end-to-end benchmark and the hlsc daemon from source, then run
# e2e.exe with the given arguments (see README.md), e.g.
#   bash bench/e2e/run.sh --workload designs --seed 1 --seconds 15 --trace 0
#   bash bench/e2e/run.sh run --seed 1 --out e2e-out
set -euo pipefail
cd "$(dirname "$0")/../.."
# the build stays inside the checkout: no shared dune cache
DUNE_CACHE=disabled dune build --root . bench/e2e/e2e.exe bin/hlsc.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@" --hlsc ./_build/default/bin/hlsc.exe
