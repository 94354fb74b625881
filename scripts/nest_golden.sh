#!/bin/sh
# Prints the reference output for the loop-nest designs: `hlsc flow` and
# `hlsc emit` on the two nest examples (depth 2) and the gemm4 built-in
# (depth 3), each with a per-dimension II and with the design's own loop
# attributes.  scripts/check_golden.sh diffs this against
# bench/golden/nest.txt; regenerate deliberately with
#   ./scripts/nest_golden.sh > bench/golden/nest.txt
# Run from the repository root.
set -eu

dune build bin/hlsc.exe

for args in "examples/matmul.bhv --ii 8x1" "examples/matmul.bhv" \
            "examples/stencil2d.bhv --ii 8400x2" "examples/stencil2d.bhv" \
            "gemm4 --ii 16x4x1" "gemm4"; do
  for cmd in flow emit; do
    echo "== hlsc $cmd $args"
    # shellcheck disable=SC2086  # $args is a word list on purpose
    dune exec --no-build bin/hlsc.exe -- $cmd $args
  done
done
