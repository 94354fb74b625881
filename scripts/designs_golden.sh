#!/bin/sh
# Prints the reference output for every design: `hlsc flow` on each
# built-in design and each examples/*.bhv, sequential, at II=1 and at
# II=2, all at 1600 ps (idct8x8 at II=2 left out: it alone takes longer
# than all the others), followed by the md5 of the `hlsc emit` Verilog,
# or "emit refused" when emit fails.  These are the 44 requests of the
# end-to-end benchmark's `designs` workload.  scripts/check_golden.sh
# diffs this against bench/golden/designs.txt; regenerate deliberately with
#   ./scripts/designs_golden.sh > bench/golden/designs.txt
# Run from the repository root.
set -eu

dune build bin/hlsc.exe
hlsc="./_build/default/bin/hlsc.exe"
v=$(mktemp)
trap 'rm -f "$v"' EXIT

designs="$($hlsc designs) $(ls examples/*.bhv | sort)"
for d in $designs; do
  for ii in "" "--ii 1" "--ii 2"; do
    case "$d $ii" in "idct8x8 --ii 2") continue ;; esac
    args="$d${ii:+ $ii} --clock 1600"
    echo "== hlsc flow $args"
    # shellcheck disable=SC2086  # $args is a word list on purpose
    $hlsc flow $args 2>/dev/null || echo "flow failed"
    # shellcheck disable=SC2086
    if $hlsc emit $args -o "$v" >/dev/null 2>&1; then
      echo "emit $(md5sum < "$v" | cut -d' ' -f1)"
    else
      echo "emit refused"
    fi
  done
done
