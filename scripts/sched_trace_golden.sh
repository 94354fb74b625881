#!/bin/sh
# Prints one md5 per scheduler run: `hlsc flow --trace` (stdout and
# stderr together: the pass log, every bind with its arrival and slack,
# the result and the trace summary) on every design of
# scripts/designs_golden.sh, sequential, at II=1 and at II=2, each at
# 1200, 1600 and 2400 ps.  The five idct8x8 points that take more than a
# second are left out (II=1 at 1200 and 2400 ps, II=2 at every clock).
# The trace records every scheduling decision, so a change meant only to
# make the scheduler faster must leave these bytes as they are.
# scripts/check_golden.sh diffs this against bench/golden/sched_trace.txt;
# regenerate deliberately with
#   ./scripts/sched_trace_golden.sh > bench/golden/sched_trace.txt
# Run from the repository root.
set -eu

dune build bin/hlsc.exe
hlsc="./_build/default/bin/hlsc.exe"

designs="$($hlsc designs) $(ls examples/*.bhv | sort)"
for d in $designs; do
  for ii in "" "--ii 1" "--ii 2"; do
    for clock in 1200 1600 2400; do
      case "$d $ii $clock" in
        "idct8x8 --ii 1 1200" | "idct8x8 --ii 1 2400" | "idct8x8 --ii 2 "*) continue ;;
      esac
      args="$d${ii:+ $ii} --clock $clock --trace"
      # shellcheck disable=SC2086  # $args is a word list on purpose
      sum=$({ $hlsc flow $args 2>&1 || echo "exit $?"; } | md5sum | cut -d' ' -f1)
      echo "$sum  hlsc flow $args"
    done
  done
done
