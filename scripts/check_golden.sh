#!/bin/sh
# Golden-output gate.  Every reference below is required byte-identical:
#  - bench/golden/tables_fig10_11.txt: regenerates Tables 1-4 and the
#    Fig 10/11 sweep, except for the one wall-clock line the fig10 run
#    prints (normalized away below);
#  - bench/golden/nest.txt: `hlsc flow` / `hlsc emit` on the loop-nest
#    designs (see scripts/nest_golden.sh);
#  - bench/golden/designs.txt: `hlsc flow` and an md5 of `hlsc emit` on
#    every design, sequential, II=1 and II=2 (see scripts/designs_golden.sh);
#  - bench/golden/sched_trace.txt: an md5 of `hlsc flow --trace`, which
#    logs every bind, on every design at seq/II=1/II=2 and 1200/1600/2400
#    ps (see scripts/sched_trace_golden.sh).
# Run from the repository root; CI runs it in the bench-smoke job so perf
# and refactoring work cannot silently change schedules.
set -eu

ref="bench/golden/tables_fig10_11.txt"
nest_ref="bench/golden/nest.txt"
designs_ref="bench/golden/designs.txt"
trace_ref="bench/golden/sched_trace.txt"
for f in "$ref" "$nest_ref" "$designs_ref" "$trace_ref"; do
  [ -f "$f" ] || { echo "missing $f" >&2; exit 1; }
done

out=$(mktemp)
nest_out=$(mktemp)
designs_out=$(mktemp)
trace_out=$(mktemp)
trap 'rm -f "$out" "$out.norm" "$ref.norm" "$nest_out" "$designs_out" "$trace_out"' EXIT

dune exec bench/main.exe -- table1 table2 table3 table4 fig10 > "$out"

# the only volatile line: "<n> HLS runs (paper: 25 runs) — <wall s, points/s>"
norm='s/^[0-9]* HLS runs (paper: 25 runs) — .*//'
sed "$norm" "$ref" > "$ref.norm"
sed "$norm" "$out" > "$out.norm"

if diff -u "$ref.norm" "$out.norm"; then
  echo "golden check OK: Tables 1-4 and Fig 10/11 match $ref"
else
  echo "golden check FAILED: regenerate deliberately with" >&2
  echo "  dune exec bench/main.exe -- table1 table2 table3 table4 fig10 > $ref" >&2
  exit 1
fi

./scripts/nest_golden.sh > "$nest_out"
if diff -u "$nest_ref" "$nest_out"; then
  echo "golden check OK: loop-nest flow/emit output matches $nest_ref"
else
  echo "golden check FAILED: regenerate deliberately with" >&2
  echo "  ./scripts/nest_golden.sh > $nest_ref" >&2
  exit 1
fi

./scripts/designs_golden.sh > "$designs_out"
if diff -u "$designs_ref" "$designs_out"; then
  echo "golden check OK: per-design flow/emit output matches $designs_ref"
else
  echo "golden check FAILED: regenerate deliberately with" >&2
  echo "  ./scripts/designs_golden.sh > $designs_ref" >&2
  exit 1
fi

./scripts/sched_trace_golden.sh > "$trace_out"
if diff -u "$trace_ref" "$trace_out"; then
  echo "golden check OK: scheduler traces match $trace_ref"
else
  echo "golden check FAILED: regenerate deliberately with" >&2
  echo "  ./scripts/sched_trace_golden.sh > $trace_ref" >&2
  exit 1
fi
