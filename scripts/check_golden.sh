#!/bin/sh
# Golden-output gate.  Two references, both required byte-identical:
#  - bench/golden/tables_fig10_11.txt: regenerates Tables 1-4 and the
#    Fig 10/11 sweep, except for the one wall-clock line the fig10 run
#    prints (normalized away below);
#  - bench/golden/nest.txt: `hlsc flow` / `hlsc emit` on the loop-nest
#    designs (see scripts/nest_golden.sh).
# Run from the repository root; CI runs it in the bench-smoke job so perf
# and refactoring work cannot silently change schedules.
set -eu

ref="bench/golden/tables_fig10_11.txt"
nest_ref="bench/golden/nest.txt"
for f in "$ref" "$nest_ref"; do
  [ -f "$f" ] || { echo "missing $f" >&2; exit 1; }
done

out=$(mktemp)
nest_out=$(mktemp)
trap 'rm -f "$out" "$out.norm" "$ref.norm" "$nest_out"' EXIT

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
