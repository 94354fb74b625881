#!/usr/bin/env bash
# CI feedback-smoke gate: subgraph-extraction feedback-guided iterative
# scheduling end to end.
#
#  1. The `bench feedback` experiment (fixed designs, fixed synthetic
#     seed) shows every workload reaching equal-or-better (II, LI, area)
#     in strictly fewer scheduler passes with --feedback on.
#  2. `hlsc explore --feedback` reuses mined hints across grid points
#     (the cross-point hint store actually warms later points).
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bin/hlsc.exe bench/main.exe

# 1: pass reduction at no QoR cost, recorded in BENCH_feedback.json
smoke_dir=_build/bench-smoke
dune exec --no-build bench/main.exe -- feedback --smoke >/dev/null
grep -q '"fewer_passes":false' "$smoke_dir/BENCH_feedback.json" && { echo "FAIL: a workload did not reduce passes"; exit 1; }
grep -q '"qor_no_worse":false' "$smoke_dir/BENCH_feedback.json" && { echo "FAIL: feedback worsened QoR on a workload"; exit 1; }
grep -q '"fewer_passes":true' "$smoke_dir/BENCH_feedback.json" || { echo "FAIL: no feedback workloads recorded"; exit 1; }

# 2: exploration shares hints across points
out=$(dune exec --no-build bin/hlsc.exe -- explore idct --grid "ii=2,4;latency=none;clock=1200,1600" --feedback)
echo "$out" | grep -Eq "feedback: [1-9][0-9]* point\(s\) hint-warmed" \
  || { echo "FAIL: explore --feedback reported no hint-warmed points"; echo "$out" | tail -2; exit 1; }

echo "feedback smoke OK: fewer passes at equal-or-better QoR, cross-point hint reuse"
