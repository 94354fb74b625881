#!/usr/bin/env bash
# CI nest-smoke gate: the loop-nest pipelining path end to end.
#
#  1. Both checked-in nest examples (depth 2) and the gemm4 built-in
#     (depth 3) compile through `hlsc flow` with a per-dimension II
#     request, report a nest-II, and verify.
#  2. The 1-D unroll baseline is REFUSED on stencil2d (inner trip 4200 >
#     the 4096 unroll ceiling) with the typed unroll_overflow fault —
#     the strict multi-D win the PR claims.
#  3. The `bench nest` experiment runs in smoke mode and produces a
#     BENCH_nest.json where multi-D wins on every workload.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bin/hlsc.exe bench/main.exe

run() { dune exec --no-build bin/hlsc.exe -- "$@"; }

# 1: flattened multi-dimensional pipelines schedule and verify
out=$(run flow examples/matmul.bhv --ii 8x1)
echo "$out" | grep -q "nest-II=8x1" || { echo "FAIL: matmul missing nest-II=8x1"; echo "$out"; exit 1; }
echo "$out" | grep -q "\[verified\]" || { echo "FAIL: matmul not verified"; echo "$out"; exit 1; }

out=$(run flow examples/stencil2d.bhv --ii 8400x2)
echo "$out" | grep -q "nest-II=8400x2" || { echo "FAIL: stencil2d missing nest-II=8400x2"; echo "$out"; exit 1; }
echo "$out" | grep -q "\[verified\]" || { echo "FAIL: stencil2d not verified"; echo "$out"; exit 1; }

out=$(run flow gemm4 --ii 16x4x1)
echo "$out" | grep -q "nest-II=16x4x1" || { echo "FAIL: gemm4 missing nest-II=16x4x1"; echo "$out"; exit 1; }
echo "$out" | grep -q "\[verified\]" || { echo "FAIL: gemm4 not verified"; echo "$out"; exit 1; }

# 2: the unroll-limited 1-D baseline is refused on the wide nest
if err=$(run flow examples/stencil2d.bhv --nest unroll 2>&1); then
  echo "FAIL: stencil2d --nest unroll unexpectedly succeeded"; exit 1
fi
echo "$err" | grep -q "unroll_overflow" || { echo "FAIL: expected unroll_overflow, got: $err"; exit 1; }

# 3: the bench experiment's verdict
dune exec --no-build bench/main.exe -- nest --smoke >/dev/null
grep -q '"multi_d_wins":false' BENCH_nest.json && { echo "FAIL: a workload lost to the 1-D baseline"; exit 1; }
grep -q '"multi_d_wins":true' BENCH_nest.json || { echo "FAIL: no multi_d_wins entries in BENCH_nest.json"; exit 1; }

echo "nest smoke OK: both examples and gemm4 verified, 1-D baseline refused on stencil2d, multi-D wins recorded"
