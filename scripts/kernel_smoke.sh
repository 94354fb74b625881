#!/usr/bin/env bash
# CI kernel-equiv gate: the compiled folded-kernel engine end to end.
#
#  1. The randomized three-way gate at the acceptance count: 200 seeded
#     random designs x micro-architectures x stimuli (stall patterns and
#     early exits included), behavioural == schedule-sim == compiled
#     kernel, plus an interpreted-vs-compiled cross-check of the full
#     kernel result record.  Deterministic; a failure logs its case seed.
#  2. An interpreted-vs-compiled diff (`hlsc cosim`) on built-in designs
#     and every checked-in .bhv example, including both flattened loop
#     nests — identical outputs and identical iteration / cycle / stall /
#     squash counters under three stall duty patterns each — and an
#     empty stimulus that must issue no iteration.
#  3. The `bench kernel` experiment in smoke mode, so the BENCH_kernel
#     code path (engine timing + its own fuzz batch) stays alive.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bin/hlsc.exe bench/main.exe

run() { dune exec --no-build bin/hlsc.exe -- "$@"; }

# 1: fixed-seed fuzz batch at the acceptance count
run fuzz --cases 200 --seed 2026

# 2: engine diff on representative micro-architectures (pipelined at
#    several IIs, a data-dependent exit, and both nest examples)
run cosim example1 --ii 1
run cosim example1 --ii 2
run cosim fir8 --ii 1
run cosim agc --ii 2
run cosim dotprod --ii 1
run cosim examples/satacc.bhv --ii 2
run cosim examples/matmul.bhv --ii 8x1 --iters 64
run cosim examples/stencil2d.bhv --ii 8400x2 --iters 64
# an empty stimulus issues no iteration in either engine
empty=$(run cosim example1 --ii 1 --iters 0)
grep -q "0 iterations" <<<"$empty" || { echo "FAIL: cosim --iters 0 issued an iteration"; exit 1; }

# 3: the experiment code path (short lengths, reduced fuzz batch)
smoke_dir=_build/bench-smoke
dune exec --no-build bench/main.exe -- kernel --smoke >/dev/null
grep -q '"fuzz"' "$smoke_dir/BENCH_kernel.json" || { echo "FAIL: BENCH_kernel.json has no fuzz record"; exit 1; }
grep -q '"failures":0' "$smoke_dir/BENCH_kernel.json" || { echo "FAIL: bench fuzz batch recorded failures"; exit 1; }

echo "kernel smoke OK: 200-case three-way fuzz clean, engines agree on all examples, bench path alive"
