.PHONY: all build test faults dse hot-path check fmt ci bench bench-scale bench-nest bench-feedback bench-kernel nest-smoke scale-smoke kernel-smoke bench-smoke bench-serve serve-smoke chaos-smoke feedback-smoke exit-codes golden clean

all: build

build:
	dune build @all

test:
	dune runtest

# just the fault-injection suite (degraded libraries, malformed designs,
# exhausted budgets, degradation-ladder acceptance)
faults:
	dune exec test/test_main.exe -- test faults

# just the design-space-exploration suite (determinism across worker
# counts, memo-cache behaviour, Pareto-front dominance property)
dse:
	dune exec test/test_main.exe -- test dse

# no polymorphic compare or hash in the scheduler's hot-path modules
# (nm over their native objects; see the script's header)
hot-path:
	./scripts/hot_path_symbols.sh

# the one target CI needs: everything builds (lib/diag, lib/check, lib/dse
# and lib/netlist with warnings-as-errors, see their dune files), the full
# suite passes, the fault suite is re-run on its own so its output is
# visible, and the hot-path modules stay free of polymorphic compare
check: build test faults hot-path

# reformat in place (requires ocamlformat; a no-op under the repo's
# `disable` profile until formatting is adopted file by file)
fmt:
	dune build @fmt --auto-promote

# what .github/workflows/ci.yml runs: the full check plus the format gate.
# The format gate is skipped gracefully where ocamlformat is not installed.
ci: check
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

bench:
	dune exec bench/main.exe

# the design-size sweep: schedules seeded synthetic designs at ~350 / 1k
# / 3k / 10k elaborated ops, three runs each, and writes the scaling curve
# (median wall with min and max, queries, passes, decision counters) to
# BENCH_scale.json
bench-scale:
	dune exec bench/main.exe -- scale

# what CI's scale-smoke job runs: the ~350 and ~1k-op sweep points with a
# generous wall-clock guard on the 1k point (MAX_WALL_1K to override)
scale-smoke:
	./scripts/scale_smoke.sh

# the loop-nest experiment: 1-D unroll baseline vs the flattened
# multi-dimensional pipeline on the two checked-in nest examples,
# written to BENCH_nest.json
bench-nest:
	dune exec bench/main.exe -- nest

# what CI's nest-smoke job runs: both nest examples and the depth-3
# gemm4 built-in through `hlsc flow` with per-dimension IIs, the
# unroll_overflow refusal on stencil2d, and the bench nest multi-D verdict
nest-smoke:
	./scripts/nest_smoke.sh

# the feedback experiment: scheduler passes and QoR with and without the
# subgraph-extraction feedback loop on the table designs + synthetic-350,
# written to BENCH_feedback.json
bench-feedback:
	dune exec bench/main.exe -- feedback

# what CI's feedback-smoke job runs: pass reduction at equal-or-better
# QoR on every bench workload and cross-point hint reuse in explore
# --feedback
feedback-smoke:
	./scripts/feedback_smoke.sh

# the compiled-cosim experiment: interpreted vs compiled folded-kernel
# throughput across stimulus lengths 1e2..1e6 plus a 300-case three-way
# fuzz batch, written to BENCH_kernel.json
bench-kernel:
	dune exec bench/main.exe -- kernel

# what CI's kernel-equiv job runs: the 200-case fixed-seed three-way fuzz
# gate, an interpreted-vs-compiled diff on built-ins and every .bhv
# example (both nests included), and the bench kernel path in smoke mode
kernel-smoke:
	./scripts/kernel_smoke.sh

# the compile-service chaos experiment, written to BENCH_serve.json: a
# fault-injected daemon (workers killed, store entries corrupted; fixed
# seed) driven through the retrying client, recording retry rates and
# recovery latencies.  Service throughput and latency are measured by
# the end-to-end benchmark's serve workload (bench/e2e)
bench-serve:
	dune build bin/hlsc.exe
	@rm -f /tmp/hlsc_bench.sock
	@rm -rf /tmp/hlsc_bench_store
	@dune exec --no-build bin/hlsc.exe -- serve --socket /tmp/hlsc_bench.sock --jobs 4 \
	  --store-dir /tmp/hlsc_bench_store --chaos-seed 1 --chaos-kill 0.3 --chaos-corrupt 0.3 & \
	pid=$$!; \
	for i in $$(seq 50); do [ -S /tmp/hlsc_bench.sock ] && break; sleep 0.1; done; \
	dune exec --no-build bin/hlsc.exe -- bench-chaos --socket /tmp/hlsc_bench.sock \
	  --requests 24 --retries 8 --json BENCH_serve.json; \
	rc=$$?; kill -TERM $$pid; wait $$pid; [ $$rc -eq 0 ] || exit $$rc; \
	rm -rf /tmp/hlsc_bench_store

# daemon round trip: submit vs offline byte-identity, cache hits, SIGTERM
# drain without a leaked socket (what CI's serve-smoke job runs)
serve-smoke:
	./scripts/serve_smoke.sh

# the chaos acceptance gate: kill/stall/corrupt injection with a fixed
# seed, byte-identity through the retrying client, graceful drain, and
# quarantine-on-restart of corrupt store entries (CI's chaos-smoke job)
chaos-smoke:
	./scripts/chaos_smoke.sh

# the CLI exit-code contract: 0 ok / 1 typed diagnostic / 124 CLI misuse
exit-codes:
	./scripts/exit_codes.sh

# regenerate-and-compare gate for the committed paper artifacts
golden:
	./scripts/check_golden.sh

# what CI's bench-smoke job runs: a check that the retired sched
# experiment is gone and an unknown experiment name fails, the golden
# byte-identity gate on Tables 1-4 / Fig 10-11 and the loop-nest designs,
# and one short pass of the end-to-end benchmark
bench-smoke:
	! dune exec bench/main.exe -- sched
	./scripts/check_golden.sh
	dune build @bench/e2e/smoke

clean:
	dune clean
