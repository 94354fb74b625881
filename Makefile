.PHONY: all build test faults dse check fmt ci bench bench-dse bench-netlist bench-sched bench-scale bench-nest bench-feedback bench-kernel nest-smoke scale-smoke kernel-smoke bench-smoke bench-serve serve-smoke chaos-smoke feedback-smoke exit-codes golden clean

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

# the one target CI needs: everything builds (lib/diag, lib/check, lib/dse
# and lib/netlist with warnings-as-errors, see their dune files), the full
# suite passes, and the fault suite is re-run on its own so its output is
# visible
check: build test faults

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

# the DSE throughput experiment: sweeps the IDCT grid at --jobs 1 and
# --jobs 4 plus a cached re-sweep, and writes BENCH_dse.json
bench-dse:
	dune exec bench/main.exe -- dse

# the netlist engine experiment: incremental timing-query throughput and
# trial/rollback transaction throughput, written to BENCH_netlist.json
bench-netlist:
	dune exec bench/main.exe -- netlist

# the scheduler warm-start experiment: relaxation-loop wall clock with and
# without warm-start on synthetic-350 (pipelined + sequential) and idct,
# written to BENCH_sched.json
bench-sched:
	dune exec bench/main.exe -- sched

# the design-size sweep: schedules seeded synthetic designs at ~350 / 1k
# / 3k / 10k elaborated ops and writes the scaling curve (wall, queries,
# queries/s, passes, peak heap words) to BENCH_scale.json
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
# QoR on every bench workload, cross-point hint reuse in explore
# --feedback, and golden byte-identity with feedback off
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

# the compile-service experiment, two phases written to BENCH_serve.json
# as {"load":…,"chaos":…}: (1) a clean daemon driven by 8 concurrent
# clients x 4 requests (cold then warm), (2) a fault-injected daemon
# (workers killed, store entries corrupted; fixed seed) driven through
# the retrying client, recording retry rates and recovery latencies
bench-serve:
	dune build bin/hlsc.exe
	@rm -f /tmp/hlsc_bench.sock
	@rm -rf /tmp/hlsc_bench_store
	@dune exec --no-build bin/hlsc.exe -- serve --socket /tmp/hlsc_bench.sock --jobs 4 & \
	pid=$$!; \
	for i in $$(seq 50); do [ -S /tmp/hlsc_bench.sock ] && break; sleep 0.1; done; \
	dune exec --no-build bin/hlsc.exe -- bench-serve --socket /tmp/hlsc_bench.sock \
	  --clients 8 --requests 4 --design fir8 --cmd schedule --json /tmp/hlsc_bench_load.json; \
	rc=$$?; kill -TERM $$pid; wait $$pid; [ $$rc -eq 0 ] || exit $$rc
	@dune exec --no-build bin/hlsc.exe -- serve --socket /tmp/hlsc_bench.sock --jobs 4 \
	  --store-dir /tmp/hlsc_bench_store --chaos-seed 1 --chaos-kill 0.3 --chaos-corrupt 0.3 & \
	pid=$$!; \
	for i in $$(seq 50); do [ -S /tmp/hlsc_bench.sock ] && break; sleep 0.1; done; \
	dune exec --no-build bin/hlsc.exe -- bench-chaos --socket /tmp/hlsc_bench.sock \
	  --requests 24 --retries 8 --json /tmp/hlsc_bench_chaos.json; \
	rc=$$?; kill -TERM $$pid; wait $$pid; [ $$rc -eq 0 ] || exit $$rc; \
	printf '{"load":%s,"chaos":%s}\n' \
	  "$$(cat /tmp/hlsc_bench_load.json)" "$$(cat /tmp/hlsc_bench_chaos.json)" \
	  > BENCH_serve.json; \
	rm -rf /tmp/hlsc_bench_store; \
	echo "wrote BENCH_serve.json"

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

# what CI's bench-smoke job runs: one-rep sched + reduced-iteration
# netlist benches (so the experiment code paths stay alive), the golden
# byte-identity gate on Tables 1-4 / Fig 10-11 and the loop-nest designs,
# and one short pass of the end-to-end benchmark
bench-smoke:
	dune exec bench/main.exe -- sched netlist --smoke
	./scripts/check_golden.sh
	dune build @bench/e2e/smoke

clean:
	dune clean
