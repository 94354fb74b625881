#!/bin/sh
# Exit-code contract of the hlsc CLI:
#   0   — success
#   1   — typed diagnostic or bad input (unknown design, parse error,
#         overconstrained spec with --no-degrade, lint failure on emit)
#   124 — command-line misuse (cmdliner's CLI-error code: bad flag,
#         missing argument, unknown subcommand)
# Run from the repository root.
set -u

HLSC="dune exec --no-build bin/hlsc.exe --"
dune build bin/hlsc.exe || exit 1

fail=0
# [expect] runs hlsc under $WRAP (empty by default)
WRAP=
expect() {
  want=$1; label=$2; shift 2
  $WRAP $HLSC "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -eq "$want" ]; then
    echo "ok   $label -> $got"
  else
    echo "FAIL $label: expected exit $want, got $got" >&2
    fail=1
  fi
}

# success paths
expect 0 "schedule ok"            schedule example1 --ii 2
expect 0 "designs ok"             designs
expect 0 "version ok"             version

# typed diagnostics and bad inputs -> 1
expect 1 "unknown design"         schedule no_such_design
expect 1 "missing .bhv file"      schedule missing_file.bhv
expect 1 "overconstrained spec"   schedule example1 --ii 1 --latency 1..1 --no-degrade
expect 1 "bad latency bounds"     schedule example1 --latency nonsense
expect 1 "unrepresentable latency" flow example1 --latency=10000000..10000000
expect 1 "bad --jobs"             explore example1 --jobs 0
expect 1 "bad --clock"            flow example1 --clock 0
expect 1 "bad --timeout"          flow example1 --timeout=nan
expect 1 "bad --feedback-iters"   flow example1 --feedback-iters 0
expect 1 "negative --iters"       cosim example1 --iters=-3
expect 1 "bad --deadline (submit)" submit schedule example1 --deadline=-1 \
  --socket /tmp/hlsc_no_such.sock

# serve checks its flags before it binds; a regression that starts the
# daemon instead is stopped after 10 s (SIGTERM drains it, exit 0), so it
# fails here rather than hanging CI
tmp=$(mktemp -d)
WRAP="timeout --preserve-status 10"
expect 1 "bad --queue-capacity"   serve --socket "$tmp/s.sock" --queue-capacity 0
expect 1 "bad --deadline (serve)" serve --socket "$tmp/s.sock" --deadline=-1
expect 124 "no --watermark on serve" serve --socket "$tmp/s.sock" --watermark 48
WRAP=
rm -rf "$tmp"

# command-line misuse -> cmdliner's 124
expect 124 "bad flag"             schedule example1 --no-such-flag
expect 124 "unknown subcommand"   frobnicate
expect 124 "missing argument"     schedule
expect 124 "no --optimize on flow" flow example1 --optimize
expect 124 "no --optimize on compile" compile example1 --optimize

# an explicit --feedback-iters turns the loop on, even at its default value
if $HLSC flow idct --feedback-iters 2 2>&1 >/dev/null | grep -q feedback_iter; then
  echo "ok   --feedback-iters 2 implies --feedback"
else
  echo "FAIL --feedback-iters 2 ran without the feedback loop" >&2
  fail=1
fi

# service-tier typed errors -> 1
# no daemon behind the socket: a transport failure, not a crash
expect 1 "submit: no daemon"      submit schedule example1 --socket /tmp/hlsc_no_such.sock --retries 0
expect 1 "health: no daemon"      health --socket /tmp/hlsc_no_such.sock

# a daemon whose workers stall forever: the per-job deadline trips and
# the client exits 1 on the typed deadline_exceeded result
dir=$(mktemp -d)
sock="$dir/hlsc.sock"
$HLSC serve --socket "$sock" --jobs 1 --chaos-seed 1 --chaos-stall 1.0 --hb-timeout 30 \
  >"$dir/serve.log" 2>&1 &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  [ "$i" -le 50 ] || { echo "FAIL: stall daemon never bound" >&2; fail=1; break; }
  sleep 0.1
done
if [ -S "$sock" ]; then
  # health first: after the deadline kill below the slot is briefly dead
  # (mid-respawn backoff) and health legitimately reports degraded
  expect 0 "health: daemon up"    health --socket "$sock"
  expect 1 "deadline exceeded"    submit schedule example1 --ii 2 --socket "$sock" --deadline 0.2
fi
kill -TERM "$serve_pid" 2>/dev/null
wait "$serve_pid" 2>/dev/null
rm -rf "$dir"

[ "$fail" -eq 0 ] && echo "exit-code contract OK" || exit 1
