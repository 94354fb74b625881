#!/usr/bin/env bash
# CI scale-smoke gate: run the design-size sweep at smoke sizes (~350 and
# ~1k elaborated ops) and enforce three guards on the ~1k point:
#  - a generous wall-clock guard.  It is deliberately loose (CI machines
#    are slow and shared): it exists to catch superlinear regressions that
#    push the 1k point from under a second into the tens of seconds, not
#    to benchmark;
#  - a ceiling on its netlist timing queries.  The count is deterministic,
#    so this guard holds on any machine: the saturation screen keeps it
#    near 71k (525k without the screen's downstream walk), and 150k fails
#    as soon as the screen silently stops deciding busy rejections;
#  - a ceiling on the nodes the structural-cycle detector's searches
#    visit, also deterministic: one backward search per attempt, kept to
#    the incremental topological order's window, keeps it near 15k; the
#    same search over every ancestor of the chain sources visits about
#    25k, and a plain DFS per query about 160k;
#  - the exact pass and query counts of the ~1k point (10 passes, 71090
#    queries), and the binder's exact decision counts there: the (op,
#    step) bind attempts (8828), the candidate bindings they checked
#    (52463), the candidates the all-busy verdict decided unchecked (893;
#    checked, they would be 893 more busy rejections), the checked ones
#    the per-type slack bound rejected (13301) and the candidates checked
#    by attempts that failed (31953).  All are deterministic, so a change
#    meant only to make the scheduler faster that moves the schedule it
#    finds at this size, or the candidates it walks to find it, fails
#    here.  A change that moves them on purpose updates the constants
#    below;
#  - the exact saturation-screen counts of the ~1k point: the screens the
#    instance slack floor rules out before pricing anyone (2420) and the
#    screens that run and prove nothing (221).  A floor that stops ruling
#    screens out moves both.
# The ~359-op (II=2) point is pinned the same way, exactly: 3 passes,
# 10100 queries, 2132 attempts, 3919 candidates (555 more decided all
# busy), 506 slack-bound rejections, 2528 candidates in failed attempts,
# 379 skipped and 24 futile screens.  Unlike the ~1k point it runs prefix replay, so a
# change to the warm start that moves a schedule shows here.
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_WALL_1K="${MAX_WALL_1K:-15.0}"
max_queries_1k=150000
max_cycle_visits_1k=22000
passes_1k=10
queries_1k=71090
attempts_1k=8828
candidates_1k=52463
class_busy_1k=893
slack_bound_1k=13301
failed_candidates_1k=31953
screens_skipped_1k=2420
screens_futile_1k=221
passes_small=3
queries_small=10100
attempts_small=2132
candidates_small=3919
class_busy_small=555
slack_bound_small=506
failed_candidates_small=2528
screens_skipped_small=379
screens_futile_small=24

# smoke output goes to the build tree: the checked-in BENCH_scale.json
# holds the full four-point sweep
smoke_dir=_build/bench-smoke
dune exec bench/main.exe -- scale --smoke

if command -v python3 >/dev/null 2>&1; then
  python3 - "$smoke_dir/BENCH_scale.json" "$MAX_WALL_1K" "$max_queries_1k" "$max_cycle_visits_1k" "$passes_1k" "$queries_1k" "$attempts_1k" "$candidates_1k" "$screens_skipped_1k" "$screens_futile_1k" \
    "$class_busy_1k" "$slack_bound_1k" "$failed_candidates_1k" \
    "$passes_small" "$queries_small" "$attempts_small" "$candidates_small" "$screens_skipped_small" \
    "$screens_futile_small" "$class_busy_small" "$slack_bound_small" "$failed_candidates_small" <<'EOF'
import json, sys
limit = float(sys.argv[2])
max_queries = int(sys.argv[3])
max_cycle_visits = int(sys.argv[4])
passes_1k = int(sys.argv[5])
queries_1k = int(sys.argv[6])
attempts_1k = int(sys.argv[7])
candidates_1k = int(sys.argv[8])
screens_skipped_1k = int(sys.argv[9])
screens_futile_1k = int(sys.argv[10])
verdict_keys = ["rej_class_busy", "rej_slack_bound", "failed_candidates"]
verdict_pins_1k = dict(zip(verdict_keys, map(int, sys.argv[11:14])))
small_pins = dict(zip(
    ["passes", "queries", "attempts", "candidates", "screens_skipped", "screens_futile"] + verdict_keys,
    map(int, sys.argv[14:23])))
with open(sys.argv[1]) as f:
    data = json.load(f)
points = data["points"]
assert len(points) >= 2, f"expected >= 2 smoke points, got {len(points)}"
big = max(points, key=lambda p: p["ops"])
assert big["ops"] >= 900, f"largest smoke point only {big['ops']} ops"
assert big["wall_s"] <= limit, (
    f"~1k-op point took {big['wall_s']:.2f}s > {limit}s wall guard")
assert big["queries"] <= max_queries, (
    f"~1k-op point issued {big['queries']} timing queries > {max_queries} ceiling")
assert big["cycle_visits"] <= max_cycle_visits, (
    f"~1k-op point's cycle check visited {big['cycle_visits']} nodes > {max_cycle_visits} ceiling")
assert big["passes"] == passes_1k, (
    f"~1k-op point ran {big['passes']} passes, expected exactly {passes_1k}")
assert big["queries"] == queries_1k, (
    f"~1k-op point issued {big['queries']} timing queries, expected exactly {queries_1k}")
attempts = big["attempts_bound"] + big["attempts_failed"]
assert attempts == attempts_1k, (
    f"~1k-op point made {attempts} bind attempts, expected exactly {attempts_1k}")
assert big["candidates"] == candidates_1k, (
    f"~1k-op point checked {big['candidates']} candidates, expected exactly {candidates_1k}")
assert big["screens_skipped"] == screens_skipped_1k, (
    f"~1k-op point's floor ruled out {big['screens_skipped']} screens, expected exactly {screens_skipped_1k}")
assert big["screens_futile"] == screens_futile_1k, (
    f"~1k-op point ran {big['screens_futile']} futile screens, expected exactly {screens_futile_1k}")
for key, want in verdict_pins_1k.items():
    assert big[key] == want, f"~1k-op point: {key} = {big[key]}, expected exactly {want}"
small = min(points, key=lambda p: p["ops"])
small_counts = dict(small, attempts=small["attempts_bound"] + small["attempts_failed"])
for key, want in small_pins.items():
    assert small_counts[key] == want, (
        f"~{small['ops']}-op point: {key} = {small_counts[key]}, expected exactly {want}")
print(f"scale smoke OK: ~{small['ops']}-op point's counts as pinned; {big['ops']} ops in {big['wall_s']:.2f}s "
      f"(guard {limit}s), {big['queries']} queries (ceiling {max_queries}), "
      f"{big['cycle_visits']} cycle visits (ceiling {max_cycle_visits}), "
      f"{big['passes']} passes, {big['queries']} queries, {attempts} attempts, "
      f"{big['candidates']} candidates, {big['screens_skipped']} skipped and "
      f"{big['screens_futile']} futile screens, {big['rej_class_busy']} decided all busy, "
      f"{big['rej_slack_bound']} on the slack bound and {big['failed_candidates']} in failed attempts as pinned")
EOF
else
  # no python3: pull the largest point's counters with sed/awk
  big=$(sed 's/},{/}\n{/g' "$smoke_dir/BENCH_scale.json" | grep -o '"ops":[0-9]*,"wall_s":.*' |
    sort -t: -k2 -n | tail -1)
  wall=$(echo "$big" | grep -o 'wall_s":[0-9.]*' | cut -d: -f2)
  queries=$(echo "$big" | grep -o 'queries":[0-9]*' | cut -d: -f2)
  cvis=$(echo "$big" | grep -o 'cycle_visits":[0-9]*' | cut -d: -f2)
  passes=$(echo "$big" | grep -o 'passes":[0-9]*' | cut -d: -f2)
  bound=$(echo "$big" | grep -o 'attempts_bound":[0-9]*' | cut -d: -f2)
  failed=$(echo "$big" | grep -o 'attempts_failed":[0-9]*' | cut -d: -f2)
  cands=$(echo "$big" | grep -o '"candidates":[0-9]*' | cut -d: -f2)
  skipped=$(echo "$big" | grep -o '"screens_skipped":[0-9]*' | cut -d: -f2)
  futile=$(echo "$big" | grep -o '"screens_futile":[0-9]*' | cut -d: -f2)
  class_busy=$(echo "$big" | grep -o '"rej_class_busy":[0-9]*' | cut -d: -f2)
  slack_bound=$(echo "$big" | grep -o '"rej_slack_bound":[0-9]*' | cut -d: -f2)
  failed_cands=$(echo "$big" | grep -o '"failed_candidates":[0-9]*' | cut -d: -f2)
  small=$(sed 's/},{/}\n{/g' "$smoke_dir/BENCH_scale.json" | grep -o '"ops":[0-9]*,"wall_s":.*' |
    sort -t: -k2 -n | head -1)
  small_field() { echo "$small" | grep -o "\"$1\":[0-9]*" | cut -d: -f2; }
  check_small() {
    if [ "$2" != "$3" ]; then
      echo "scale smoke FAILED: smallest point's $1 = $2, expected exactly $3"
      exit 1
    fi
  }
  check_small passes "$(small_field passes)" "$passes_small"
  check_small queries "$(small_field queries)" "$queries_small"
  check_small attempts "$(( $(small_field attempts_bound) + $(small_field attempts_failed) ))" "$attempts_small"
  check_small candidates "$(small_field candidates)" "$candidates_small"
  check_small screens_skipped "$(small_field screens_skipped)" "$screens_skipped_small"
  check_small screens_futile "$(small_field screens_futile)" "$screens_futile_small"
  check_small rej_class_busy "$(small_field rej_class_busy)" "$class_busy_small"
  check_small rej_slack_bound "$(small_field rej_slack_bound)" "$slack_bound_small"
  check_small failed_candidates "$(small_field failed_candidates)" "$failed_candidates_small"
  awk -v w="$wall" -v m="$MAX_WALL_1K" -v q="$queries" -v mq="$max_queries_1k" \
    -v c="$cvis" -v mc="$max_cycle_visits_1k" -v p="$passes" -v pp="$passes_1k" \
    -v eq="$queries_1k" -v a="$((bound + failed))" -v ea="$attempts_1k" -v n="$cands" \
    -v en="$candidates_1k" -v k="$skipped" -v ek="$screens_skipped_1k" -v f="$futile" \
    -v ef="$screens_futile_1k" -v cb="$class_busy" -v ecb="$class_busy_1k" -v sb="$slack_bound" \
    -v esb="$slack_bound_1k" -v fc="$failed_cands" -v efc="$failed_candidates_1k" 'BEGIN {
    if (w == "" || w + 0 > m + 0) { print "scale smoke FAILED: wall " w "s > " m "s"; exit 1 }
    if (q == "" || q + 0 > mq + 0) { print "scale smoke FAILED: " q " queries > " mq; exit 1 }
    if (c == "" || c + 0 > mc + 0) { print "scale smoke FAILED: " c " cycle visits > " mc; exit 1 }
    if (p == "" || p + 0 != pp + 0) { print "scale smoke FAILED: " p " passes != " pp; exit 1 }
    if (q + 0 != eq + 0) { print "scale smoke FAILED: " q " queries != " eq; exit 1 }
    if (a + 0 != ea + 0) { print "scale smoke FAILED: " a " attempts != " ea; exit 1 }
    if (n == "" || n + 0 != en + 0) { print "scale smoke FAILED: " n " candidates != " en; exit 1 }
    if (k == "" || k + 0 != ek + 0) { print "scale smoke FAILED: " k " skipped screens != " ek; exit 1 }
    if (f == "" || f + 0 != ef + 0) { print "scale smoke FAILED: " f " futile screens != " ef; exit 1 }
    if (cb == "" || cb + 0 != ecb + 0) { print "scale smoke FAILED: " cb " decided all busy != " ecb; exit 1 }
    if (sb == "" || sb + 0 != esb + 0) { print "scale smoke FAILED: " sb " slack-bound rejections != " esb; exit 1 }
    if (fc == "" || fc + 0 != efc + 0) { print "scale smoke FAILED: " fc " candidates in failed attempts != " efc; exit 1 }
    print "scale smoke OK: ~1k point in " w "s (guard " m "s), " q " queries (ceiling " mq "), " \
      c " cycle visits (ceiling " mc "), " p " passes, " a " attempts, " n " candidates, " k \
      " skipped and " f " futile screens, " cb " decided all busy, " sb " on the slack bound, " fc \
      " in failed attempts as pinned" }'
fi
