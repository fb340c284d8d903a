#!/usr/bin/env bash
# Full CI gate: the test suite must pass clean under AddressSanitizer and
# UndefinedBehaviorSanitizer with the continuous invariant auditor compiled
# in (SCATTER_AUDIT=ON), and clang-tidy must be quiet on changed files.
# A leg whose tool is not installed prints "SKIPPED (<tool> not installed):
# no coverage", and the `all` banner names it instead of claiming it.
#
#   scripts/ci.sh                 # everything (two sanitized builds + lint)
#   scripts/ci.sh address         # just the ASan leg
#   scripts/ci.sh undefined       # just the UBSan leg
#   scripts/ci.sh lint            # scatter-lint (whole tree, text + JSON) + clang-tidy (changed files)
#   scripts/ci.sh bench           # just the benchmark smoke (plain build)
#   scripts/ci.sh obs             # traced sim + trace/metrics JSON schema check
#   scripts/ci.sh wire            # full suite over serializing + audit
#   scripts/ci.sh mc              # model-checker smoke (delay-bounded split + config_truncate) + counterexample round trip
#   scripts/ci.sh durability      # full suite with persistence on (serializing) + mc crash-with-disk smoke
#
# Build trees go to build-asan/ and build-ubsan/ so they never disturb the
# developer's plain build/.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# Tool-dependent legs that ran clean, and those skipped because their tool
# is missing; the `all` banner reports both.
OPTIONAL_CLEAN=()
SKIPPED_LEGS=()
skip_leg() {  # <leg> <tool>
  echo "SKIPPED ($2 not installed): no coverage"
  SKIPPED_LEGS+=("$1")
}
join_legs() { local IFS=,; echo "$*" | sed 's/,/, /g'; }

run_sanitized() {
  local san="$1"
  local dir="build-asan"
  [[ "$san" == "undefined" ]] && dir="build-ubsan"
  echo "=== [$san] configure + build ($dir) ==="
  cmake -B "$dir" -S . -DSCATTER_SANITIZE="$san" -DSCATTER_AUDIT=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$san] ctest ==="
  ( cd "$dir" && ctest --output-on-failure -j "$JOBS" )
}

run_bench_smoke() {
  # Benchmarks must keep building and running; this is a smoke, not a
  # measurement (use scripts/bench_snapshot.sh to record the baseline).
  # Note: the pinned google-benchmark wants --benchmark_min_time as a plain
  # number of seconds, no 's' suffix.
  local bdir="${BUILD_DIR:-build}"
  echo "=== bench smoke ($bdir) ==="
  if [[ ! -x "$bdir/bench/bench_micro" ]]; then
    cmake -B "$bdir" -S .
    cmake --build "$bdir" -j "$JOBS"
  fi
  "$bdir/bench/bench_micro" --benchmark_min_time=0.01
  "$bdir/bench/bench_scale" --quick
}

run_obs_check() {
  # Flight-recorder gate: run a short traced + health-monitored sim
  # (two-group cluster, client ops, a cross-group merge) over the
  # serializing transport, and validate the exported Chrome trace-event
  # JSON, metrics JSON and scatter.timeline.v1 timeline against their
  # stable schemas. scatter-top must then render the recorded timeline.
  local bdir="${BUILD_DIR:-build}"
  echo "=== obs check ($bdir) ==="
  if [[ ! -x "$bdir/examples/trace_demo" || ! -x "$bdir/tools/scatter_top" ]]; then
    cmake -B "$bdir" -S .
    cmake --build "$bdir" -j "$JOBS"
  fi
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  SCATTER_TRANSPORT=serializing "$bdir/examples/trace_demo" \
      "$tmp/trace.json" "$tmp/metrics.json" "$tmp/timeline.json"
  python3 scripts/check_obs_json.py \
      "$tmp/trace.json" "$tmp/metrics.json" "$tmp/timeline.json"
  echo "=== obs check: scatter-top render ==="
  "$bdir/tools/scatter_top" "$tmp/timeline.json"
}

run_wire() {
  # Wire-format gate: the ENTIRE test suite must pass with every delivered
  # message round-tripped through encode -> bytes -> decode (serializing),
  # and again with the re-decoded copy compared against the original
  # (audit). Clusters and harnesses construct their transport via
  # wire::MakeNetwork, which honors SCATTER_TRANSPORT, so no test needs to
  # know this is happening. One leg per transport.
  local bdir="${BUILD_DIR:-build}"
  if [[ ! -d "$bdir" ]]; then
    cmake -B "$bdir" -S .
  fi
  cmake --build "$bdir" -j "$JOBS"
  local transport
  for transport in serializing audit; do
    echo "=== wire: full ctest, transport=$transport ($bdir) ==="
    ( cd "$bdir" && SCATTER_TRANSPORT="$transport" \
          ctest --output-on-failure -j "$JOBS" )
  done
}

run_mc() {
  # Model-checker smoke: delay-bounded explorations of the 2-group split
  # scenario and of the config_truncate scenario (an uncommitted add-member
  # entry overwritten by a new leader) must exhaust their budgets without
  # finding a violation. Each schedule tree at this budget is ~2-3k
  # schedules / a few seconds; the wall budget caps each well under 30s on
  # a slow machine.
  local bdir="${BUILD_DIR:-build}"
  if [[ ! -x "$bdir/tools/mc_explore" ]]; then
    cmake -B "$bdir" -S .
    cmake --build "$bdir" -j "$JOBS"
  fi
  local scenario
  for scenario in split config_truncate; do
    echo "=== mc: delay-bounded smoke over the $scenario scenario ($bdir) ==="
    "$bdir/tools/mc_explore" --scenario "$scenario" --strategy delay \
        --budget-seconds 25 --counterexample none
  done
  # Counterexample round trip: a walk of the seeded config-truncation bug
  # must find the violation and write a counterexample; the stats line and
  # the file must be valid JSON (checked by an independent parser), and
  # mc_replay must read the file back and reproduce the violation.
  echo "=== mc: counterexample round trip over config_truncate+mutation ($bdir) ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  "$bdir/tools/mc_explore" --scenario config_truncate+mutation \
      --strategy walk --expect-violation --counterexample "$tmp/ce.json" \
      | python3 -m json.tool > /dev/null
  python3 -m json.tool "$tmp/ce.json" > /dev/null
  "$bdir/tools/mc_replay" "$tmp/ce.json" | tee "$tmp/replay.txt" | tail -n 1
  grep -qx REPRODUCED "$tmp/replay.txt"
}

run_durability() {
  # Durability gate, two legs. (1) The ENTIRE test suite must pass with
  # every cluster journaling through the simulated disk (SCATTER_PERSIST=on)
  # while each message round-trips through the wire (serializing transport):
  # persistence must be behavior-neutral absent crashes, so the same suite
  # that passes memory-only must pass journaled. (2) A random-walk smoke of
  # the crash-with-disk mc scenario: crashed-and-restarted replicas must
  # recover from their own WAL + snapshot (no state transfer) with the
  # durability invariant audited after every decision.
  local bdir="${BUILD_DIR:-build}"
  if [[ ! -d "$bdir" ]]; then
    cmake -B "$bdir" -S .
  fi
  cmake --build "$bdir" -j "$JOBS"
  echo "=== durability: full ctest, SCATTER_PERSIST=on transport=serializing ($bdir) ==="
  ( cd "$bdir" && SCATTER_PERSIST=on SCATTER_TRANSPORT=serializing \
        ctest --output-on-failure -j "$JOBS" )
  echo "=== durability: mc crash-with-disk smoke ==="
  "$bdir/tools/mc_explore" --scenario crash_disk --strategy walk \
      --budget-seconds 20 --counterexample none
}

run_lint() {
  # Stage 1: scatter-lint (tools/scatter_lint) — determinism, layering and
  # protocol-hygiene rules, zero findings allowed. It prints a per-rule
  # findings/suppressions summary and exits nonzero on any finding.
  local bdir="${BUILD_DIR:-build}"
  [[ -f build-asan/compile_commands.json ]] && bdir=build-asan
  echo "=== scatter-lint (zero-warning gate, $bdir) ==="
  if [[ ! -f "$bdir/compile_commands.json" ]]; then
    cmake -B "$bdir" -S .
  fi
  cmake --build "$bdir" -j "$JOBS" --target scatter_lint
  "$bdir/tools/scatter_lint/scatter_lint" --root . \
      --compdb "$bdir/compile_commands.json"
  # The JSON pass keeps the machine-readable output schema honest.
  "$bdir/tools/scatter_lint/scatter_lint" --root . \
      --compdb "$bdir/compile_commands.json" --format=json \
      | python3 -m json.tool > /dev/null

  # Stage 2: clang-tidy on changed files. Any warning fails the stage.
  echo "=== clang-tidy (changed files, zero-warning gate) ==="
  local tidy="${CLANG_TIDY:-clang-tidy}"
  if command -v "$tidy" >/dev/null 2>&1; then
    BUILD_DIR="$bdir" TIDY_WERROR=1 scripts/run_clang_tidy.sh --changed
    OPTIONAL_CLEAN+=("clang-tidy zero-warning")
  else
    skip_leg "clang-tidy" "$tidy"
  fi
}

case "${1:-all}" in
  address|undefined) run_sanitized "$1" ;;
  lint) run_lint ;;
  bench) run_bench_smoke ;;
  obs) run_obs_check ;;
  wire) run_wire ;;
  mc) run_mc ;;
  durability) run_durability ;;
  all)
    run_sanitized address
    run_sanitized undefined
    run_bench_smoke
    run_obs_check
    run_wire
    run_mc
    run_durability
    run_lint
    summary="ASan + UBSan suites clean, bench smoke ok, obs export valid, wire suites clean, mc smoke clean, durability suite + smoke clean, scatter-lint zero-warning"
    if [[ ${#OPTIONAL_CLEAN[@]} -gt 0 ]]; then
      summary+=", $(join_legs "${OPTIONAL_CLEAN[@]}")"
    fi
    if [[ ${#SKIPPED_LEGS[@]} -gt 0 ]]; then
      summary+="; SKIPPED (not installed), no coverage: $(join_legs "${SKIPPED_LEGS[@]}")"
    fi
    echo "=== CI green: $summary ==="
    ;;
  *)
    echo "usage: $0 [address|undefined|lint|bench|obs|wire|mc|durability|all]" >&2
    exit 2
    ;;
esac
