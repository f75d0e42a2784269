#!/usr/bin/env sh
# Tier-1 verify: configure + build + ctest, fail-fast.
# CI and humans run this identical path; it is the scripted form of
#   cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j
# Run from anywhere; the repo root is derived from this script's location.
#
# Options:
#   --bench-smoke  After ctest, build every bench driver and run each one
#                  with OMNIBOOST_BENCH_SMOKE=1 (tiny campaigns, shared
#                  smoke-only estimator cache, JSON export into
#                  <build>/bench-smoke/), plus `bench_e2e --smoke` (the
#                  end-to-end benchmark's five workloads at tiny sizes).
#                  Catches bench bit-rot in tier-1
#                  instead of at the next real experiment run. Every driver
#                  runs even after a failure (all failures are reported at
#                  once) and ANY failure fails the script; the emitted
#                  BENCH_*.json set is then validated by
#                  tools/check_bench_json.py.
#
# Environment:
#   OMNIBOOST_BUILD_DIR    build directory (default <repo>/build)
#   OMNIBOOST_JOBS         parallel build/test jobs (default nproc)
#   OMNIBOOST_CMAKE_FLAGS  extra configure flags, word-split on purpose —
#                          e.g. "-DOMNIBOOST_SANITIZE=ON -DOMNIBOOST_WERROR=ON"
#                          (how the CI matrix selects its flavors)
set -eu

bench_smoke=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    *) echo "run_tier1.sh: unknown argument: $arg" >&2; exit 2 ;;
  esac
done

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${OMNIBOOST_BUILD_DIR:-$root/build}"
jobs="${OMNIBOOST_JOBS:-$(nproc 2>/dev/null || echo 2)}"

echo "== layering lint =="
sh "$root/tools/check_layering.sh"

echo "== configure =="
# Unquoted on purpose: OMNIBOOST_CMAKE_FLAGS is a word-split flag list.
# shellcheck disable=SC2086
cmake -B "$build_dir" -S "$root" ${OMNIBOOST_CMAKE_FLAGS:-}

echo "== build ($jobs jobs) =="
cmake --build "$build_dir" -j "$jobs"

# ISA isolation. gemm_vector.cpp (kGemm's AVX2 tile) is compiled with
# -mavx2 -mno-fma -ffp-contract=off and shares the blocked GEMM of the
# portable gemm.cpp through gemm_blocked.hpp. A weak or global symbol of its
# could be merged by the linker with another TU's copy, putting AVX2 code
# (SIGILL without the ISA) on the portable path. So that object may export
# only its tensor::detail entry point (no std:: template either, such as
# std::vector<float>'s members or std::min<unsigned long>), and no
# gemm_blocked.hpp name may be global or weak in either object. Only C++
# names (mangled _Z...) are checked, so sanitizer symbols cannot trip it;
# they are demangled after selection, because a demangled template name
# starts with its return type. kGemm's bits are fixed by a separately
# rounded multiply and add (src/tensor/gemm.hpp), so neither object may
# hold an FMA.
echo "== ISA isolation =="
if command -v nm > /dev/null 2>&1 && command -v objdump > /dev/null 2>&1 &&
   command -v c++filt > /dev/null 2>&1; then
  objs="$build_dir/CMakeFiles/omniboost.dir/src/tensor"
  for obj in gemm.cpp.o gemm_vector.cpp.o; do
    [ -f "$objs/$obj" ] || {
      echo "run_tier1.sh: ISA isolation: no $objs/$obj" >&2
      exit 1
    }
  done
  # Demangled names of the global/weak C++ symbols an object defines.
  exported() {
    nm --defined-only "$1" | awk '$2 ~ /^[A-Zu]$/ && $3 ~ /^_Z/ { print $3 }' |
      c++filt
  }
  leaks=$(
    exported "$objs/gemm_vector.cpp.o" |
      grep -v '^omniboost::tensor::detail::' || true
    helpers='omniboost::tensor::(PackBuffer|min_size|op_at|pack_a|pack_b|fold_tile|blocked_gemm)\b'
    for obj in gemm.cpp.o gemm_vector.cpp.o; do
      exported "$objs/$obj" | grep -E "$helpers" || true
    done
  )
  if [ -n "$leaks" ]; then
    echo "run_tier1.sh: symbols escape the AVX2-flagged GEMM object:" >&2
    echo "$leaks" | sort -u >&2
    exit 1
  fi
  for obj in gemm.cpp.o gemm_vector.cpp.o; do
    fused=$(objdump -d "$objs/$obj" | grep -cE '[[:space:]]vf(madd|msub|nm)' ||
      true)
    if [ "$fused" -ne 0 ]; then
      echo "run_tier1.sh: $obj holds $fused FMA instruction(s); kGemm" \
           "must round its multiply and its add separately" >&2
      exit 1
    fi
  done
  echo "ISA isolation: OK"
else
  echo "run_tier1.sh: WARNING: nm/objdump/c++filt not found, skipping the" \
       "ISA isolation check" >&2
fi

echo "== ctest =="
(cd "$build_dir" && ctest --output-on-failure -j "$jobs")

# The property/fuzz suites are cheap and catch the widest class of
# regressions; re-running the lane standalone keeps a crisp signal (a
# property failure is reported as its own tier-1 step, not buried in the
# full matrix) and exercises the ctest label wiring itself.
echo "== property lane =="
(cd "$build_dir" && ctest --output-on-failure --label-regex property -j "$jobs")

# Chaos lane: randomized fault scenarios against a fleet (failover, shedding,
# throttle refresh, recovery rebalance) asserting stream conservation and
# byte-identical reruns. Standalone for the same crisp-signal reason, and so
# the sanitizer matrix flavors visibly exercise the fault paths.
echo "== chaos lane =="
(cd "$build_dir" && ctest --output-on-failure --label-regex chaos -j "$jobs")

# Daemon smoke: boot the live serving daemon on an ephemeral loopback port at
# x100 wall-clock pacing, drive it with the client (arrive/fail/depart), save
# the recorded trace, shut down, then replay the trace offline and assert the
# daemon's `conservation:` accounting line reproduces verbatim. This is the
# shell-level double of tests/daemon_test.cpp: it additionally pins the CLI
# surface itself (flag names, banner format, client exit codes).
if [ -x "$build_dir/omniboost_cli" ]; then
  echo "== daemon smoke =="
  smoke_out="$build_dir/daemon-smoke"
  mkdir -p "$smoke_out"
  "$build_dir/omniboost_cli" serve --listen 0 --boards 2 --scheduler greedy \
    --time-scale 100 > "$smoke_out/daemon.log" 2>&1 &
  daemon_pid=$!
  port=""
  tries=0
  while [ -z "$port" ] && [ "$tries" -lt 100 ]; do
    port=$(sed -n 's/^listening on //p' "$smoke_out/daemon.log")
    [ -n "$port" ] || { tries=$((tries + 1)); sleep 0.1; }
  done
  if [ -z "$port" ]; then
    echo "run_tier1.sh: daemon never printed its port" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
  fi
  cli() { "$build_dir/omniboost_cli" client "localhost:$port" "$@"; }
  cli arrive MobileNet slo 100
  cli arrive AlexNet
  cli fail board 0
  cli depart MobileNet
  cli status > "$smoke_out/status.txt"
  cli save-trace "$smoke_out/live.trace"
  cli shutdown
  wait "$daemon_pid"
  live=$(grep '^conservation:' "$smoke_out/status.txt")
  "$build_dir/omniboost_cli" serve --scenario "$smoke_out/live.trace" \
    --boards 2 --scheduler greedy > "$smoke_out/replay.txt" 2>&1
  offline=$(grep '^conservation:' "$smoke_out/replay.txt")
  if [ "$live" != "$offline" ]; then
    echo "run_tier1.sh: daemon/offline conservation mismatch" >&2
    echo "  live:    $live" >&2
    echo "  offline: $offline" >&2
    exit 1
  fi
  echo "daemon smoke: $live"

  # Serve JSON smoke: one report schema at every board count. Each report
  # must parse and conserve streams, each board's epoch list must hold
  # exactly epoch_count entries, and each board must carry the fleet's
  # totals keys (`decisions`, `total_*`), which the fleet sums. The
  # omniboost run (SLOs, migration cost, faults on a 3-board fleet) must
  # also DES-replay candidates, so every CI flavor drives the SLO-shaped
  # warm search end to end.
  if command -v python3 > /dev/null 2>&1; then
    echo "== serve JSON smoke =="
    # serve_json <tag> <replays|-> <serve args...>
    serve_json() {
      tag=$1
      replays=$2
      shift 2
      "$build_dir/omniboost_cli" serve --json "$@" \
        > "$smoke_out/serve-$tag.json"
      python3 - "$smoke_out/serve-$tag.json" "$replays" <<'PYEOF'
import json, math, sys
r = json.load(open(sys.argv[1]))
is_total = lambda k: k == "decisions" or k.startswith("total_")
totals = [k for k in r if is_total(k)]
assert r["admitted_streams"] == (r["departures"] + r["shed_streams"] +
                                 r["resident_streams"]), "admitted != served"
assert r["offered_streams"] == (r["admitted_streams"] +
                                r["rejected_streams"]), "offered != routed"
for b in r["fleet"]:
    assert len(b["epochs"]) == b["epoch_count"], b["board"] + ": epoch_count"
    assert [k for k in b if is_total(k)] == totals, b["board"] + ": totals"
for k in totals:
    assert math.isclose(r[k], sum(b[k] for b in r["fleet"])), k + ": fleet sum"
if sys.argv[2] == "replays":
    assert r["total_des_replays"] > 0, "no DES replays: SLO search never ran"
print(f"serve JSON smoke: {r['boards']} board(s), "
      f"offered={r['offered_streams']} admitted={r['admitted_streams']} "
      f"des_replays={r['total_des_replays']}")
PYEOF
    }
    for boards in 1 2; do
      serve_json "greedy-$boards" - --events 8 --scheduler greedy \
        --boards "$boards"
    done
    serve_json omniboost-3 replays --scheduler omniboost --boards 3 \
      --arrival poisson:0.6 --horizon 60 --slo 500 --migration-cost 1 \
      --faults mtbf:60:mttr:15:throttle:0.5 --samples 40 --epochs 2 \
      --budget 50
  else
    echo "run_tier1.sh: WARNING: python3 not found, skipping the serve" \
         "JSON smoke" >&2
  fi
fi

if [ "$bench_smoke" -eq 1 ]; then
  echo "== bench smoke =="
  cmake --build "$build_dir" -j "$jobs" --target bench_all
  smoke_dir="$build_dir/bench-smoke"
  mkdir -p "$smoke_dir"
  OMNIBOOST_BENCH_SMOKE=1
  OMNIBOOST_ESTIMATOR_CACHE="$smoke_dir/estimator.bin"
  OMNIBOOST_BENCH_JSON_DIR="$smoke_dir"
  export OMNIBOOST_BENCH_SMOKE OMNIBOOST_ESTIMATOR_CACHE OMNIBOOST_BENCH_JSON_DIR
  # Run EVERY driver even after a failure (one broken bench must not hide
  # another), then propagate a single non-zero exit for the whole loop.
  smoke_failures=""
  smoke_one() {
    name=$1
    shift
    printf -- '-- %s ... ' "$name"
    if "$@" > "$smoke_dir/$name.log" 2>&1; then
      echo "ok"
    else
      echo "FAILED"
      echo "run_tier1.sh: bench smoke failed: $name" >&2
      echo "--- last 30 log lines ($smoke_dir/$name.log) ---" >&2
      tail -n 30 "$smoke_dir/$name.log" >&2
      smoke_failures="$smoke_failures $name"
    fi
  }
  for bench in "$build_dir"/bench_*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name=$(basename "$bench")
    [ "$name" = bench_e2e ] && continue  # takes flags; runs below
    smoke_one "$name" "$bench"
  done
  # The end-to-end benchmark's self-check: all five workloads at tiny sizes,
  # including a live daemon session whose conservation line must equal the
  # offline replay's. Its JSON stays out of the paper-bench artifact set the
  # guard below validates.
  if [ -x "$build_dir/bench_e2e" ]; then
    smoke_one bench_e2e env -u OMNIBOOST_BENCH_JSON_DIR \
      "$build_dir/bench_e2e" --smoke --workdir "$smoke_dir"
  fi
  if [ -n "$smoke_failures" ]; then
    echo "run_tier1.sh: bench smoke FAILED:$smoke_failures" >&2
    exit 1
  fi

  echo "== bench JSON guard =="
  if command -v python3 > /dev/null 2>&1; then
    python3 "$root/tools/check_bench_json.py" "$smoke_dir"
  else
    # CI always has python3; only a bare local box lands here.
    echo "run_tier1.sh: WARNING: python3 not found, skipping the" \
         "BENCH_*.json artifact guard" >&2
  fi
  echo "== bench smoke PASS =="
fi

echo "== tier-1 PASS =="
