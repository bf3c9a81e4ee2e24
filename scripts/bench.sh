#!/usr/bin/env bash
# Compile-time performance benchmarks: builds the Release preset and runs
#   - bench/perf_compile over the full workload suite, writing the
#     measured pass-1 + partition-search timings to BENCH_compile.json
#     (see docs/performance.md for what the numbers mean), and
#   - bench/perf_serve over a generated 1000-program batch, writing the
#     batch-service throughput (Jobs=1/4/8, cold vs warm cache) to
#     BENCH_serve.json (see docs/serving.md).
#
#   ./scripts/bench.sh                 # full run, both BENCH_*.json
#   ./scripts/bench.sh --quick         # small stress graphs, 1 repeat,
#                                      # 100-program serve batch
#   ./scripts/bench.sh --out=foo.json  # alternate perf_compile output
#   ./scripts/bench.sh --sim           # also run bench/perf_sim and merge
#                                      # its "simulator" block (nodes/s per
#                                      # fidelity) into the perf_compile
#                                      # JSON
#   ./scripts/bench.sh --kway          # also run bench/fig14_kway and merge
#                                      # its "kway" block (speedup at 1/2/4/8
#                                      # cores, two-core byte-identity gate)
#                                      # into the perf_compile JSON
#   ./scripts/bench.sh --oracle        # also run bench/perf_oracle and merge
#                                      # its "oracle" block (profile cost,
#                                      # static vs in-run vs measured-artifact
#                                      # partition quality) into the
#                                      # perf_compile JSON
#   ./scripts/bench.sh --interp        # also run bench/perf_interp and merge
#                                      # its "interpreter" block (decoded vs
#                                      # reference engine Mnodes/s) into the
#                                      # perf_compile JSON
#
# Each merge replaces only its own block and keeps every other block of
# the JSON, so the opt-in steps can also be re-run one at a time.
#
# Extra flags are passed through to perf_compile (--jobs=N, --repeat=N).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== [release] configure"
cmake --preset release
echo "== [release] build perf_compile perf_serve perf_sim fig14_kway" \
  "perf_oracle perf_interp"
cmake --build --preset release -j "$JOBS" --target perf_compile perf_serve \
  perf_sim fig14_kway perf_oracle perf_interp

OUT_PATH="$PWD/BENCH_compile.json"
OUT_SET=0
QUICK=0
SIM=0
KWAY=0
ORACLE=0
INTERP=0
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --out=*) OUT_SET=1; OUT_PATH="${arg#--out=}"; ARGS+=("$arg") ;;
    --quick) QUICK=1; ARGS+=("$arg") ;;
    --sim) SIM=1 ;;
    --kway) KWAY=1 ;;
    --oracle) ORACLE=1 ;;
    --interp) INTERP=1 ;;
    *) ARGS+=("$arg") ;;
  esac
done

if [ "$OUT_SET" -eq 0 ]; then
  ARGS+=("--out=$OUT_PATH")
fi

echo "== perf_compile ${ARGS[*]}"
./build-release/bench/perf_compile "${ARGS[@]}"

# The JSON carries an "observability" block: the obs configuration's
# pass-1 overhead against seq, plus the aggregate counter/span stats of
# the traced compiles (docs/observability.md explains how to read it).
if grep -q '"observability"' "$OUT_PATH"; then
  echo "== observability stats block recorded in $OUT_PATH"
else
  echo "== ERROR: $OUT_PATH is missing the observability stats block" >&2
  exit 1
fi

# Simulator throughput (opt-in with --sim): bench/perf_sim times SeqSim
# and SptSim under the two sim/SimOptions.h fidelities (exact and coarse
# fast-forward) and merges a "simulator" block — nodes/s per fidelity —
# into the perf_compile JSON. perf_sim exits nonzero itself when, on any
# kernel, a repeated exact run is not byte-identical to the first
# (including the MemoryHash) or the fast-forward run changes
# architectural state or a speculation counter, so only the block's
# presence needs checking here (docs/simulation.md explains the
# fidelities).
if [ "$SIM" -eq 1 ]; then
  SIM_ARGS=()
  if [ "$QUICK" -eq 1 ]; then
    SIM_ARGS+=("--quick")
  fi
  echo "== perf_sim ${SIM_ARGS[*]:-} --out=$OUT_PATH"
  ./build-release/bench/perf_sim "${SIM_ARGS[@]:+${SIM_ARGS[@]}}" \
    "--out=$OUT_PATH"
  grep -q '"simulator"' "$OUT_PATH" || {
    echo "== ERROR: $OUT_PATH is missing the simulator block" >&2
    exit 1
  }
  echo "== simulator block recorded in $OUT_PATH"
fi

# K-way core sweep (opt-in with --kway): bench/fig14_kway compiles and
# simulates every workload at 1, 2, 4 and 8 cores and merges a "kway"
# block into the perf_compile JSON. The binary exits nonzero itself when
# the generalized engine is not byte-identical to the two-core reference
# at Cores=2 or no workload scales monotonically from 2 to 4 cores, and
# the block's own reports_identical flag is double-checked here.
if [ "$KWAY" -eq 1 ]; then
  KWAY_ARGS=()
  if [ "$QUICK" -eq 1 ]; then
    KWAY_ARGS+=("--quick")
  fi
  echo "== fig14_kway ${KWAY_ARGS[*]:-} --out=$OUT_PATH"
  ./build-release/bench/fig14_kway "${KWAY_ARGS[@]:+${KWAY_ARGS[@]}}" \
    "--out=$OUT_PATH"
  grep -q '"kway"' "$OUT_PATH" || {
    echo "== ERROR: $OUT_PATH is missing the kway block" >&2
    exit 1
  }
  grep -q '"reports_identical": true, "any_speedup_monotone_2_to_4": true' \
    "$OUT_PATH" || {
    echo "== ERROR: $OUT_PATH kway block failed its gates" >&2
    exit 1
  }
  echo "== kway block recorded in $OUT_PATH"
fi

# Measured dependence-oracle quality (opt-in with --oracle): for every
# workload bench/perf_oracle profiles a dependence artifact, compiles
# three ways (static-only oracle, in-run default, measured artifact) and
# simulates each against the sequential baseline, merging an "oracle"
# block into the perf_compile JSON. The binary exits nonzero itself when
# the measurements change no chosen partition vs static-only, the
# artifact regresses any workload vs the in-run default, or any
# simulation's architectural results diverge; the summary gates are
# double-checked here (docs/profiling.md explains the three configs).
if [ "$ORACLE" -eq 1 ]; then
  ORACLE_ARGS=()
  if [ "$QUICK" -eq 1 ]; then
    ORACLE_ARGS+=("--quick")
  fi
  echo "== perf_oracle ${ORACLE_ARGS[*]:-} --out=$OUT_PATH"
  ./build-release/bench/perf_oracle "${ORACLE_ARGS[@]:+${ORACLE_ARGS[@]}}" \
    "--out=$OUT_PATH"
  grep -q '"oracle"' "$OUT_PATH" || {
    echo "== ERROR: $OUT_PATH is missing the oracle block" >&2
    exit 1
  }
  grep -q '"no_regression_vs_inrun": true, "checksums_match": true' \
    "$OUT_PATH" || {
    echo "== ERROR: $OUT_PATH oracle block failed its gates" >&2
    exit 1
  }
  echo "== oracle block recorded in $OUT_PATH"
fi

# Interpreter throughput (opt-in with --interp): bench/perf_interp times
# the decoded engine against the reference switch engine on its kernels
# and merges an "interpreter" block into the perf_compile JSON. The binary
# exits nonzero itself when the two engines' record streams diverge or
# the decoded engine falls under 2x the reference in aggregate; the
# block's gate flags are double-checked here (docs/performance.md).
if [ "$INTERP" -eq 1 ]; then
  INTERP_ARGS=()
  if [ "$QUICK" -eq 1 ]; then
    INTERP_ARGS+=("--quick")
  fi
  echo "== perf_interp ${INTERP_ARGS[*]:-} --out=$OUT_PATH"
  ./build-release/bench/perf_interp "${INTERP_ARGS[@]:+${INTERP_ARGS[@]}}" \
    "--out=$OUT_PATH"
  grep -q '"interpreter"' "$OUT_PATH" || {
    echo "== ERROR: $OUT_PATH is missing the interpreter block" >&2
    exit 1
  }
  grep -q '"reports_identical": true, "meets_2x_gate": true' "$OUT_PATH" || {
    echo "== ERROR: $OUT_PATH interpreter block failed its gates" >&2
    exit 1
  }
  echo "== interpreter block recorded in $OUT_PATH"
fi

# Batch-service throughput. perf_serve exits nonzero itself when any
# configuration's reports diverge from the single-threaded cold reference
# or the warm pass is not fully cache-served, so only the scaling claims
# need checking here.
SERVE_OUT="$PWD/BENCH_serve.json"
SERVE_ARGS=()
if [ "$QUICK" -eq 1 ]; then
  SERVE_ARGS+=("--quick")
  SERVE_OUT="$PWD/build-release/BENCH_serve_quick.json"
fi
echo "== perf_serve ${SERVE_ARGS[*]:-} --out=$SERVE_OUT"
./build-release/bench/perf_serve "${SERVE_ARGS[@]:+${SERVE_ARGS[@]}}" \
  "--out=$SERVE_OUT"

grep -q '"reports_identical": true' "$SERVE_OUT" || {
  echo "== ERROR: $SERVE_OUT reports are not byte-identical" >&2
  exit 1
}
grep -q '"warm_served_from_cache": true' "$SERVE_OUT" || {
  echo "== ERROR: $SERVE_OUT warm pass was not served from cache" >&2
  exit 1
}

# Worker scaling is a physical claim about the host: on a multi-core
# machine Jobs=8 cold throughput must be at least 2x Jobs=1, but on a
# single-core container that target is unattainable and asserting it
# would only reward dishonest measurement — so gate it on core count and
# record the observed ratio either way (it is in the JSON summary).
SPEEDUP="$(sed -n 's/.*"cold_speedup_jobs8_vs_jobs1": \([0-9.]*\).*/\1/p' \
  "$SERVE_OUT")"
CORES="$(nproc 2>/dev/null || echo 1)"
if [ "$CORES" -ge 2 ]; then
  awk -v s="$SPEEDUP" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' || {
    echo "== ERROR: cold Jobs=8 speedup $SPEEDUP < 2x on a $CORES-core host" >&2
    exit 1
  }
  echo "== serve scaling: cold Jobs=8 speedup ${SPEEDUP}x (>= 2x, $CORES cores)"
else
  echo "== serve scaling: cold Jobs=8 speedup ${SPEEDUP}x on a single-core" \
       "host (>= 2x assertion skipped; see hardware_concurrency in the JSON)"
fi
