#!/usr/bin/env bash
# Perf-regression gate: re-measure the benchmarked kernels and the halo
# transport, then compare against the committed baselines with
# columbia_report --baseline. Exits nonzero on a regression, so CI treats
# BENCH_kernels.json / BENCH_comm.json as enforced numbers, not décor.
#
#   scripts/perf_gate.sh                 # build dir ./build, tolerance 40%
#   BUILD=build-x PERF_GATE_TOL=15% scripts/perf_gate.sh
#   BUILD=build-native scripts/perf_gate.sh   # release-native preset
#
# The gate prints which build configuration produced the measurement
# (build dir + compiler flags from the CMake cache) so a number measured
# under the `release-native` preset (-march=native) is never mistaken for
# one from the portable `release` build. Both compute the same bits: FP
# contraction is off in every build (src/support/CMakeLists.txt).
#
# The default tolerance is deliberately loose: these are wall-clock numbers
# from a shared CI container, and the gate's job is catching step-function
# regressions (an accidental O(n^2), a lost workspace reuse), not 5% noise.
# Thread-sweep rows the host cannot run (threads > hardware threads) are
# skipped inside columbia_report with an explicit reason rather than failed.
# The cartesian_mesh_* rows gate mesh generation (ns per generated cell),
# the nsu3d_setup_wing rows NSU3D solver construction (ns per fine node,
# at 1 and 4 threads).
#
# BENCH_comm.json also carries the comm-observatory rows ("wait/exchange
# (us)", measured with span recording on): those are Timing-gated like the
# other wall-clock columns, while per-exchange "messages" stays exact.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${BUILD:-build}"
TOL="${PERF_GATE_TOL:-40%}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

for target in micro_kernels ablation_hybrid_comm columbia_report; do
  cmake --build "$BUILD" -j "$JOBS" --target "$target"
done

# Measurement provenance: name the build configuration the numbers came
# from before printing any of them.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt")
cxx_flags=$(sed -n 's/^CMAKE_CXX_FLAGS:[^=]*=//p' "$BUILD/CMakeCache.txt")
echo "== perf gate: measuring with BUILD=$BUILD" \
  "(CMAKE_BUILD_TYPE=${build_type:-?}${cxx_flags:+, CMAKE_CXX_FLAGS=$cxx_flags}) =="
echo

echo "== perf gate: re-measuring kernels (micro_kernels --kernels-json) =="
"$BUILD/bench/micro_kernels" --kernels-json "$BUILD/BENCH_kernels_fresh.json"

echo
echo "== perf gate: re-measuring halo transport (ablation_hybrid_comm) =="
"$BUILD/bench/ablation_hybrid_comm" --json "$BUILD/BENCH_comm_fresh.json" \
  > /dev/null

echo
"$BUILD/tools/columbia_report" "$BUILD/BENCH_kernels_fresh.json" \
  --baseline BENCH_kernels.json --tolerance "$TOL"

echo
"$BUILD/tools/columbia_report" "$BUILD/BENCH_comm_fresh.json" \
  --baseline BENCH_comm.json --tolerance "$TOL"

echo
echo "== perf gate passed (tolerance $TOL) =="
