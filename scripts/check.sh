#!/usr/bin/env bash
# Tier-1 verification: the full suite in the release preset, the
# kernel and whole-solve bit-identity suites in a -march=native build, the
# thread-sensitive suites (labels tsan + resil) under ThreadSanitizer, the
# memory-sensitive suites (label asan) under AddressSanitizer, the
# reachability gate, the time-to-solution benchmark against its seed-1
# references, the soak matrix and the perf gate.
#
#   scripts/check.sh            # release, native, tsan, asan, reach,
#                               # bench, soak, perf gate
#   JOBS=8 scripts/check.sh     # override parallelism
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

echo "== release: configure + build + full ctest =="
cmake --preset release
cmake --build --preset release -j "$JOBS"
ctest --preset release -j "$JOBS"

echo
echo "== native: -march=native build, kernel and solve bit-identity =="
# With FMA available every a*b+c could contract; the project-wide
# -ffp-contract=off keeps the lane kernels equal to their scalar oracles
# (test_kernels_soa) and whole solves equal to their recorded hashes
# (test_solve_fingerprint) on the host's own instruction set.
cmake --preset release-native
cmake --build --preset release-native -j "$JOBS" \
  --target test_kernels_soa test_solve_fingerprint
build-native/tests/test_kernels_soa
build-native/tests/test_solve_fingerprint

echo
echo "== tsan: configure + build + ctest -L tsan (includes resil) =="
# Includes LevelFingerprint.*: NSU3D level construction runs pooled
# passes, and each fingerprint is built at pool sizes 1 and 4.
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
ctest --preset tsan -j "$JOBS"

echo
echo "== asan: configure + build + ctest -L asan =="
# The asan label covers the mesher's bit-identity suite, the NSU3D level
# construction fingerprints (pool sizes 1 and 4), the resilience and core
# suites (checkpoints, fault injection, allocation counting) and the
# fork-free overlap suite.
cmake --preset asan
cmake --build --preset asan -j "$JOBS"
ctest --preset asan -j "$JOBS"

echo
echo "== reach: every library function has a production user (scripts/reach.sh) =="
# Fails on a function no bench, example, tool or columbia_bench links in,
# unless scripts/reach_allow.txt lists it with its reason.
JOBS="$JOBS" scripts/reach.sh

echo
echo "== bench: columbia_bench from its own sources, seed-1 references =="
# The benchmark's standalone build (columbia_bench/CMakeLists.txt) and its
# bench_smoke test, which runs every workload at toy sizes and so skips
# the references. Then each workload once at seed 1 on its real inputs:
# the binary exits nonzero unless the run matches
# columbia_bench/references.json and no unit failed.
cmake -S columbia_bench -B build-bench -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j "$JOBS"
ctest --test-dir build-bench --output-on-failure
for workload in nsu3d-wing cart3d-sslv sslv-database nsu3d-shm4; do
  ./build-bench/columbia_bench --workload "$workload" --seed 1 --trace 0 \
    --seconds 5 --out build-bench/results
done

echo
echo "== soak: distributed fault matrix (scripts/soak.sh) =="
# Backend x strategy x fault-kind sweep of the guarded multi-rank solve:
# every cell must converge or recover under a watchdog, with the history
# artifact bit-identical to the clean in-process reference.
BUILD_DIR=build scripts/soak.sh

echo
echo "== perf gate: BENCH_*.json baselines (scripts/perf_gate.sh) =="
# Gates every row in BENCH_kernels.json — the end-to-end residual sweeps,
# the nsu3d_* per-phase kernel rows (gradient/limiter/flux/smoother/line
# solve), and the halo-transport rows in BENCH_comm.json.
scripts/perf_gate.sh

echo
echo "== all checks passed =="
