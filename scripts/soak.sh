#!/usr/bin/env bash
# Bounded fault-matrix soak for the distributed transport: runs the
# guarded multi-rank solve (examples/distributed_solve) across
# backend x strategy x fault-mix, requires every run to converge or
# recover (never hang — each run sits under a hard watchdog), and
# bit-compares the residual/CL/CD history artifact across every cell
# against the clean in-process reference.
#
#   scripts/soak.sh                   # build dir ./build, watchdog 300s
#   BUILD_DIR=out scripts/soak.sh     # alternate build tree
#   SOAK_TIMEOUT=120 scripts/soak.sh  # tighter per-run watchdog (seconds)
set -uo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
SOLVE="$BUILD_DIR/examples/distributed_solve"
TIMEOUT_S="${SOAK_TIMEOUT:-300}"
CYCLES=8
WORK="$(mktemp -d "${TMPDIR:-/tmp}/columbia_soak.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

if [[ ! -x "$SOLVE" ]]; then
  echo "soak: $SOLVE not built (cmake --build $BUILD_DIR -j)" >&2
  exit 2
fi

fail=0
run() { # run <name> <history-file> <args...>
  local name="$1" hist="$2"
  shift 2
  local log="$WORK/$name.log"
  if ! timeout "$TIMEOUT_S" "$SOLVE" --cycles "$CYCLES" --history "$hist" \
      --checkpoint "$WORK/$name.ckpt" "$@" >"$log" 2>&1; then
    echo "FAIL $name (exit $?)"
    sed 's/^/    /' "$log"
    fail=1
    return 1
  fi
  local status
  status="$(grep -o 'status: [a-z]*' "$log" | head -1)"
  echo "ok   $name (${status:-status: ok})"
}

echo "== soak: clean in-process reference (both Fig. 7 strategies) =="
run ref-t2t "$WORK/ref-t2t.txt" --backend threads --ranks 2 --strategy t2t
run ref-master "$WORK/ref-master.txt" --backend threads --ranks 2 \
  --strategy master --tpp 2

# The fault matrix: every wire backend under every transport fault kind.
# conn_reset tears down a connection (tcp) or flushes the peer-directed
# ring mid-flight (shm); the frame/timing faults run everywhere. The
# overlap-agg cells pin the interior/halo split AND coarse-level rank
# agglomeration on explicitly, so msg_delay and conn_reset land while
# exchanges are in flight between post() and finish() — delayed or
# reset-flushed frames must be recovered by the finish()-side protocol
# without perturbing the history.
declare -a CELLS=(
  "shm-clean|shm|t2t||"
  "tcp-clean|tcp|t2t||"
  "shm-master|shm|master||"
  "shm-drop|shm|t2t|seed=13,msg_drop=0.2,halo_corrupt=0.2|"
  "tcp-drop|tcp|t2t|seed=13,msg_drop=0.2,halo_corrupt=0.2|"
  "tcp-delay|tcp|t2t|seed=5,msg_delay=0.3@5|"
  "tcp-reset|tcp|t2t|seed=29,conn_reset=0.3|"
  "shm-hang|shm|t2t|seed=3,peer_hang=1@1|"
  "shm-overlap-agg|shm|t2t|seed=7,msg_delay=0.2,conn_reset=0.05|--overlap 1 --agglomerate 64"
  "tcp-overlap-agg|tcp|t2t|seed=11,msg_delay=0.2@5,conn_reset=0.1|--overlap 1 --agglomerate 64"
)

echo
echo "== soak: fault matrix (backend x strategy x fault) =="
for cell in "${CELLS[@]}"; do
  IFS='|' read -r name backend strategy faults extra <<<"$cell"
  args=(--backend "$backend" --ranks 2 --strategy "$strategy")
  [[ "$strategy" == master ]] && args+=(--tpp 2)
  [[ -n "$faults" ]] && args+=(--faults "$faults")
  # shellcheck disable=SC2206 — extra is a deliberate word-split flag list
  [[ -n "$extra" ]] && args+=($extra)
  run "$name" "$WORK/$name.txt" "${args[@]}" || continue
  ref="$WORK/ref-t2t.txt"
  [[ "$strategy" == master ]] && ref="$WORK/ref-master.txt"
  if ! cmp -s "$ref" "$WORK/$name.txt"; then
    echo "FAIL $name: history differs from the clean reference"
    fail=1
  fi
done

# Traced cell: the distributed flight recorder end-to-end. A traced shm
# run must (a) leave one durable telemetry shard per rank next to the
# requested trace, (b) keep the solve history bit-identical to the
# untraced reference (the recorder is numerically invisible), (c) yield
# a non-empty clock-aligned comm report when the shards are fed to
# `columbia_report comm` — matched halo messages > 0, both ranks in the
# liveness table, and no provenance mismatch — and (d) merge into a trace
# whose columbia.shards block has one entry per rank, each carrying one
# cycle record per cycle of the history artifact.
echo
echo "== soak: traced shm run -> merged comm report =="
REPORT="$BUILD_DIR/tools/columbia_report"
if [[ ! -x "$REPORT" ]]; then
  echo "FAIL trace-shm: $REPORT not built"
  fail=1
elif run trace-shm "$WORK/trace-shm.txt" --backend shm --ranks 2 \
    --strategy t2t --trace "$WORK/trace-shm.json"; then
  if ! cmp -s "$WORK/ref-t2t.txt" "$WORK/trace-shm.txt"; then
    echo "FAIL trace-shm: traced history differs from the clean reference"
    fail=1
  fi
  shards=("$WORK"/trace-shm.json.shards.rank*.jsonl)
  if [[ ! -e "${shards[0]:-}" ]]; then
    echo "FAIL trace-shm: no telemetry shards left beside the trace"
    fail=1
  elif ! "$REPORT" comm --json "${shards[@]}" >"$WORK/trace-shm-comm.json" \
      2>"$WORK/trace-shm-comm.err"; then
    echo "FAIL trace-shm: columbia_report comm failed on the shards"
    sed 's/^/    /' "$WORK/trace-shm-comm.err"
    fail=1
  else
    python3 - "$WORK/trace-shm-comm.json" <<'PY' || fail=1
import json, sys
run = json.load(open(sys.argv[1]))["runs"][0]
msgs = sum(g["messages"] for g in run["comm"]["groups"])
live = len(run["liveness"])
ok = msgs > 0 and live == 2 and not run["provenance_mismatch"]
word = "ok  " if ok else "FAIL"
print(f"{word} trace-shm comm report: {msgs} matched messages, "
      f"{live} liveness rows, provenance "
      f"{'mismatch' if run['provenance_mismatch'] else 'clean'}")
sys.exit(0 if ok else 1)
PY
    python3 - "$WORK/trace-shm.json" "$WORK/trace-shm.txt" <<'PY' || fail=1
import json, sys
shards = json.load(open(sys.argv[1]))["columbia"]["shards"]
# History artifact: the initial residual, one per cycle, then CL and CD.
cycles = sum(1 for l in open(sys.argv[2]) if not l.startswith("C")) - 1
conv = [len(s["conv"]) for s in shards]
ok = len(shards) == 2 and all(n == cycles for n in conv)
word = "ok  " if ok else "FAIL"
print(f"{word} trace-shm merged trace: {len(shards)} shard entries, "
      f"cycle records {conv}, history has {cycles} cycles")
sys.exit(0 if ok else 1)
PY
  fi
fi

echo
if [[ "$fail" -ne 0 ]]; then
  echo "== soak: FAILED =="
  exit 1
fi
echo "== soak: every cell converged or recovered, histories bit-identical =="
