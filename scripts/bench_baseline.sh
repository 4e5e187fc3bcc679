#!/usr/bin/env bash
# Emits the committed perf-trajectory artifacts:
#   BENCH_micro.json     — combined google-benchmark JSON for the micro
#                          regression gates (counters, allocator, topology);
#   BENCH_engine.json    — raw engine stepping throughput (cycles/sec per
#                          scale x load x engine.threads shard count,
#                          dfsim_run perf). When the output file already
#                          exists (the committed trajectory), a drop of more
#                          than 20% per point prints a SOFT warning — timing
#                          noise makes a hard gate flaky — and never fails
#                          the run. The threads axis is the sharded-engine
#                          scaling record; read it against the cores the
#                          measuring host actually had (a 1-core container
#                          shows a flat profile by construction).
#
# Usage: scripts/bench_baseline.sh [--engine] [build-dir] [micro-out]
#                                  [engine-out]
#   --engine   emit only BENCH_engine.json (the CI perf-smoke job)
set -euo pipefail

ENGINE_ONLY=0
if [[ "${1:-}" == "--engine" ]]; then
  ENGINE_ONLY=1
  shift
fi

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_micro.json}"
ENGINE_OUT="${3:-BENCH_engine.json}"
MIN_TIME="${DFSIM_BENCH_MIN_TIME:-0.2}"

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "error: build dir '$BUILD_DIR' not found (run cmake first)" >&2
  exit 1
fi
if [[ ! -x "$BUILD_DIR/dfsim_run" ]]; then
  echo "error: $BUILD_DIR/dfsim_run missing — build it first" >&2
  exit 1
fi

# One EXIT trap covers every scratch path (mktemp files/dirs below), so an
# abort at any point leaves nothing behind.
SCRATCH=()
cleanup() { [[ ${#SCRATCH[@]} -gt 0 ]] && rm -rf "${SCRATCH[@]}" || true; }
trap cleanup EXIT

# Engine stepping throughput through dfsim_run perf: the committed file (if
# any) doubles as the soft regression baseline for the fresh measurement.
emit_engine() {
  local tmp
  tmp="$(mktemp)"
  SCRATCH+=("$tmp")
  local baseline_args=()
  if [[ -f "$ENGINE_OUT" ]]; then
    baseline_args=(--baseline="$ENGINE_OUT" --threshold=0.2)
  fi
  "$BUILD_DIR/dfsim_run" perf --scales=tiny,medium,paper --loads=0.05,0.3 \
    --engine-threads=1,2,4,8 \
    --out="$tmp" "${baseline_args[@]+"${baseline_args[@]}"}"
  mv "$tmp" "$ENGINE_OUT"
  echo "wrote $ENGINE_OUT"
}

if [[ "$ENGINE_ONLY" -eq 1 ]]; then
  emit_engine
  exit 0
fi

benches=(micro_counters micro_allocator micro_topology)
for b in "${benches[@]}"; do
  if [[ ! -x "$BUILD_DIR/$b" ]]; then
    echo "error: $BUILD_DIR/$b missing — build with google-benchmark available" >&2
    exit 1
  fi
done

tmpdir="$(mktemp -d)"
SCRATCH+=("$tmpdir")

for b in "${benches[@]}"; do
  echo "== $b ==" >&2
  "$BUILD_DIR/$b" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$tmpdir/$b.json" \
    --benchmark_out_format=json >&2
done

# Merge: one object keyed by bench binary, preserving full benchmark JSON.
python3 - "$OUT" "$tmpdir" "${benches[@]}" <<'EOF'
import json, sys
out, tmpdir, benches = sys.argv[1], sys.argv[2], sys.argv[3:]
merged = {}
for b in benches:
    with open(f"{tmpdir}/{b}.json") as f:
        merged[b] = json.load(f)
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
print(f"wrote {out}")
EOF

emit_engine
