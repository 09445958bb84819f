#!/usr/bin/env bash
# Tracked-benchmark driver: builds the benches in a dedicated Release
# (-O3 -DNDEBUG) tree, replays the parity checks, then appends one record
# per harness to the BENCH_*.json arrays at the repo root. Records carry
# the git revision, date and a free-form label so the perf trajectory can
# be regressed against (see DESIGN.md, "Performance architecture").
#
# Usage: scripts/bench.sh [--label STR] [--samples N] [--skip-linalg]
#                         [--notel-serve]
#
# --notel-serve additionally builds a telemetry-OFF tree and appends
# metrics-OFF bmf_soak records, which activates bench_check.py's
# metrics-ON-vs-OFF throughput-overhead gate (<= 3%).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

label="dev"
samples=2000
skip_linalg=0
notel_serve=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --label) label="$2"; shift 2 ;;
    --samples) samples="$2"; shift 2 ;;
    --skip-linalg) skip_linalg=1; shift ;;
    --notel-serve) notel_serve=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

git_rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
date_iso="$(date +%F)"

echo "==> bench: Release build"
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j "$(nproc)" --target micro_circuit micro_cv micro_serve \
  micro_fusion micro_linalg bmf_soak

echo "==> bench: fast-path parity gate"
./build-bench/bench/micro_circuit --parity

echo "==> bench: micro_circuit (MC throughput, stage timings, allocations)"
# The telemetry snapshot + Chrome trace accompany the JSON append so a
# regression in a BENCH_circuit.json record can be cross-examined against
# the counters (DC iterations, warm-start hits, jitter retries) of the same
# run. Snapshots are overwritten each run, not appended. Traces are bulky
# per-run artifacts, so they go to the untracked bench_data/ directory.
mkdir -p bench_data
./build-bench/bench/micro_circuit --samples="${samples}" --iters=50 \
  --json BENCH_circuit.json --label "${label}" --git "${git_rev}" \
  --date "${date_iso}" \
  --telemetry BENCH_circuit.telemetry.json \
  --trace bench_data/BENCH_circuit.trace.json

# Multi-thread lane: one record at the host's core count so the sentinel's
# scaling-efficiency gate has data. Records carry host_cores metadata, so a
# run on a small container is kept as history without asserting speedups
# the hardware cannot deliver; on a 1-core host the lane is skipped
# (it would duplicate the single-thread record above).
host_cores="$(nproc)"
if [[ "${host_cores}" -gt 1 ]]; then
  echo "==> bench: micro_circuit threads=${host_cores} (scaling lane)"
  ./build-bench/bench/micro_circuit --samples="${samples}" --iters=50 \
    --threads="${host_cores}" \
    --json BENCH_circuit.json --label "${label}" --git "${git_rev}" \
    --date "${date_iso}"
fi

echo "==> bench: micro_cv (CV engine old-vs-new)"
./build-bench/bench/micro_cv --json BENCH_cv.json --label "${label}" \
  --git "${git_rev}" --date "${date_iso}" \
  --telemetry BENCH_cv.telemetry.json

echo "==> bench: micro_serve (serve protocol throughput + latency)"
./build-bench/bench/micro_serve --json BENCH_serve.json --label "${label}" \
  --git "${git_rev}" --date "${date_iso}" \
  --telemetry BENCH_serve.telemetry.json

echo "==> bench: micro_serve --mode binary (pipelined binary framing)"
# Recorded as bench "micro_serve_binary" so the sentinel gates the two wire
# modes against their own histories and budgets. 256 connections is the
# scale the event-loop transport exists for (thread-per-connection died
# here); keeping the record at that concurrency keeps the history honest.
./build-bench/bench/micro_serve --mode binary --sessions 256 --pipeline 16 \
  --requests 51200 --estimate-every 0 \
  --json BENCH_serve.json --label "${label}" \
  --git "${git_rev}" --date "${date_iso}"

echo "==> bench: bmf_soak (client-observed quantiles, both wire modes)"
# The soak driver's client-side p50/p95/p99 are what a deployment actually
# experiences (socket + framing + queueing included), so they get their own
# records next to micro_serve's. Each lane is recorded three times: on a
# shared host, scheduling noise only ever subtracts throughput, so the
# sentinel's telemetry-overhead gate compares the best same-revision run
# per side (see bench_check.py).
for _rep in 1 2 3; do
  ./build-bench/tools/bmf_soak --requests 30000 --sessions 4 --batch 16 \
    --estimate-every 100 --json BENCH_serve.json --label "${label}" \
    --git "${git_rev}" --date "${date_iso}"
  ./build-bench/tools/bmf_soak --requests 30000 --sessions 4 --batch 16 \
    --estimate-every 100 --mode binary --json BENCH_serve.json \
    --label "${label}" --git "${git_rev}" --date "${date_iso}"
done

if [[ "${notel_serve}" -eq 1 ]]; then
  echo "==> bench: bmf_soak metrics-OFF lane (telemetry overhead gate)"
  cmake -B build-bench-notel -S . -DCMAKE_BUILD_TYPE=Release \
    -DBMFUSION_TELEMETRY=OFF
  cmake --build build-bench-notel -j "$(nproc)" --target bmf_soak
  for _rep in 1 2 3; do
    ./build-bench-notel/tools/bmf_soak --requests 30000 --sessions 4 \
      --batch 16 --estimate-every 100 --json BENCH_serve.json \
      --label "${label}" --git "${git_rev}" --date "${date_iso}"
    ./build-bench-notel/tools/bmf_soak --requests 30000 --sessions 4 \
      --batch 16 --estimate-every 100 --mode binary --json BENCH_serve.json \
      --label "${label}" --git "${git_rev}" --date "${date_iso}"
  done
fi

echo "==> bench: micro_fusion (multi-population held-out accuracy + latency)"
./build-bench/bench/micro_fusion --json BENCH_fusion.json --label "${label}" \
  --git "${git_rev}" --date "${date_iso}"

if [[ "${skip_linalg}" -eq 1 ]]; then
  echo "==> bench: micro_linalg skipped (--skip-linalg)"
  exit 0
fi

echo "==> bench: micro_linalg (google-benchmark kernels)"
# Compact the gbench CSV into one {"name": real_time_ns} map so the record
# stays a single line of the same JSON-array format the other benches use.
csv="$(mktemp)"
./build-bench/bench/micro_linalg --benchmark_format=csv >"${csv}" 2>/dev/null
record="$(awk -F',' -v label="${label}" -v rev="${git_rev}" \
              -v date="${date_iso}" '
  BEGIN { printf "{\"bench\": \"micro_linalg\", \"label\": \"%s\", " \
                 "\"git\": \"%s\", \"date\": \"%s\", \"real_time_ns\": {",
                 label, rev, date }
  /^"/ {
    name = $1; gsub(/"/, "", name)
    printf "%s\"%s\": %.1f", sep, name, $3; sep = ", "
  }
  END { print "}}" }' "${csv}")"
rm -f "${csv}"

# Append one record to a JSON array file (creating it when absent), matching
# bmfusion::bench::append_json_record.
append_json() {
  local file="$1" rec="$2"
  if [[ ! -s "${file}" ]]; then
    printf '[\n%s\n]\n' "${rec}" >"${file}"
    return
  fi
  awk -v rec="${rec}" '
    { lines[NR] = $0 }
    END {
      close_i = 0
      for (i = NR; i >= 1; --i)
        if (lines[i] ~ /^[[:space:]]*\]/) { close_i = i; break }
      if (close_i == 0) { exit 1 }
      for (i = 1; i < close_i; ++i) {
        if (i == close_i - 1 && lines[i] !~ /^[[:space:]]*\[[[:space:]]*$/)
          print lines[i] ","
        else
          print lines[i]
      }
      print rec
      print "]"
    }' "${file}" >"${file}.tmp" && mv "${file}.tmp" "${file}"
}
append_json BENCH_linalg.json "${record}"
echo "  record appended to BENCH_linalg.json"

# Immediate feedback on the records just appended; the hard gate lives in
# scripts/tier1.sh (report-only there too) and in CI policy, not here.
if command -v python3 >/dev/null 2>&1; then
  echo "==> bench: regression sentinel (report-only)"
  python3 scripts/bench_check.py --report-only \
    BENCH_circuit.json BENCH_cv.json BENCH_linalg.json BENCH_serve.json \
    BENCH_fusion.json
fi

echo "==> bench: OK"
