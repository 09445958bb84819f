#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, then a
# telemetry-OFF configure (every BMF_* macro compiles to a no-op and the
# whole suite must still pass — the instrumentation is strictly additive),
# then an AddressSanitizer+UndefinedBehaviorSanitizer build running the
# fault-injection and telemetry suites (jitter retries, clamped pivots,
# exception unwinding, shard merges — exactly the paths where memory and UB
# bugs like to hide) plus the multi-population fusion and streaming suites
# (snapshot-cache invalidation and rejected-shard paths), and finally a
# ThreadSanitizer build covering the telemetry shard-merge tests (per-thread
# shards + merge-on-read), the log sinks, the full serve suite (epoll I/O
# threads trading connections, atomic stop flags, the stop/wait handshake),
# the fusion suite (N per-population CV grids on the shared pool), and the
# parallel Monte Carlo engine (per-worker StatStreams, pool exception
# transport, a multi-thread parity smoke).
#
# Usage: scripts/tier1.sh [--skip-asan] [--skip-telemetry-off] [--skip-tsan]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

skip_asan=0
skip_telemetry_off=0
skip_tsan=0
for arg in "$@"; do
  case "${arg}" in
    --skip-asan) skip_asan=1 ;;
    --skip-telemetry-off) skip_telemetry_off=1 ;;
    --skip-tsan) skip_tsan=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

echo "==> tier-1: standard build + full ctest"
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "${skip_telemetry_off}" -eq 1 ]]; then
  echo "==> tier-1: telemetry-OFF stage skipped (--skip-telemetry-off)"
else
  echo "==> tier-1: telemetry-OFF build + full ctest"
  cmake -B build-notel -S . -DBMFUSION_TELEMETRY=OFF
  cmake --build build-notel -j
  ctest --test-dir build-notel --output-on-failure -j "$(nproc)"
fi

if [[ "${skip_asan}" -eq 1 ]]; then
  echo "==> tier-1: ASan+UBSan stage skipped (--skip-asan)"
else
  echo "==> tier-1: ASan+UBSan build + fault-injection + telemetry + log suites"
  cmake -B build-asan -S . -DBMF_SANITIZE=address,undefined
  cmake --build build-asan -j \
    --target test_fault_injection test_telemetry test_log test_fusion \
    test_streaming
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_fault_injection
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_telemetry
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_log
  # Multi-population fusion: the contained-failure path (a corrupted
  # population's snapshot throwing mid-fusion) and the shard routing both
  # unwind across estimator internals — prime ASan territory.
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_fusion
  # Streaming core: the snapshot-cache invalidation tests (a batch observe
  # that throws mid-way, a snapshot that throws) and the rejected-shard
  # checks unwind through the cached-result code.
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_streaming

  # Perf smoke: the micro_circuit parity mode replays the Monte Carlo fast
  # path (workspace reuse, raw row writes, streaming reduction) against the
  # allocating reference under the sanitizers. It asserts bitwise agreement,
  # not timing, so it is stable on loaded CI machines while still walking
  # every hot-path pointer with ASan watching.
  echo "==> tier-1: perf smoke (micro_circuit --parity under ASan+UBSan)"
  cmake --build build-asan -j --target micro_circuit
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/bench/micro_circuit --parity

  # Serve smoke: bmf_soak with its in-process server covers both halves of
  # the serve stack (sockets, session registry, protocol, shard absorb) in
  # one ASan process — leaked sessions, connection threads, or fds fail the
  # leak check, drifted estimates fail the soak's own drift gate, and a
  # clean shutdown is required for the process to exit at all. The stdio
  # transport of the bmf_serve binary itself rides along as a one-liner.
  echo "==> tier-1: serve smoke (bmf_soak + bmf_serve --stdio under ASan+UBSan)"
  cmake --build build-asan -j --target bmf_soak bmf_serve
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tools/bmf_soak --requests 10000 --sessions 4 --batch 8 \
    --estimate-every 200
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tools/bmf_soak --requests 10000 --sessions 4 --batch 8 \
    --estimate-every 200 --mode binary
  # Captured rather than piped into grep -q: an early-exiting grep would
  # SIGPIPE the server mid-write and fail the stage under pipefail.
  stdio_smoke="$(printf '%s\n%s\n' \
    '{"op":"open","session":"smoke","estimator":"mle"}' \
    '{"op":"shutdown"}' | \
    UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tools/bmf_serve --stdio)"
  grep -q '"ok":true' <<<"${stdio_smoke}"

  # Admin-plane smoke: a daemonized ASan bmf_serve with --admin-port is
  # scraped (/metrics exposition validity, /healthz, /statusz JSON) while a
  # binary-mode soak hammers the same IoLoops, then bmf_doctor --live polls
  # the admin endpoints end to end. SIGTERM must drain to a clean exit so
  # the leak check still runs.
  echo "==> tier-1: admin plane smoke (scrape + bmf_doctor --live mid-soak)"
  cmake --build build -j --target bmf_doctor
  admin_dir="$(mktemp -d)"
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tools/bmf_serve --port 0 --port-file "${admin_dir}/port" \
    --admin-port 0 --admin-port-file "${admin_dir}/aport" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "${admin_dir}/port" && -s "${admin_dir}/aport" ]] && break
    sleep 0.1
  done
  [[ -s "${admin_dir}/aport" ]] || { echo "bmf_serve admin port never appeared" >&2; exit 1; }
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tools/bmf_soak --port "$(cat "${admin_dir}/port")" \
    --requests 8000 --sessions 2 --batch 8 --estimate-every 200 \
    --mode binary &
  soak_pid=$!
  python3 scripts/scrape_admin.py "127.0.0.1:$(cat "${admin_dir}/aport")" \
    --count 5 --interval-s 0.2
  ./build/tools/bmf_doctor --live "127.0.0.1:$(cat "${admin_dir}/aport")" \
    --live-interval-s 0.5 > "${admin_dir}/doctor.md"
  grep -q '## Live server' "${admin_dir}/doctor.md"
  wait "${soak_pid}"
  kill -TERM "${serve_pid}"
  wait "${serve_pid}"
  rm -rf "${admin_dir}"
  # Multi-population session over the same stdio transport: open a
  # two-population fusion session, observe into population 1, and require
  # a joint estimate that reports both population slots.
  fusion_smoke="$(printf '%s\n%s\n%s\n%s\n' \
    '{"op":"open","session":"fsmoke","estimator":"fusion","config":{"shift_scale":false,"kappa_points":4,"nu_points":4},"populations":[{"early":{"mean":[0.0,0.0],"covariance":[[1.0,0.0],[0.0,1.0]]}},{"early":{"mean":[0.0,0.0],"covariance":[[1.0,0.0],[0.0,1.0]]}}],"correlation":[[1.0,0.7],[0.7,1.0]]}' \
    '{"op":"observe","session":"fsmoke","population":1,"samples":[[0.1,0.2],[0.3,-0.1],[0.2,0.1],[-0.2,0.3],[0.1,-0.3],[0.4,0.1],[0.0,0.2],[0.2,-0.2]]}' \
    '{"op":"estimate","session":"fsmoke"}' \
    '{"op":"shutdown"}' | \
    UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tools/bmf_serve --stdio)"
  grep -q '"observed_populations":1' <<<"${fusion_smoke}"
fi

if [[ "${skip_tsan}" -eq 1 ]]; then
  echo "==> tier-1: TSan stage skipped (--skip-tsan)"
else
  echo "==> tier-1: TSan build + telemetry shard-merge + log sink tests"
  cmake -B build-tsan -S . -DBMF_SANITIZE=thread
  cmake --build build-tsan -j \
    --target test_telemetry test_log test_serve test_fusion
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/test_telemetry \
    --gtest_filter='CounterShards.*:HistogramShards.*:Trace.*'
  # The logger's one lock-free piece (flight-recorder ring) plus the mutexed
  # sink fan-out, hammered from the persistent pool.
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/test_log \
    --gtest_filter='LogConcurrency.*:FlightRecorder.*'
  # The serve event loop: epoll I/O threads handing connections to each
  # other (inbox + eventfd wake), atomic stop flags, and the stop/wait
  # shutdown handshake — the full suite runs with TSan watching every
  # cross-thread edge.
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/test_serve
  # Multi-population fusion under TSan: every per-population BmfEstimator
  # runs its CV grid on the shared worker pool, so a joint snapshot fans
  # out and joins N pools' worth of cross-thread edges.
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/test_fusion

  # The parallel Monte Carlo engine: pool workers streaming into per-worker
  # StatStreams, disjoint row writes, sharded telemetry counters from inside
  # worker bodies, and exception transport out of the pool — the thread
  # invariance and exception tests drive every cross-thread edge, and a
  # short multi-threaded micro_circuit parity run covers the full
  # bench-to-reduction stack in one process.
  echo "==> tier-1: TSan Monte Carlo (test_montecarlo_perf + micro_circuit --parity)"
  cmake --build build-tsan -j --target test_montecarlo_perf micro_circuit
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/test_montecarlo_perf \
    --gtest_filter='ThreadInvariance.*:ExceptionPropagation.*'
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/bench/micro_circuit --parity
fi

# Bench regression sentinel in report-only mode: surfaces perf drift next to
# the functional gates without making noisy micro-kernels block merges. The
# self-test is a hard gate — detection logic must work.
echo "==> tier-1: bench regression sentinel"
python3 scripts/bench_check.py --self-test
python3 scripts/bench_check.py --report-only \
  BENCH_circuit.json BENCH_cv.json BENCH_linalg.json BENCH_serve.json \
  BENCH_fusion.json

echo "==> tier-1: OK"
