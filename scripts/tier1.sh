#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, a build of
# the repository benchmark (perfbench/, compiled only), a build of the
# library and tools with tests, benches and examples off, then a
# telemetry-OFF configure (every BMF_* macro compiles to a no-op and the
# whole suite must still pass — the instrumentation is strictly additive),
# then an AddressSanitizer+UndefinedBehaviorSanitizer build running the
# fault-injection and telemetry suites (jitter retries, clamped pivots,
# exception unwinding, shard merges — exactly the paths where memory and UB
# bugs like to hide), the multi-population fusion and streaming suites
# (snapshot-cache invalidation and rejected-shard paths), the estimator API
# suite (the closed-form CV surface indexes raw per-fold buffers), the dsp and
# Monte Carlo contract suites (the FFT walks raw double pointers over
# std::complex storage; pinned dies, allocation contract), the testbench
# suite (the flash-ADC encoder indexes its raw bucket table and lane
# buffers), the circuit solver suite (the op-amp's AC sweep kernel indexes
# raw lane buffers), and
# the serve and common suites (the request decoders index raw payload bytes;
# the JSON parser counts its nesting depth and reads numbers with from_chars
# straight from the text, a pointer range into the request), and finally a
# ThreadSanitizer build covering the telemetry shard-merge tests (per-thread
# shards + merge-on-read), the log sinks, the full serve suite (epoll I/O
# threads trading connections, atomic stop flags, the stop/wait handshake),
# the fusion suite (single-threaded since the CV grid left the pool; kept
# so that any future parallel population snapshot is raced from day one),
# the estimator API suite (threads sharing one const estimator), and the
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
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# The repository benchmark (perfbench/) compiles the library from src/ in
# its own tree and uses its public declarations, so a src/ change that
# breaks one fails here rather than only in a benchmark run. Built, not run.
echo "==> tier-1: perfbench build"
cmake -B build-perfbench -S perfbench
cmake --build build-perfbench -j "$(nproc)" --target perfbench

# The library and tools alone: tests, benches and examples off. A target
# that reaches into an optional subtree (bench_common, say) without the
# option that builds it fails here.
echo "==> tier-1: minimal build (tests, benches and examples off)"
cmake -B build-minimal -S . -DBMFUSION_BUILD_TESTS=OFF \
  -DBMFUSION_BUILD_BENCHES=OFF -DBMFUSION_BUILD_EXAMPLES=OFF
cmake --build build-minimal -j "$(nproc)"

if [[ "${skip_telemetry_off}" -eq 1 ]]; then
  echo "==> tier-1: telemetry-OFF stage skipped (--skip-telemetry-off)"
else
  echo "==> tier-1: telemetry-OFF build + full ctest"
  cmake -B build-notel -S . -DBMFUSION_TELEMETRY=OFF
  cmake --build build-notel -j "$(nproc)"
  ctest --test-dir build-notel --output-on-failure -j "$(nproc)"
fi

if [[ "${skip_asan}" -eq 1 ]]; then
  echo "==> tier-1: ASan+UBSan stage skipped (--skip-asan)"
else
  echo "==> tier-1: ASan+UBSan build + fault-injection + telemetry + log suites"
  # GCC's -fsanitize=undefined leaves out float-cast-overflow, so a double
  # cast to an integer it cannot hold (the encoder's bucket index, say)
  # would pass silently without it.
  cmake -B build-asan -S . -DBMF_SANITIZE=address,undefined,float-cast-overflow
  cmake --build build-asan -j "$(nproc)" \
    --target test_fault_injection test_telemetry test_log test_fusion \
    test_streaming test_estimator_api test_dsp test_montecarlo_perf \
    test_testbenches test_circuit_solvers test_serve test_common
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
  # CV engine: the closed-form surface walks per-fold spectra, whitened
  # vectors and held-out matrices through raw indices, and the CvSurface
  # tests drive it at d = 1..8, ragged and empty folds, and the exact
  # fallback.
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_estimator_api
  # FFT and flash-ADC hot path: the butterflies index interleaved doubles
  # over std::complex storage through a per-workspace twiddle table, and the
  # thermometer encoder casts each input to an index into its bucket table
  # and reads lane pairs from its padded thresholds — the reference-FFT,
  # pinned-die and allocation-contract tests and the encoder tests (every
  # bucket edge, ±DBL_MAX, ±inf, NaN, a six-threshold bucket, 600 noisy
  # captures against a binary search) drive all of it.
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_dsp
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_montecarlo_perf
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_testbenches
  # The op-amp's AC sweep kernel indexes raw lane buffers (two frequency
  # points per elimination pass, per-step column lists, a backward pass cut
  # at the probe row); AcSweep.* checks it bitwise against the dense solve
  # on 1000 dies per stage and on each stop and fallback case.
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_circuit_solvers
  # Serve protocol and JSON parser: both wire modes decode into one typed
  # request, so the golden transcript, the truncated/trailing/wrapped binary
  # payloads and the nesting cap walk every decoder byte with ASan watching.
  # test_common holds the JsonParse.* suite (values, the number grammar and
  # malformed numbers, which end the from_chars range mid-token) and the
  # writer/parser round trip over 10^6 doubles.
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_serve
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/test_common

  # Perf smoke: the micro_circuit parity mode replays the Monte Carlo fast
  # path (workspace reuse, raw row writes, streaming reduction) against the
  # allocating reference under the sanitizers. It asserts bitwise agreement,
  # not timing, so it is stable on loaded CI machines while still walking
  # every hot-path pointer with ASan watching.
  echo "==> tier-1: perf smoke (micro_circuit --parity under ASan+UBSan)"
  cmake --build build-asan -j "$(nproc)" --target micro_circuit
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/bench/micro_circuit --parity

  # Serve smoke: bmf_soak with its in-process server covers both halves of
  # the serve stack (sockets, session registry, protocol, shard absorb) in
  # one ASan process — leaked sessions, connection threads, or fds fail the
  # leak check, drifted estimates fail the soak's own drift gate, and a
  # clean shutdown is required for the process to exit at all. The stdio
  # transport of the bmf_serve binary itself rides along as a one-liner.
  echo "==> tier-1: serve smoke (bmf_soak + bmf_serve --stdio under ASan+UBSan)"
  cmake --build build-asan -j "$(nproc)" --target bmf_soak bmf_serve
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
  cmake --build build -j "$(nproc)" --target bmf_doctor
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
  cmake --build build-tsan -j "$(nproc)" \
    --target test_telemetry test_log test_serve test_fusion test_estimator_api
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
  # Multi-population fusion under TSan: each population selects its
  # hyper-parameters on the calling thread (the CV grid no longer uses the
  # worker pool), so a joint snapshot is single-threaded today; the stage
  # stays so that any future parallel population snapshot runs under TSan
  # from its first commit.
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/test_fusion
  # The estimator surface: estimate() is const and writes no shared state,
  # so threads may share one estimator; ConstEstimateIsThreadSafe runs four
  # of them on one shift/scale BmfEstimator with two nominals. The whole
  # suite takes a few seconds under TSan.
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/test_estimator_api

  # The parallel Monte Carlo engine: pool workers streaming into per-worker
  # StatStreams, disjoint row writes, sharded telemetry counters from inside
  # worker bodies, and exception transport out of the pool — the thread
  # invariance and exception tests drive every cross-thread edge, and a
  # short multi-threaded micro_circuit parity run covers the full
  # bench-to-reduction stack in one process.
  echo "==> tier-1: TSan Monte Carlo (test_montecarlo_perf + micro_circuit --parity)"
  cmake --build build-tsan -j "$(nproc)" \
    --target test_montecarlo_perf micro_circuit
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
