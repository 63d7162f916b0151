#!/usr/bin/env bash
# Full verification: configure, build, run every test, smoke every example,
# and run each benchmark briefly. This is what CI runs.
#
# Modes:
#   scripts/check.sh          full release check (orphan-header guard +
#                             build + ctest + smokes)
#   scripts/check.sh --tsan   ThreadSanitizer check: rebuild the concurrency
#                             surface under -fsanitize=thread and repeat the
#                             engine/thread-pool tests (APCM_TSAN_REPEAT
#                             iterations, default 50) with halt_on_error.
#   scripts/check.sh --chaos  fault-injection check: rebuild with
#                             -DAPCM_FAILPOINTS=ON under ASan+UBSan, run the
#                             chaos-labeled suites (ctest -L chaos), then a
#                             failpoint-armed differential soak.
#
# set -o pipefail (inside -euo below) is load-bearing: the filtered ctest
# runs pipe through tee, and without pipefail a failing ctest upstream of the
# pipe would exit 0 and the script would report success on broken tests.
set -euo pipefail
cd "$(dirname "$0")/.."

# Failure trailer: every non-zero exit prints the seed-bearing environment so
# a red run can be replayed exactly (the soak op budget and the failpoint
# schedule are the only sources of cross-run variation).
on_failure() {
  local code=$?
  echo "CHECK FAILED (exit ${code}) — replay with:" >&2
  echo "  APCM_SOAK_OPS=${APCM_SOAK_OPS:-<unset>}" >&2
  echo "  APCM_FAILPOINTS=${APCM_FAILPOINTS:-<unset>}" >&2
  echo "  APCM_TSAN_REPEAT=${APCM_TSAN_REPEAT:-<unset>}" >&2
}
trap on_failure ERR

# Prefer Ninja when present; otherwise fall back to CMake's default
# generator (Unix Makefiles) instead of failing on a missing tool.
GENERATOR=()
if command -v ninja > /dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

# Runs a gtest binary under TSan and fails unless it ran at least one test:
# a --gtest_filter that matches nothing exits 0, which would turn the step
# into a silent no-op.
run_tsan_gtest() {
  local log
  log="$(mktemp)"
  TSAN_OPTIONS="halt_on_error=1" "$@" | tee "${log}"
  if ! grep -Eq '^\[  PASSED  \] [1-9][0-9]* tests?\.' "${log}"; then
    echo "no tests ran: $*" >&2
    rm -f "${log}"
    return 1
  fi
  rm -f "${log}"
}

run_tsan() {
  local build_dir=build-tsan
  cmake -B "${build_dir}" "${GENERATOR[@]}" \
    -DAPCM_SANITIZE=thread \
    -DAPCM_BUILD_BENCHMARKS=OFF \
    -DAPCM_BUILD_EXAMPLES=OFF
  cmake --build "${build_dir}" --target \
    engine_concurrent_test thread_pool_test metrics_test pcm_test \
    matcher_agreement_test net_server_test net_reactor_test event_trace_test \
    cluster_router_test
  local repeat="${APCM_TSAN_REPEAT:-50}"
  TSAN_OPTIONS="halt_on_error=1" \
    "./${build_dir}/tests/engine_concurrent_test" \
    --gtest_repeat="${repeat}" --gtest_brief=1
  TSAN_OPTIONS="halt_on_error=1" \
    "./${build_dir}/tests/thread_pool_test" \
    --gtest_repeat="${repeat}" --gtest_brief=1
  TSAN_OPTIONS="halt_on_error=1" \
    "./${build_dir}/tests/metrics_test" \
    --gtest_repeat="${repeat}" --gtest_brief=1
  # Cluster-parallel matching under TSan: the PCM suite's multi-threaded
  # configurations and the agreement suite's threaded matcher and engine
  # oracles (2 and 4 worker threads) against SCAN, plus the dispatch
  # differential (stripes over the visited clusters at 4 threads). Two
  # passes of the differential set are plenty under TSan.
  run_tsan_gtest "./${build_dir}/tests/pcm_test" \
    --gtest_filter='*PcmRandomTest*:*PcmDispatchTest*' --gtest_repeat=2 \
    --gtest_brief=1
  run_tsan_gtest "./${build_dir}/tests/matcher_agreement_test" \
    --gtest_filter='*Threaded*' --gtest_repeat=2 --gtest_brief=1
  # The network stack end-to-end (I/O thread + pump thread + match-callback
  # fan-out + Stop drain) under TSan. The suite floods sockets, so a few
  # full passes give plenty of interleavings.
  TSAN_OPTIONS="halt_on_error=1" \
    "./${build_dir}/tests/net_server_test" \
    --gtest_repeat=3 --gtest_brief=1
  # The epoll reactor's direct-engine oracle at io_threads 1/2/4: N I/O
  # threads, cross-thread Enqueue handoff, accept sharding, and the Stop
  # drain all race under TSan here (failpoint scenarios skip: TSan builds
  # compile failpoints out).
  TSAN_OPTIONS="halt_on_error=1" \
    "./${build_dir}/tests/net_reactor_test" \
    --gtest_repeat=3 --gtest_brief=1
  # The cluster router: backend links ride the reactor, so backend frames
  # cross from I/O threads to the router thread through its inbox, next to
  # client frames, topology commands, and the admin snapshot reader (the
  # failpoint case skips, as above).
  TSAN_OPTIONS="halt_on_error=1" \
    "./${build_dir}/tests/cluster_router_test" \
    --gtest_repeat=3 --gtest_brief=1
  # The tracer's refcount lifecycle and the trace ring's seqlock under
  # multi-writer churn (the ring test hammers 4 writers against a
  # continuous snapshot reader).
  TSAN_OPTIONS="halt_on_error=1" \
    "./${build_dir}/tests/event_trace_test" \
    --gtest_repeat="${repeat}" --gtest_brief=1
  echo "TSAN CHECKS PASSED (${repeat} iterations)"
}

run_chaos() {
  local build_dir=build-chaos
  cmake -B "${build_dir}" "${GENERATOR[@]}" \
    -DAPCM_FAILPOINTS=ON \
    -DAPCM_SANITIZE=address,undefined \
    -DAPCM_BUILD_BENCHMARKS=OFF \
    -DAPCM_BUILD_EXAMPLES=OFF
  cmake --build "${build_dir}"
  # Scripted fault schedules + failpoint-deepened frame/client fault suites,
  # plus the durability kill matrix (ctest -L recovery: crash-seam recovery,
  # torn-tail fuzz, on-disk serialization faults) and the cluster tier's
  # differential oracle with router failpoints armed (ctest -L cluster) and
  # the reactor's connection-scale suites (ctest -L net: the direct-engine
  # oracle across io_threads 1/2/4, edge-trigger corner replay, the
  # slow-consumer herd, and the armed-failpoint soak).
  # The tee pipe is why pipefail matters: ctest's exit status must survive it.
  ctest --test-dir "${build_dir}" -L 'chaos|recovery|cluster|net' \
    --output-on-failure \
    | tee /tmp/apcm_chaos_ctest.log
  # Differential soak with a perturbing failpoint schedule armed: delays at
  # the rebuild seams and probabilistic yields in the pool keep snapshot
  # builds in flight while the churn runs; the SCAN oracle must still agree
  # on every match set. Seeded (@7) so a failure replays exactly.
  APCM_SOAK_OPS="${APCM_SOAK_OPS:-400}" \
  APCM_FAILPOINTS='engine.rebuild.start=delay(500),engine.rebuild.publish=delay(500),engine.apply_delta=yield,threadpool.dispatch=10%yield@7' \
    "./${build_dir}/tests/fuzz_test" --gtest_brief=1
  echo "CHAOS CHECKS PASSED"
}

if [[ "${1:-}" == "--tsan" ]]; then
  run_tsan
  exit 0
fi
if [[ "${1:-}" == "--chaos" ]]; then
  run_chaos
  exit 0
fi

scripts/orphan_headers.sh
cmake -B build "${GENERATOR[@]}"
cmake --build build
ctest --test-dir build --output-on-failure

./build/examples/quickstart > /dev/null
./build/examples/ads_targeting 20000 > /dev/null
./build/examples/intrusion_detection > /dev/null
./build/examples/algo_trading > /dev/null
./build/examples/workload_tool generate /tmp/apcm_check.bin --subs 5000
./build/examples/workload_tool match /tmp/apcm_check.bin a-pcm > /dev/null
./build/examples/workload_tool index /tmp/apcm_check.bin /tmp/apcm_check.idx
./build/examples/workload_tool match-indexed /tmp/apcm_check.bin /tmp/apcm_check.idx > /dev/null
rm -f /tmp/apcm_check.bin /tmp/apcm_check.idx

APCM_BENCH_SECONDS=0.2 bash -c 'for b in build/bench/bench_*; do "$b" > /dev/null; done'
echo "ALL CHECKS PASSED"
