#!/usr/bin/env bash
# Regenerate the pinned benchmark baselines (BENCH_headline.json,
# BENCH_net.json) from a Release build.
#
# The committed JSONs are the reference points for scripts/perf_gate.py and
# for the perf trajectory recorded in git history: each regeneration is a
# commit, so `git log -p BENCH_headline.json` reads as a throughput timeline.
# Regenerate only on a quiet machine, and mention the hardware in the commit
# message if it changed.
#
# Usage:
#   scripts/bench_baseline.sh                # full run (APCM_BENCH_SECONDS=2)
#   APCM_BENCH_SECONDS=0.5 scripts/bench_baseline.sh   # quicker, noisier
set -euo pipefail
cd "$(dirname "$0")/.."

# Pin the measurement window unless the caller overrides it; the committed
# baselines were produced with 2-second windows.
export APCM_BENCH_SECONDS="${APCM_BENCH_SECONDS:-2}"

BUILD_DIR="${APCM_BENCH_BUILD_DIR:-build}"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "${BUILD_DIR}" --target bench_headline bench_net

echo "== bench_headline (APCM_BENCH_SECONDS=${APCM_BENCH_SECONDS}) =="
"${BUILD_DIR}/bench/bench_headline" --json BENCH_headline.json
echo "== bench_net =="
"${BUILD_DIR}/bench/bench_net" --json BENCH_net.json

# Sanity: every file must parse, otherwise the perf gate starves.
for f in BENCH_headline.json BENCH_net.json; do
  python3 -m json.tool "$f" > /dev/null
done

echo
echo "Baselines regenerated. Review with:"
echo "  git diff BENCH_headline.json BENCH_net.json"
