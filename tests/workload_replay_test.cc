// Golden workload-replay regression. A small seeded workload::Trace is
// checked in under tests/data/ together with a golden digest of the match
// sets the engine must produce when replaying it. Any change to the parser,
// matcher family, matcher threading, or engine round logic that alters *which*
// matches are delivered shows up as a digest mismatch here — before it shows
// up as a subtle disagreement in production.
//
// The digest depends only on logical content (publish index -> sorted
// subscription indices), never on thread interleaving or delivery order, so
// it is byte-stable across runs, build types, and matcher backends: the
// replay is asserted for the default A-PCM engine, a 4-thread engine, and the
// SCAN oracle, which must all agree with the checked-in value.
//
// Regenerating after an *intended* matching-semantics change:
//
//     APCM_UPDATE_GOLDEN=1 ./build/tests/workload_replay_test
//
// rewrites tests/data/replay_trace.bin and tests/data/replay_golden.txt in
// the source tree; commit both and explain the semantic change in the PR.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/bitmap/kernels.h"
#include "src/engine/engine.h"
#include "src/workload/generator.h"
#include "src/workload/trace.h"

namespace apcm {
namespace {

using engine::EngineOptions;
using engine::MatcherKind;
using engine::StreamEngine;

#ifndef APCM_TEST_DATA_DIR
#error "APCM_TEST_DATA_DIR must be defined by the build"
#endif

std::string DataPath(const std::string& name) {
  return std::string(APCM_TEST_DATA_DIR) + "/" + name;
}

const char kTracePath[] = "replay_trace.bin";
const char kGoldenPath[] = "replay_golden.txt";

/// The spec behind the checked-in trace. Only consulted when regenerating
/// (APCM_UPDATE_GOLDEN=1) and by the reproducibility guard below; the test
/// proper replays the serialized bytes.
workload::WorkloadSpec GoldenSpec() {
  workload::WorkloadSpec spec;
  spec.seed = 20260806;
  spec.num_subscriptions = 300;
  spec.num_events = 200;
  spec.num_attributes = 24;
  spec.domain_max = 1000;
  spec.min_predicates = 1;
  spec.max_predicates = 5;
  spec.min_event_attrs = 4;
  spec.max_event_attrs = 10;
  spec.in_fraction = 0.2;
  spec.ne_fraction = 0.1;
  return spec;
}

struct ReplayResult {
  /// publish index -> ascending subscription indices that matched.
  std::map<uint64_t, std::vector<uint64_t>> rows;
  uint64_t total_matches = 0;
};

/// FNV-1a over the row map; identical to the chaos-suite digest so the two
/// suites report comparable fingerprints.
uint64_t HashRows(const std::map<uint64_t, std::vector<uint64_t>>& rows) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [key, subs] : rows) {
    mix(key);
    mix(subs.size());
    for (uint64_t s : subs) mix(s);
  }
  return h;
}

std::string HashHex(uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

ReplayResult Replay(const workload::Workload& workload,
                    const EngineOptions& options) {
  std::map<uint64_t, std::vector<uint64_t>> by_event_id;
  std::map<SubscriptionId, uint64_t> sub_index;
  std::mutex mu;
  StreamEngine engine(
      options,
      [&](uint64_t event_id, const std::vector<SubscriptionId>& matches) {
        std::lock_guard<std::mutex> lock(mu);
        if (matches.empty()) return;
        std::vector<uint64_t>& row = by_event_id[event_id];
        for (SubscriptionId id : matches) row.push_back(sub_index.at(id));
      });
  for (size_t i = 0; i < workload.subscriptions.size(); ++i) {
    auto added = engine.AddSubscription(workload.subscriptions[i].predicates());
    EXPECT_TRUE(added.ok()) << "subscription " << i << ": "
                            << added.status().ToString();
    sub_index[*added] = i;
  }
  std::vector<uint64_t> event_ids;
  event_ids.reserve(workload.events.size());
  for (const Event& event : workload.events) {
    event_ids.push_back(engine.Publish(event));
  }
  engine.Flush();

  ReplayResult result;
  std::lock_guard<std::mutex> lock(mu);
  for (size_t k = 0; k < event_ids.size(); ++k) {
    auto it = by_event_id.find(event_ids[k]);
    if (it == by_event_id.end()) continue;
    std::vector<uint64_t> row = it->second;
    std::sort(row.begin(), row.end());
    result.total_matches += row.size();
    result.rows[k] = std::move(row);
  }
  return result;
}

EngineOptions ReplayOptions() {
  EngineOptions options;
  // Small batches + a sub-workload buffer so the replay spans multiple
  // processing rounds instead of one giant flush.
  options.batch_size = 32;
  options.buffer_capacity = 64;
  options.osr.window_size = 0;
  return options;
}

/// Golden-file shape: '#' comments plus key=value lines (subs, events,
/// matches, hash).
std::map<std::string, std::string> ParseGolden(const std::string& text) {
  std::map<std::string, std::string> kv;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return kv;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool UpdateGoldenRequested() {
  const char* env = std::getenv("APCM_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(WorkloadReplayTest, GoldenTraceMatchesCheckedInDigest) {
  if (UpdateGoldenRequested()) {
    const workload::Workload generated =
        workload::Generate(GoldenSpec()).value();
    ASSERT_TRUE(workload::SaveBinary(generated, DataPath(kTracePath)).ok());
    const ReplayResult result = Replay(generated, ReplayOptions());
    std::FILE* f = std::fopen(DataPath(kGoldenPath).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f,
                 "# Golden digest for tests/data/%s (workload_replay_test).\n"
                 "# Regenerate with APCM_UPDATE_GOLDEN=1 after an intended\n"
                 "# matching-semantics change; commit trace + digest together.\n"
                 "subs=%zu\nevents=%zu\nmatches=%llu\nhash=%s\n",
                 kTracePath, generated.subscriptions.size(),
                 generated.events.size(),
                 static_cast<unsigned long long>(result.total_matches),
                 HashHex(HashRows(result.rows)).c_str());
    std::fclose(f);
    GTEST_SKIP() << "golden files regenerated under " << APCM_TEST_DATA_DIR;
  }

  auto loaded = workload::LoadBinary(DataPath(kTracePath));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString()
                           << " — regenerate with APCM_UPDATE_GOLDEN=1";
  const std::map<std::string, std::string> golden =
      ParseGolden(ReadFileOrEmpty(DataPath(kGoldenPath)));
  ASSERT_TRUE(golden.count("hash"))
      << "missing/corrupt " << kGoldenPath
      << " — regenerate with APCM_UPDATE_GOLDEN=1";
  EXPECT_EQ(golden.at("subs"), std::to_string(loaded->subscriptions.size()));
  EXPECT_EQ(golden.at("events"), std::to_string(loaded->events.size()));

  const ReplayResult result = Replay(*loaded, ReplayOptions());
  EXPECT_EQ(std::to_string(result.total_matches), golden.at("matches"));
  EXPECT_EQ(HashHex(HashRows(result.rows)), golden.at("hash"))
      << "match-set digest drifted from " << kGoldenPath
      << "; if the matching-semantics change is intended, regenerate with "
         "APCM_UPDATE_GOLDEN=1 and commit both files";
}

TEST(WorkloadReplayTest, ThreadedAndScanBackendsAgreeWithGolden) {
  if (UpdateGoldenRequested()) GTEST_SKIP() << "regeneration run";
  auto loaded = workload::LoadBinary(DataPath(kTracePath));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::map<std::string, std::string> golden =
      ParseGolden(ReadFileOrEmpty(DataPath(kGoldenPath)));
  ASSERT_TRUE(golden.count("hash"));

  EngineOptions threaded = ReplayOptions();
  threaded.matcher.pcm.num_threads = 4;
  EXPECT_EQ(HashHex(HashRows(Replay(*loaded, threaded).rows)),
            golden.at("hash"))
      << "4-thread replay disagrees with the golden digest";

  EngineOptions scan = ReplayOptions();
  scan.kind = MatcherKind::kScan;
  EXPECT_EQ(HashHex(HashRows(Replay(*loaded, scan).rows)), golden.at("hash"))
      << "SCAN-oracle replay disagrees with the golden digest";
}

TEST(WorkloadReplayTest, GoldenDigestInvariantUnderEveryKernelLevel) {
  // The pinned digest must be a property of matching semantics alone, not of
  // the instruction set: replaying the golden trace with each supported
  // bitmap kernel level forced must reproduce the checked-in hash exactly.
  if (UpdateGoldenRequested()) GTEST_SKIP() << "regeneration run";
  auto loaded = workload::LoadBinary(DataPath(kTracePath));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::map<std::string, std::string> golden =
      ParseGolden(ReadFileOrEmpty(DataPath(kGoldenPath)));
  ASSERT_TRUE(golden.count("hash"));

  for (const bitmap::SimdLevel level : bitmap::SupportedSimdLevels()) {
    EngineOptions options = ReplayOptions();
    options.simd = bitmap::SimdLevelName(level);
    EXPECT_EQ(HashHex(HashRows(Replay(*loaded, options).rows)),
              golden.at("hash"))
        << "replay digest diverges under " << bitmap::SimdLevelName(level)
        << " kernels";
  }
  ASSERT_TRUE(
      bitmap::SetActiveSimdLevel(bitmap::BestSupportedSimdLevel()).ok());
}

TEST(WorkloadReplayTest, CheckedInTraceIsReproducibleFromItsSpec) {
  if (UpdateGoldenRequested()) GTEST_SKIP() << "regeneration run";
  auto loaded = workload::LoadBinary(DataPath(kTracePath));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The binary format stores the generator spec; regenerating from it must
  // reproduce the serialized workload exactly, so the checked-in bytes are
  // auditable (no hand-edited trace can drift from its claimed seed).
  auto regenerated = workload::Generate(loaded->spec);
  ASSERT_TRUE(regenerated.ok()) << regenerated.status().ToString();
  ASSERT_EQ(regenerated->subscriptions.size(), loaded->subscriptions.size());
  for (size_t i = 0; i < loaded->subscriptions.size(); ++i) {
    EXPECT_EQ(regenerated->subscriptions[i].ToString(),
              loaded->subscriptions[i].ToString())
        << "subscription " << i;
  }
  ASSERT_EQ(regenerated->events.size(), loaded->events.size());
  for (size_t i = 0; i < loaded->events.size(); ++i) {
    EXPECT_EQ(regenerated->events[i], loaded->events[i]) << "event " << i;
  }
}

}  // namespace
}  // namespace apcm
