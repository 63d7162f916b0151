#include "perfbench/replay.h"

#include <filesystem>
#include <memory>
#include <sstream>

#include "perfbench/loadgen.h"
#include "perfbench/server.h"
#include "perfbench/stats.h"
#include "src/be/catalog.h"
#include "src/be/parser.h"
#include "src/core/pcm.h"
#include "src/engine/engine.h"
#include "src/engine/matcher_factory.h"
#include "src/net/frame.h"
#include "src/store/durable_store.h"

namespace perfbench {
namespace {

using apcm::BooleanExpression;
using apcm::Event;

/// Events through Matcher::MatchBatch and the frame codec, events through
/// the direct engine, and DurableStore::Append calls.
constexpr uint64_t kMatchEvents = 16384;
constexpr uint64_t kEngineEvents = 16384;
constexpr uint64_t kStoreAppends = 1024;

const Event& StreamEvent(const ReplayInput& in, uint64_t i) {
  return (*in.pool)[(*in.order)[i % in.order->size()]];
}

/// be: Parser::ParseExpression over the book's text.
void ReplayParse(const ReplayInput& in, SpanRecorder* spans, int64_t root,
                 std::map<std::string, double>* m) {
  apcm::Catalog catalog;
  for (int a = 0; a < kNumAttributes; ++a) {
    catalog.GetOrAddAttribute("a" + std::to_string(a));
  }
  apcm::Parser parser(&catalog);
  int64_t total = 0;
  for (size_t i = 0; i < in.book_texts->size(); ++i) {
    const int64_t t0 = NowNs();
    auto parsed = parser.ParseExpression(i, (*in.book_texts)[i]);
    const int64_t t1 = NowNs();
    if (!parsed.ok()) std::abort();
    spans->Add("be.parse_expression", t0, t1, root, i);
    total += t1 - t0;
  }
  (*m)["be.parse_us_per_sub"] =
      Ratio(total * 1e-3, static_cast<double>(in.book_texts->size()));
}

/// core + bitmap: Matcher::Build and Matcher::MatchBatch with the engine's
/// default matcher and batch size.
std::unique_ptr<apcm::Matcher> ReplayCore(const ReplayInput& in,
                                          SpanRecorder* spans, int64_t root,
                                          std::map<std::string, double>* m) {
  const apcm::engine::EngineOptions defaults;
  std::unique_ptr<apcm::Matcher> matcher =
      apcm::engine::CreateMatcher(defaults.kind, defaults.matcher);
  int64_t t0 = NowNs();
  matcher->Build(*in.book);
  int64_t t1 = NowNs();
  spans->Add("core.build", t0, t1, root);
  (*m)["core.build_s"] = (t1 - t0) * 1e-9;
  (*m)["core.index_mb"] = static_cast<double>(matcher->MemoryBytes()) / 1e6;

  const apcm::MatcherStats before = matcher->stats();
  std::vector<Event> batch;
  std::vector<std::vector<apcm::SubscriptionId>> results;
  int64_t busy = 0;
  uint64_t events = 0;
  for (uint64_t i = 0; i < kMatchEvents; i += defaults.batch_size) {
    batch.clear();
    for (uint64_t j = i; j < i + defaults.batch_size && j < kMatchEvents;
         ++j) {
      batch.push_back(StreamEvent(in, j));
    }
    t0 = NowNs();
    matcher->MatchBatch(batch, &results);
    t1 = NowNs();
    spans->Add("core.match_batch", t0, t1, root, i);
    busy += t1 - t0;
    events += batch.size();
  }
  const apcm::MatcherStats& after = matcher->stats();
  const double n = static_cast<double>(events);
  const double evals =
      static_cast<double>(after.predicate_evals - before.predicate_evals);
  const double candidates = static_cast<double>(after.candidates_checked -
                                                before.candidates_checked);
  const double matches =
      static_cast<double>(after.matches_emitted - before.matches_emitted);
  const double words =
      static_cast<double>(after.bitmap_words - before.bitmap_words);
  (*m)["core.match_ns_per_event"] = Ratio(static_cast<double>(busy), n);
  (*m)["core.predicate_evals_per_event"] = Ratio(evals, n);
  (*m)["core.candidates_per_event"] = Ratio(candidates, n);
  (*m)["core.candidate_hit_ratio"] = Ratio(matches, candidates);
  (*m)["bitmap.words_per_event"] = Ratio(words, n);
  return matcher;
}

/// engine: TryPublish/Flush on a socket-free engine, then subscription
/// mutations on it.
void ReplayEngine(const ReplayInput& in, SpanRecorder* spans, int64_t root,
                  std::map<std::string, double>* m) {
  apcm::engine::EngineOptions options;
  options.backpressure = apcm::engine::BackpressurePolicy::kReject;
  uint64_t delivered = 0;
  apcm::engine::StreamEngine engine(
      options, [&](uint64_t, const std::vector<apcm::SubscriptionId>&) {
        ++delivered;
      });
  int64_t t0 = NowNs();
  for (const BooleanExpression& expr : *in.book) {
    if (!engine.AddSubscription(expr.predicates()).ok()) std::abort();
  }
  engine.Flush();  // first snapshot build
  int64_t t1 = NowNs();
  spans->Add("engine.load_book", t0, t1, root);

  const int64_t start = NowNs();
  for (uint64_t i = 0; i < kEngineEvents; i += 256) {
    t0 = NowNs();
    for (uint64_t j = i; j < i + 256 && j < kEngineEvents; ++j) {
      while (!engine.TryPublish(StreamEvent(in, j)).ok()) engine.Flush();
    }
    spans->Add("engine.try_publish", t0, NowNs(), root, i);
  }
  t0 = NowNs();
  engine.Flush();
  t1 = NowNs();
  spans->Add("engine.flush", t0, t1, root);
  if (delivered != kEngineEvents) std::abort();
  (*m)["engine.direct_eps"] =
      Ratio(static_cast<double>(kEngineEvents), (t1 - start) * 1e-9);

  std::vector<double> mutation_us;
  mutation_us.reserve(2 * in.churn_pool->size());
  for (const BooleanExpression& expr : *in.churn_pool) {
    t0 = NowNs();
    auto id = engine.AddSubscription(expr.predicates());
    t1 = NowNs();
    spans->Add("engine.add_subscription", t0, t1, root);
    mutation_us.push_back((t1 - t0) * 1e-3);
    if (!id.ok()) std::abort();
    t0 = NowNs();
    const bool removed = engine.RemoveSubscription(id.value()).ok();
    t1 = NowNs();
    spans->Add("engine.remove_subscription", t0, t1, root);
    mutation_us.push_back((t1 - t0) * 1e-3);
    if (!removed) std::abort();
  }
  (*m)["engine.sub_mutation_us_p50"] = Quantile(&mutation_us, 0.5);
}

/// store: DurableStore::Append at the server's default sync policy, then one
/// checkpoint of the book (with the core replay's index image).
void ReplayStore(const ReplayInput& in, const apcm::Matcher& matcher,
                 SpanRecorder* spans, int64_t root,
                 std::map<std::string, double>* m) {
  const std::string dir = in.tmp_dir + "/store-replay";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  apcm::store::StoreOptions options;
  options.dir = dir;
  options.sync_every = apcm::engine::EngineOptions().wal_sync_every;
  apcm::store::RecoveryInfo recovery;
  auto opened = apcm::store::DurableStore::Open(options, &recovery);
  if (!opened.ok()) std::abort();
  apcm::store::DurableStore& store = *opened.value();

  std::vector<double> append_us;
  append_us.reserve(kStoreAppends);
  for (uint64_t i = 0; i < kStoreAppends; ++i) {
    const BooleanExpression& expr = (*in.book)[i % in.book->size()];
    apcm::store::WalRecord record;
    record.kind = apcm::store::WalRecord::Kind::kAdd;
    record.id = expr.id();
    record.disjuncts.push_back(expr.predicates());
    const int64_t t0 = NowNs();
    const bool ok = store.Append(&record).ok();
    const int64_t t1 = NowNs();
    if (!ok) std::abort();
    spans->Add("store.append", t0, t1, root, i);
    append_us.push_back((t1 - t0) * 1e-3);
  }
  const apcm::store::StoreStats stats = store.stats();
  (*m)["store.append_us_p50"] = Quantile(&append_us, 0.5);
  (*m)["store.append_us_p99"] = Quantile(&append_us, 0.99);
  (*m)["store.fsyncs_per_op"] = Ratio(stats.fsyncs, stats.appends);
  (*m)["store.wal_bytes_per_op"] = Ratio(stats.bytes, stats.appends);

  apcm::store::CheckpointState state;
  const int64_t t0 = NowNs();
  auto seq = store.RotateWal();
  if (!seq.ok()) std::abort();
  state.wal_seq = seq.value();
  state.next_sub_id = in.book->size() + 1;
  for (const BooleanExpression& expr : *in.book) {
    state.subscriptions.push_back({expr.id(), expr.predicates()});
  }
  if (auto* pcm = dynamic_cast<const apcm::core::PcmMatcher*>(&matcher)) {
    std::ostringstream image;
    if (pcm->SaveIndex(image).ok()) {
      state.index_kind = pcm->Name();
      state.index_image = image.str();
    }
  }
  if (!store.WriteCheckpoint(state).ok()) std::abort();
  const int64_t t1 = NowNs();
  spans->Add("store.checkpoint", t0, t1, root);
  (*m)["store.checkpoint_s"] = (t1 - t0) * 1e-9;
  (*m)["store.checkpoint_mb"] =
      static_cast<double>(store.stats().checkpoint_bytes) / 1e6;
  opened.value().reset();
  std::filesystem::remove_all(dir);
}

/// net: EncodeFrame + FrameDecoder::Next for one PUBLISH and its MATCH.
void ReplayCodec(const ReplayInput& in, SpanRecorder* spans, int64_t root,
                 std::map<std::string, double>* m) {
  apcm::net::FrameDecoder decoder;
  const uint64_t events = kMatchEvents;
  const int64_t start = NowNs();
  for (uint64_t i = 0; i < events; ++i) {
    const int64_t t0 = NowNs();
    apcm::net::Frame publish;
    publish.type = apcm::net::FrameType::kPublish;
    publish.seq = i;
    publish.event = StreamEvent(in, i);
    const std::string wire = apcm::net::EncodeFrame(publish);
    decoder.Append(wire.data(), wire.size());
    auto got = decoder.Next();
    const std::vector<uint64_t>& ids =
        (*in.expected)[(*in.order)[i % in.order->size()]];
    if (!ids.empty()) {
      apcm::net::Frame match;
      match.type = apcm::net::FrameType::kMatch;
      match.event_id = i;
      match.matches = ids;
      const std::string out = apcm::net::EncodeFrame(match);
      decoder.Append(out.data(), out.size());
      got = decoder.Next();
    }
    if (!got.ok() || !got.value().has_value()) std::abort();
    spans->Add("net.codec", t0, NowNs(), root, i);
  }
  (*m)["net.codec_ns_per_event"] =
      Ratio(static_cast<double>(NowNs() - start), static_cast<double>(events));
}

}  // namespace

void ReplayLayers(const ReplayInput& input, SpanRecorder* spans,
                  std::map<std::string, double>* metrics) {
  const int64_t root = spans->Open("harness.replay", NowNs());
  ReplayParse(input, spans, root, metrics);
  std::unique_ptr<apcm::Matcher> matcher =
      ReplayCore(input, spans, root, metrics);
  ReplayEngine(input, spans, root, metrics);
  ReplayStore(input, *matcher, spans, root, metrics);
  ReplayCodec(input, spans, root, metrics);
  spans->Close(root, NowNs());
}

}  // namespace perfbench
