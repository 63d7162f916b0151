// perfbench: end-to-end PUBLISH -> MATCH benchmark of the apcm server over
// loopback, plus a traced per-layer replay. Normally run through run.py,
// which builds this binary and passes each workload's parameters:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --subs N --churn-pool N --rate EPS --churn-rate OPS
//             --churn-active N --cluster-pass 0|1 --setups N
//             --tmp DIR --spans FILE
//
// Every argument is required.
// The last line of standard output is "RESULT {json}" with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/cpu_sampler.h"
#include "perfbench/loadgen.h"
#include "perfbench/metrics_json.h"
#include "perfbench/oracle.h"
#include "perfbench/replay.h"
#include "perfbench/server.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "src/base/rng.h"
#include "src/net/frame.h"
#include "src/workload/generator.h"

namespace perfbench {
namespace {

using apcm::BooleanExpression;
using apcm::Event;

/// Distinct events per run; the stream cycles through them.
constexpr uint32_t kPoolEvents = 2048;
/// Length of the windows latency, capacity and server CPU are summarised
/// over, and how often steal and server CPU time are sampled for them.
constexpr double kWindowSeconds = 1;
constexpr int64_t kSampleNs = 100'000'000;
/// Tries at the open loop. Bursts of steal on a shared host can last
/// minutes, so a run may need several tries to find quiet windows; four
/// keep the longest run near 75 s.
constexpr int kOpenLoopTries = 4;
/// A window of the open loop in which the generator sent later than this at
/// p99 measured the host, not the server: it never counts, and a run without
/// enough windows on schedule is invalid.
constexpr double kGenLateLimitUs = 5000;
/// The open loop is also repeated while the windows that count saw more
/// steal than this, in percent of all CPU time; a quiet host shows 0-1%.
constexpr double kQuietStealPct = 2.0;
/// Untimed closed loop between set-up and the timed phases.
constexpr double kWarmupSeconds = 1;
/// Measured seconds of the traced run's pass through a cluster, and the
/// backends behind its router.
constexpr double kClusterPassSeconds = 3;
constexpr int kClusterBackends = 2;
/// Engine pipeline stages of apcm_stage_latency_ns, in event order. The
/// "read" stage is the trace's starting instant, so it is always empty.
constexpr const char* kStages[] = {"admit", "queue", "match", "deliver",
                                   "write"};
constexpr const char* kStagesAndTotal[] = {"admit",   "queue", "match",
                                           "deliver", "write", "total"};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  uint32_t subs = 0;
  uint32_t churn_pool = 0;
  uint64_t rate = 0;
  uint64_t churn_rate = 0;
  uint32_t churn_active = 0;
  int setups = 0;
  int cluster_pass = 0;  ///< traced run: 1 = pass through a cluster
  std::string spans;     ///< traced run: span dump path
  std::string tmp;
};

[[noreturn]] void Die(const std::string& message, int code = 3) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(code);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Die("bad argument " + key, 2);
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) Die("arguments come in --key value pairs", 2);
  auto text = [&](const char* key, std::string* out) {
    auto it = kv.find(key);
    if (it == kv.end()) Die(std::string("missing --") + key, 2);
    *out = it->second;
    kv.erase(it);
  };
  auto num = [&](const char* key, auto* out) {
    std::string value;
    text(key, &value);
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      Die(std::string("bad value for --") + key, 2);
    }
    *out = static_cast<std::remove_reference_t<decltype(*out)>>(v);
  };
  text("workload", &a.workload);
  text("tmp", &a.tmp);
  text("spans", &a.spans);
  num("seed", &a.seed);
  num("seconds", &a.seconds);
  num("trace", &a.trace);
  num("subs", &a.subs);
  num("churn-pool", &a.churn_pool);
  num("rate", &a.rate);
  num("churn-rate", &a.churn_rate);
  num("churn-active", &a.churn_active);
  num("setups", &a.setups);
  num("cluster-pass", &a.cluster_pass);
  if (!kv.empty()) Die("unknown argument --" + kv.begin()->first, 2);
  if (a.workload.empty() || a.seconds <= 0 || a.rate == 0 || a.setups < 1 ||
      a.subs == 0 || a.churn_pool <= a.churn_active) {
    Die("missing or inconsistent arguments", 2);
  }
  return a;
}

/// The DefaultSpec book of the repository's benchmarks (400 attributes,
/// 5-15 predicates, Zipf attributes and values, 50% seeded events).
apcm::workload::WorkloadSpec BookSpec(const Args& a) {
  apcm::workload::WorkloadSpec spec;
  spec.seed = a.seed;
  spec.num_subscriptions = a.subs + a.churn_pool;
  spec.num_events = kPoolEvents;
  spec.num_attributes = kNumAttributes;
  spec.domain_min = 0;
  spec.domain_max = 10'000;
  spec.min_predicates = 5;
  spec.max_predicates = 15;
  spec.min_event_attrs = 15;
  spec.max_event_attrs = 35;
  spec.attribute_zipf = 1.0;
  spec.value_zipf = 1.0;
  spec.operand_grid = 0.02;
  spec.equality_fraction = 0.25;
  spec.in_fraction = 0.05;
  spec.ne_fraction = 0.02;
  spec.inequality_fraction = 0.18;
  spec.predicate_width = 0.10;
  spec.seeded_event_fraction = 0.5;
  return spec;
}

std::string ExpressionText(const BooleanExpression& expr,
                           const apcm::Catalog& catalog) {
  std::string text;
  for (const apcm::Predicate& p : expr.predicates()) {
    if (!text.empty()) text += " and ";
    text += p.ToString(&catalog);
  }
  return text;
}

/// Collects named figures for the report and the RESULT line.
class Figures {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }
  const std::map<std::string, double>& all() const { return values_; }
  void Merge(const std::map<std::string, double>& other) {
    for (const auto& [k, v] : other) values_[k] = v;
  }

 private:
  std::map<std::string, double> values_;
};

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    if (out.size() > 1) out += ",";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    out += "\"" + k + "\":" + buf;
  }
  return out + "}";
}

/// A field of a series the server must export. A missing one (say, after a
/// rename) would read as 0 and look like a gain, so the run stops instead.
double Need(const ServerMetrics& m, const std::string& key,
            const std::string& field = "value") {
  if (!m.Has(key, field)) {
    Die("/metrics.json has no field \"" + field + "\" of " + key);
  }
  return m.Get(key, field);
}

/// Per-layer figures read from the server's own /metrics.json.
void ServerLayerMetrics(const ServerMetrics& m, double events, Figures* f) {
  const double processed = Need(m, "apcm_events_processed_total");
  f->Set("engine.events_per_round",
         Ratio(processed, Need(m, "apcm_round_queue_depth", "count")));
  f->Set("engine.round_us_p50",
         Need(m, "apcm_batch_latency_ns", "p50") / 1e3);
  f->Set("engine.round_us_p99",
         Need(m, "apcm_batch_latency_ns", "p99") / 1e3);
  f->Set("engine.queue_depth_p50", Need(m, "apcm_round_queue_depth", "p50"));
  f->Set("engine.queue_depth_p99", Need(m, "apcm_round_queue_depth", "p99"));
  f->Set("engine.rejected_per_kevent",
         PerThousand(Need(m, "apcm_publishes_rejected_total"), processed));
  for (const char* stage : kStagesAndTotal) {
    const std::string key =
        std::string("apcm_stage_latency_ns{stage=\"") + stage + "\"}";
    f->Set(std::string("engine.stage.") + stage + "_mean_us",
           Ratio(Need(m, key, "sum"), Need(m, key, "count")) / 1e3);
  }
  f->Set("engine.incremental_updates",
         Need(m, "apcm_incremental_updates_total"));
  f->Set("engine.compactions", Need(m, "apcm_compactions_total"));
  f->Set("engine.rebuild_ms_p50",
         Need(m, "apcm_rebuild_latency_ns", "p50") / 1e6);
  f->Set("engine.rebuild_ms_max",
         Need(m, "apcm_rebuild_latency_ns", "max") / 1e6);
  f->Set("net.frames_per_wakeup",
         Ratio(Need(m, "apcm_net_frames_per_wakeup", "sum"),
               Need(m, "apcm_net_frames_per_wakeup", "count")));
  f->Set("net.wakeups_per_event",
         Ratio(Need(m, "apcm_net_wakeups_total"), events));
  f->Set("net.bytes_out_per_event",
         Ratio(Need(m, "apcm_net_bytes_out_total"), events));
  f->Set("net.backpressure_events",
         Need(m, "apcm_net_backpressure_events_total"));
}

/// Everything a run derives from its seed, built before any timing.
struct Inputs {
  apcm::workload::Workload wl;
  std::vector<BooleanExpression> book;
  std::vector<BooleanExpression> churn;
  std::vector<std::string> book_texts;
  LoadPlan plan;
  /// Oracle: stable ids per pool event, their digests, and the churn-pool
  /// indices matching each pool event.
  std::vector<std::vector<uint64_t>> expected;
  std::vector<SetDigest> expected_digest;
  std::vector<std::vector<uint32_t>> churn_expected;
  double gen_s = 0;
  double oracle_s = 0;
};

std::unique_ptr<Inputs> MakeInputs(const Args& a) {
  auto in = std::make_unique<Inputs>();
  const int64_t gen_start = NowNs();
  auto generated = apcm::workload::Generate(BookSpec(a));
  if (!generated.ok()) Die("workload generation failed");
  in->wl = std::move(generated.value());
  const auto& subs = in->wl.subscriptions;
  in->book.assign(subs.begin(), subs.begin() + a.subs);
  in->churn.assign(subs.begin() + a.subs, subs.end());
  const std::vector<Event>& pool = in->wl.events;
  LoadPlan& plan = in->plan;
  plan.rate = a.rate;
  plan.churn_rate = a.churn_rate;
  plan.churn_active = a.churn_active;
  // The closed loop (capacity) takes 40% of the measured time, the open
  // loop (latency at the fixed rate, beside the churn stream) the rest.
  plan.closed_seconds = a.seconds * 0.4;
  plan.open_seconds = a.seconds * 0.6;
  plan.open_phases = kOpenLoopTries;
  plan.closed_phases = a.trace ? 3 : 1;
  plan.warmup_seconds = kWarmupSeconds;
  in->book_texts.reserve(in->book.size());
  for (size_t i = 0; i < in->book.size(); ++i) {
    in->book_texts.push_back(ExpressionText(in->book[i], in->wl.catalog));
    apcm::net::Frame frame;
    frame.type = apcm::net::FrameType::kSubscribe;
    frame.seq = i;
    frame.sub_id = i;
    frame.expression = in->book_texts.back();
    plan.book_frames.push_back(apcm::net::EncodeFrame(frame));
  }
  for (const BooleanExpression& expr : in->churn) {
    plan.churn_texts.push_back(ExpressionText(expr, in->wl.catalog));
  }
  for (const Event& event : pool) {
    apcm::net::Frame frame;
    frame.type = apcm::net::FrameType::kPublish;
    frame.event = event;
    plan.publish_frames.push_back(apcm::net::EncodeFrame(frame));
  }
  apcm::Rng rng(a.seed ^ 0x5EEDF00DULL);
  plan.order.resize(4 * pool.size());
  for (uint32_t& p : plan.order) {
    p = static_cast<uint32_t>(rng.UniformInt(0, pool.size() - 1));
  }
  in->gen_s = (NowNs() - gen_start) * 1e-9;

  const int64_t oracle_start = NowNs();
  in->expected = ExpectedMatches(in->book, pool);
  in->expected_digest.resize(pool.size());
  for (size_t p = 0; p < pool.size(); ++p) {
    for (uint64_t id : in->expected[p]) in->expected_digest[p].Add(id);
  }
  in->churn_expected.resize(pool.size());
  const auto churn_ids = ExpectedMatches(in->churn, pool);
  for (size_t p = 0; p < pool.size(); ++p) {
    for (uint64_t id : churn_ids[p]) {
      in->churn_expected[p].push_back(static_cast<uint32_t>(id - a.subs));
    }
  }
  in->oracle_s = (NowNs() - oracle_start) * 1e-9;
  return in;
}

/// A server process under load from one generator.
struct LoadedServer {
  std::unique_ptr<LoadGenerator> gen;
  std::unique_ptr<ServerProcess> server;
  std::vector<double> setup_s;  ///< every set-up made; the last stays up
};

/// Sets up `setup_runs` servers from scratch, keeping the last one.
LoadedServer StartServer(const LoadPlan& plan, int backends, int setup_runs,
                         const std::string& self_exe) {
  LoadedServer s;
  for (int r = 0; r < setup_runs; ++r) {
    if (s.server != nullptr) s.server->Stop();
    s.gen.reset();
    s.gen = std::make_unique<LoadGenerator>(plan);
    const int64_t t0 = NowNs();
    s.server = std::make_unique<ServerProcess>(
        ServerProcess::Spawn(self_exe, backends));
    if (!s.gen->Setup(s.server->port())) Die("set-up failed");
    s.setup_s.push_back((NowNs() - t0) * 1e-9);
  }
  return s;
}

/// Window of a phase that started at `start_ns` holding instant `ns`.
size_t WindowOf(int64_t ns, int64_t start_ns) {
  return static_cast<size_t>((ns - start_ns) * 1e-9 / kWindowSeconds);
}

/// Start of window w of a phase that started at `start_ns`.
int64_t WindowStartNs(int64_t start_ns, size_t w) {
  return start_ns + static_cast<int64_t>(w * kWindowSeconds * 1e9);
}

/// The host's steal share, in percent, in each window of a phase.
std::vector<double> WindowSteal(const CpuSampler& sampler, int64_t start_ns,
                                size_t windows) {
  std::vector<double> pct;
  for (size_t w = 0; w < windows; ++w) {
    pct.push_back(sampler.StealPercentBetween(
        WindowStartNs(start_ns, w), WindowStartNs(start_ns, w + 1)));
  }
  return pct;
}

/// The tries at the open loop, pooled as windows: window w of try t is
/// window t * per_try + w. The figures count only windows in which the
/// generator kept its schedule, and of those the least stolen, as many as
/// half of one try has, whichever tries they come from.
struct OpenLoopRun {
  struct Try {
    uint64_t begin = 0, end = 0;  ///< event indices
    int64_t start_ns = 0;
  };
  size_t per_try = 0;
  std::vector<Try> tries;
  std::vector<double> steal;     ///< each window's steal share, percent
  std::vector<double> late_p99;  ///< each window's generator lateness, us
  std::vector<bool> kept;

  /// Calls f(window, record) for every event of every try.
  template <typename F>
  void ForEachEvent(const LoadGenerator& gen, F f) const {
    for (size_t t = 0; t < tries.size(); ++t) {
      for (uint64_t i = tries[t].begin; i < tries[t].end; ++i) {
        const EventRecord& e = gen.events()[i];
        const size_t w = WindowOf(e.due_ns, tries[t].start_ns);
        if (w < per_try) f(t * per_try + w, e);
      }
    }
  }
  /// Adds the generator's last open loop as a try and chooses the windows
  /// that count again.
  void AddTry(const LoadGenerator& gen, const CpuSampler& sampler) {
    tries.push_back({gen.open_begin(), gen.open_end(), gen.open_start_ns()});
    for (double pct : WindowSteal(sampler, gen.open_start_ns(), per_try)) {
      steal.push_back(pct);
    }
    std::vector<std::vector<double>> late(steal.size());
    ForEachEvent(gen, [&](size_t w, const EventRecord& e) {
      late[w].push_back((e.sent_ns - e.due_ns) * 1e-3);
    });
    late_p99.clear();
    for (std::vector<double>& l : late) late_p99.push_back(Quantile(&l, 0.99));
    std::vector<double> rank = steal;
    for (size_t w = 0; w < rank.size(); ++w) {
      if (late_p99[w] > kGenLateLimitUs) rank[w] = HUGE_VAL;
    }
    kept = LeastDisturbed(rank, (per_try + 1) / 2);
  }
  /// Whether every kept window had the generator on schedule.
  bool OnSchedule() const {
    for (size_t w = 0; w < kept.size(); ++w) {
      if (kept[w] && late_p99[w] > kGenLateLimitUs) return false;
    }
    return true;
  }
  /// The generator's lateness, us, for every event in a kept window.
  std::vector<double> KeptLateness(const LoadGenerator& gen) const {
    std::vector<double> late_us;
    ForEachEvent(gen, [&](size_t w, const EventRecord& e) {
      if (kept[w]) late_us.push_back((e.sent_ns - e.due_ns) * 1e-3);
    });
    return late_us;
  }
  /// Server CPU time per 1000 events, ms, over the kept windows.
  double KeptServerCpuMsPerKevent(const LoadGenerator& gen,
                                  const CpuSampler& sampler) const {
    int64_t cpu_ns = 0;
    for (size_t w = 0; w < kept.size(); ++w) {
      if (!kept[w]) continue;
      const int64_t start = tries[w / per_try].start_ns;
      cpu_ns += sampler.ServerCpuNsBetween(
          WindowStartNs(start, w % per_try),
          WindowStartNs(start, w % per_try + 1));
    }
    uint64_t events = 0;
    ForEachEvent(gen, [&](size_t w, const EventRecord&) { events += kept[w]; });
    return PerThousand(cpu_ns * 1e-6, static_cast<double>(events));
  }
  double MaxKeptSteal() const {
    double max = 0;
    for (size_t w = 0; w < steal.size(); ++w) {
      if (kept[w]) max = std::max(max, steal[w]);
    }
    return max;
  }
};

/// Open loop, repeated while the windows that count include one in which
/// the host stole CPU time or the generator fell behind: such a window
/// measures the host, not the server.
OpenLoopRun OpenLoopOnSchedule(LoadGenerator* gen, const CpuSampler& sampler,
                               size_t per_try, bool* ok) {
  OpenLoopRun run;
  run.per_try = per_try;
  for (int attempt = 0; attempt < kOpenLoopTries && *ok; ++attempt) {
    *ok = gen->OpenLoop();
    run.AddTry(*gen, sampler);
    const double kept_steal = run.MaxKeptSteal();
    if (run.OnSchedule() && kept_steal <= kQuietStealPct) break;
    std::printf("open loop try %d: the windows that count so far reach "
                "%.1f%% steal (quiet: %.1f%%)%s\n",
                attempt + 1, kept_steal, kQuietStealPct,
                run.OnSchedule() ? ""
                                 : " and include one where the generator "
                                   "fell behind");
  }
  return run;
}

OracleReport CheckRun(const Inputs& in, const LoadGenerator& gen) {
  const std::vector<EventRecord> records(gen.events().begin(),
                                         gen.events().begin() + gen.sent());
  const std::vector<ChurnLife> lives(
      gen.lives().begin(), gen.lives().begin() + gen.lives_started());
  return JoinOracle(records, in.expected_digest, in.churn_expected, lives,
                    gen.churn_matches());
}

void PrintOracle(const char* what, const OracleReport& r, uint64_t failures) {
  std::printf("oracle (%s): %llu events checked, %llu stable mismatches, "
              "%llu without PROGRESS, %llu bad ACKs, %llu wrong churned "
              "matches; %llu protocol failures\n",
              what, static_cast<unsigned long long>(r.events_checked),
              static_cast<unsigned long long>(r.stable_mismatches),
              static_cast<unsigned long long>(r.missing_progress),
              static_cast<unsigned long long>(r.bad_acks),
              static_cast<unsigned long long>(r.churn_wrong),
              static_cast<unsigned long long>(failures));
}

/// The cluster layer: the same book and stream, briefly, through a
/// ClusterRouter over kClusterBackends backends. Adds the cluster.* figures
/// and returns the pass's failed operations.
uint64_t ClusterPass(const Args& a, const Inputs& in,
                     const std::string& self_exe, Figures* f,
                     uint64_t* attempted) {
  LoadPlan plan = in.plan;
  plan.open_seconds = kClusterPassSeconds * 0.6;
  plan.closed_seconds = kClusterPassSeconds * 0.4;
  plan.open_phases = 1;
  plan.closed_phases = 1;
  LoadedServer s = StartServer(plan, kClusterBackends, 1, self_exe);
  s.server->StartSampling();
  bool ok = s.gen->ClosedLoop(plan.warmup_seconds) && s.gen->ClosedLoop() &&
            s.gen->OpenLoop();
  const ServerMetrics router =
      ServerMetrics::Parse(HttpGet(s.server->admin_port(), "/metrics.json"));
  const ServerSamples samples = s.server->Stop();
  if (!ok || router.empty()) Die("cluster pass failed");
  const OracleReport oracle = CheckRun(in, *s.gen);
  PrintOracle("cluster pass", oracle, s.gen->failures());
  const double events = static_cast<double>(s.gen->sent());
  f->Set("cluster.fanout_frames_per_event",
         Ratio(Need(router, "apcm_cluster_fanout_frames_total"), events));
  f->Set("cluster.progress_frames_per_event",
         Ratio(Need(router, "apcm_cluster_progress_frames_total"), events));
  f->Set("cluster.merge_buffer_events_p99", samples.merge_buffer_p99);
  f->Set("cluster.unacked_publishes_p99", samples.unacked_publishes_p99);
  *attempted += s.gen->sent() + a.subs + 2 * s.gen->lives_started();
  return oracle.Mismatches() + s.gen->failures();
}

int Run(const Args& a, const std::string& self_exe) {
  const std::unique_ptr<Inputs> inputs = MakeInputs(a);
  const Inputs& in = *inputs;
  const LoadPlan& plan = in.plan;
  LoadedServer s = StartServer(plan, 0, a.trace ? 1 : a.setups, self_exe);
  LoadGenerator& gen = *s.gen;
  CpuSampler sampler(kSampleNs, s.server->pid());

  // --- Capacity: closed loop on the freshly built index, after an untimed
  // warm-up that lets the server's buffers and caches reach steady state ---
  bool ok = gen.ClosedLoop(plan.warmup_seconds) && gen.ClosedLoop();
  const uint64_t closed_begin = gen.closed_begin();
  const uint64_t closed_end = gen.sent();
  const int64_t closed_start = gen.closed_start_ns();
  const uint64_t closed_done = gen.closed_completed();
  const double closed_s = gen.closed_elapsed_s();
  // The traced closed loop differs only in the client-side spans it
  // records. It is bracketed by the untraced loop before it and one more
  // after it, so a drift in the host's speed does not read as overhead.
  SpanRecorder spans(
      a.trace ? 4 * plan.closed_seconds * kClosedMaxRate + 1'000'000 : 0);
  double traced_eps = 0, untraced_after_eps = 0;
  if (a.trace) {
    const int64_t root = spans.Open("harness.closed_loop", NowNs());
    ok = ok && gen.ClosedLoop(plan.closed_seconds, &spans, root);
    spans.Close(root, NowNs());
    traced_eps = Ratio(gen.closed_completed(), gen.closed_elapsed_s());
    ok = ok && gen.ClosedLoop();
    untraced_after_eps = Ratio(gen.closed_completed(), gen.closed_elapsed_s());
  }

  // --- Latency: open loop at the fixed rate, churn beside it ---
  const size_t open_windows = std::max<size_t>(
      1, static_cast<size_t>(plan.open_seconds / kWindowSeconds));
  const OpenLoopRun open =
      OpenLoopOnSchedule(&gen, sampler, open_windows, &ok);
  const double rss_mb = static_cast<double>(s.server->PeakRssBytes()) / 1e6;
  ServerMetrics server_metrics;
  if (a.trace) {
    const std::string body = HttpGet(s.server->admin_port(), "/metrics.json");
    if (body.empty()) Die("admin /metrics.json unreachable");
    server_metrics = ServerMetrics::Parse(body);
  }
  s.server->Stop();
  if (!ok) Die("the server stopped answering during the measurement");

  // --- Correctness ---
  const OracleReport oracle = CheckRun(in, gen);
  uint64_t attempted = gen.sent() + a.subs + 2 * gen.lives_started();
  uint64_t failed = oracle.Mismatches() + gen.failures();

  // --- End-to-end figures ---
  // Latency and capacity count only the least stolen windows.
  const std::vector<EventRecord>& records = gen.events();
  Windowed match_w(open.steal.size()), ack_w(open.steal.size());
  match_w.Keep(open.kept);
  ack_w.Keep(open.kept);
  std::vector<double> match_us, ack_us, sub_ack_us;
  open.ForEachEvent(gen, [&](size_t w, const EventRecord& e) {
    if (e.ack_ns) {
      ack_us.push_back((e.ack_ns - e.due_ns) * 1e-3);
      ack_w.Add(w, ack_us.back());
    }
    if (e.match_ns) {
      match_us.push_back((e.match_ns - e.due_ns) * 1e-3);
      match_w.Add(w, match_us.back());
    }
  });
  Windowed done_w(static_cast<size_t>(closed_s / kWindowSeconds));
  const std::vector<double> closed_steal =
      WindowSteal(sampler, closed_start, done_w.windows());
  done_w.Keep(LeastDisturbed(closed_steal, (done_w.windows() + 1) / 2));
  for (uint64_t i = closed_begin; i < closed_end; ++i) {
    done_w.Add(WindowOf(records[i].progress_ns, closed_start), 1);
  }
  for (uint64_t l = 0; l < gen.lives_started(); ++l) {
    const ChurnLife& life = gen.lives()[l];
    if (life.sub_ack_ns) {
      sub_ack_us.push_back((life.sub_ack_ns - life.sub_sent_ns) * 1e-3);
    }
    if (life.unsub_ack_ns) {
      sub_ack_us.push_back((life.unsub_ack_ns - life.unsub_sent_ns) * 1e-3);
    }
  }
  Figures f;
  f.Set("setup_s", Median(s.setup_s));
  // The pooled figures over each whole phase are reported beside the
  // windowed ones.
  f.Set("capacity_eps", done_w.MedianRate(kWindowSeconds));
  f.Set("pooled.capacity_eps", Ratio(closed_done, closed_s));
  f.Set("match_samples", match_us.size());
  f.Set("match_p50_us", match_w.MedianOfQuantile(0.5));
  f.Set("match_p99_us", match_w.MedianOfQuantile(0.99));
  f.Set("pooled.match_p50_us", Quantile(&match_us, 0.5));
  f.Set("pooled.match_p99_us", Quantile(&match_us, 0.99));
  f.Set("ack_samples", ack_us.size());
  f.Set("ack_p50_us", ack_w.MedianOfQuantile(0.5));
  f.Set("ack_p99_us", ack_w.MedianOfQuantile(0.99));
  f.Set("pooled.ack_p50_us", Quantile(&ack_us, 0.5));
  f.Set("pooled.ack_p99_us", Quantile(&ack_us, 0.99));
  f.Set("sub_ack_samples", sub_ack_us.size());
  f.Set("sub_ack_p50_us", Quantile(&sub_ack_us, 0.5));
  f.Set("sub_ack_p99_us", Quantile(&sub_ack_us, 0.99));
  f.Set("server_cpu_ms_per_kevent",
        open.KeptServerCpuMsPerKevent(gen, sampler));
  f.Set("rss_mb", rss_mb);
  std::vector<double> late_us = open.KeptLateness(gen);
  f.Set("harness.gen_late_us_p99", Quantile(&late_us, 0.99));
  f.Set("harness.gen_late_us_max", Quantile(&late_us, 1.0));
  f.Set("harness.steal_pct", open.MaxKeptSteal());
  f.Set("harness.open_loop_tries", open.tries.size());

  std::printf("perfbench %s seed=%llu subs=%u pool=%u rate=%llu/s "
              "churn=%llu/s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.subs, kPoolEvents, static_cast<unsigned long long>(a.rate),
              static_cast<unsigned long long>(a.churn_rate));
  std::printf("inputs %.2fs, oracle %.2fs; set-ups:", in.gen_s, in.oracle_s);
  for (double t : s.setup_s) std::printf(" %.3fs", t);
  std::printf("\n");
  auto print_windows = [](const char* what, const std::vector<double>& v,
                          const char* format = " %.0f") {
    std::printf("windows %s:", what);
    for (double x : v) std::printf(format, x);
    std::printf("\n");
  };
  print_windows("closed-loop steal_pct", closed_steal, " %.1f");
  print_windows("capacity_eps (kept)", done_w.Rates(kWindowSeconds));
  print_windows("open-loop steal_pct", open.steal, " %.1f");
  print_windows("match_p50_us (kept)", match_w.PerWindow(0.5));
  print_windows("match_p99_us (kept)", match_w.PerWindow(0.99));
  print_windows("ack_p50_us (kept)", ack_w.PerWindow(0.5));
  PrintOracle("run", oracle, gen.failures());

  // --- Traced run: per-layer figures ---
  if (a.trace) {
    ServerLayerMetrics(server_metrics, gen.sent(), &f);
    // The engine's stage means should add up to the client's mean
    // send-to-MATCH latency over the same run; the gap is time no stage
    // measures.
    double client_sum = 0, client_n = 0;
    for (uint64_t i = 0; i < gen.sent(); ++i) {
      if (records[i].match_ns == 0) continue;
      client_sum += (records[i].match_ns - records[i].sent_ns) * 1e-3;
      ++client_n;
    }
    double stage_sum = 0;
    for (const char* stage : kStages) {
      stage_sum += f.Get(std::string("engine.stage.") + stage + "_mean_us");
    }
    const double client_mean = Ratio(client_sum, client_n);
    f.Set("harness.client_match_mean_us", client_mean);
    f.Set("harness.stage_gap_pct", -PercentChange(stage_sum, client_mean));
    f.Set("harness.trace_overhead_pct",
          -PercentChange(traced_eps, (Ratio(closed_done, closed_s) +
                                      untraced_after_eps) / 2));
    for (const char* name : {"cluster.fanout_frames_per_event",
                             "cluster.progress_frames_per_event",
                             "cluster.merge_buffer_events_p99",
                             "cluster.unacked_publishes_p99"}) {
      f.Set(name, 0);
    }
    if (a.cluster_pass) failed += ClusterPass(a, in, self_exe, &f, &attempted);
    ReplayInput replay_in;
    replay_in.book = &in.book;
    replay_in.book_texts = &in.book_texts;
    replay_in.churn_pool = &in.churn;
    replay_in.pool = &in.wl.events;
    replay_in.order = &plan.order;
    replay_in.expected = &in.expected;
    replay_in.tmp_dir = a.tmp;
    std::map<std::string, double> replay;
    ReplayLayers(replay_in, &spans, &replay);
    f.Merge(replay);
    if (!a.spans.empty() && !spans.Dump(a.spans)) Die("cannot write spans");
    std::printf("spans: %zu recorded; self time by layer (wire spans are "
                "concurrent requests, so theirs is summed request time):",
                spans.spans().size());
    for (const auto& [layer, ns] : spans.SelfTimeByLayer()) {
      std::printf(" %s=%.1fms", layer.c_str(), ns * 1e-6);
    }
    std::printf("\n");
    std::filesystem::remove_all(a.tmp);
  }
  f.Set("failed_share", Ratio(failed, attempted));

  const bool valid = open.OnSchedule();
  if (!valid) {
    std::printf("invalid run: too few open-loop windows in which the "
                "generator kept within %.0f us of its schedule at p99\n",
                kGenLateLimitUs);
  }
  std::printf("RESULT {\"correct\":%s,\"valid\":%s,\"attempted\":%llu,"
              "\"failed\":%llu,\"figures\":%s}\n",
              failed == 0 ? "true" : "false", valid ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              JsonObject(f.all()).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--serve") {
    return perfbench::ServeMain(std::atoi(argv[2]), std::atoi(argv[3]));
  }
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  perfbench::PinGeneratorCpu();
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) perfbench::Die("cannot resolve /proc/self/exe");
  exe[n] = '\0';
  return perfbench::Run(args, exe);
}
