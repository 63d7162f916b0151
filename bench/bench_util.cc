#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/base/string_util.h"
#include "src/base/timer.h"
#include "src/engine/exposition.h"

namespace apcm::bench {

bool FullScale() {
  const char* env = std::getenv("APCM_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

double TimeBudgetSeconds() {
  if (const char* env = std::getenv("APCM_BENCH_SECONDS")) {
    const double value = std::atof(env);
    if (value > 0) return value;
  }
  return FullScale() ? 10.0 : 2.0;
}

workload::WorkloadSpec DefaultSpec() {
  workload::WorkloadSpec spec;
  spec.seed = 2014;
  spec.num_subscriptions = FullScale() ? 1'000'000 : 100'000;
  spec.num_events = FullScale() ? 10'000 : 2'000;
  spec.num_attributes = 400;
  spec.domain_min = 0;
  spec.domain_max = 10'000;
  spec.min_predicates = 5;
  spec.max_predicates = 15;
  spec.min_event_attrs = 15;
  spec.max_event_attrs = 35;
  spec.attribute_zipf = 1.0;
  // Real subscription books share canonical operand values (bid floors,
  // thresholds, category ids); value skew plus a 2% operand grid models
  // that, giving the predicate dictionary real duplication to compress.
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

namespace {

ThroughputResult Measure(Matcher& matcher, const workload::Workload& workload,
                         uint32_t batch_size, double build_seconds) {
  ThroughputResult result;
  result.build_seconds = build_seconds;
  result.memory_bytes = matcher.MemoryBytes();
  const MatcherStats before = matcher.stats();
  const double budget = TimeBudgetSeconds();
  const auto& events = workload.events;
  std::vector<Event> batch;
  std::vector<std::vector<SubscriptionId>> batch_results;
  uint64_t matches = 0;
  size_t cursor = 0;
  WallTimer timer;
  WallTimer batch_timer;
  do {
    batch.clear();
    for (uint32_t i = 0; i < batch_size; ++i) {
      batch.push_back(events[cursor]);
      cursor = (cursor + 1) % events.size();
    }
    batch_timer.Reset();
    matcher.MatchBatch(batch, &batch_results);
    result.batch_latency_ns.Record(batch_timer.ElapsedNanos());
    for (const auto& r : batch_results) matches += r.size();
    result.events_processed += batch.size();
  } while (timer.ElapsedSeconds() < budget);
  result.seconds = timer.ElapsedSeconds();
  result.events_per_second =
      static_cast<double>(result.events_processed) / result.seconds;
  result.matches_per_event = static_cast<double>(matches) /
                             static_cast<double>(result.events_processed);
  const MatcherStats after = matcher.stats();
  result.stats.events_matched = after.events_matched - before.events_matched;
  result.stats.predicate_evals =
      after.predicate_evals - before.predicate_evals;
  result.stats.bitmap_words = after.bitmap_words - before.bitmap_words;
  result.stats.candidates_checked =
      after.candidates_checked - before.candidates_checked;
  result.stats.matches_emitted = after.matches_emitted - before.matches_emitted;
  result.stats.clusters_visited =
      after.clusters_visited - before.clusters_visited;
  return result;
}

}  // namespace

ThroughputResult MeasureThroughput(Matcher& matcher,
                                   const workload::Workload& workload,
                                   uint32_t batch_size) {
  WallTimer build_timer;
  matcher.Build(workload.subscriptions);
  return Measure(matcher, workload, batch_size,
                 build_timer.ElapsedSeconds());
}

ThroughputResult MeasureThroughputPrebuilt(Matcher& matcher,
                                           const workload::Workload& workload,
                                           uint32_t batch_size) {
  return Measure(matcher, workload, batch_size, 0);
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      line += "| ";
      line += cell;
      line.append(widths[c] - cell.size() + 1, ' ');
    }
    line += "|";
    std::puts(line.c_str());
  };
  print_row(headers_);
  std::string sep;
  for (size_t c = 0; c < widths.size(); ++c) {
    sep += "|";
    sep.append(widths[c] + 2, '-');
  }
  sep += "|";
  std::puts(sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string Rate(double events_per_second) {
  if (events_per_second >= 1e6) {
    return StringPrintf("%.2fM", events_per_second / 1e6);
  }
  if (events_per_second >= 1e3) {
    return StringPrintf("%.1fk", events_per_second / 1e3);
  }
  return StringPrintf("%.2f", events_per_second);
}

std::string Fixed(double value, int decimals) {
  return StringPrintf("%.*f", decimals, value);
}

void PrintBanner(const std::string& experiment_id, const std::string& title,
                 const workload::WorkloadSpec& spec) {
  std::printf("==================================================\n");
  std::printf("%s: %s\n", experiment_id.c_str(), title.c_str());
  std::printf("workload: %s\n", spec.ToString().c_str());
  std::printf("scale: %s (APCM_BENCH_FULL=%d), budget %.1fs/config\n",
              FullScale() ? "FULL (paper-scale)" : "default (scaled-down)",
              FullScale() ? 1 : 0, TimeBudgetSeconds());
  std::printf("==================================================\n");
}

std::vector<Contender> DefaultContenders() {
  using engine::MatcherKind;
  return {
      {MatcherKind::kScan, "scan"},
      {MatcherKind::kCounting, "counting"},
      {MatcherKind::kKIndex, "k-index"},
      {MatcherKind::kBETree, "be-tree"},
      {MatcherKind::kPcmLazy, "pcm-lazy"},
      {MatcherKind::kPcm, "pcm"},
      {MatcherKind::kAPcm, "a-pcm"},
  };
}

std::unique_ptr<Matcher> MakeContender(const Contender& contender,
                                       const workload::WorkloadSpec& spec) {
  engine::MatcherConfig config;
  config.domain = {spec.domain_min, spec.domain_max};
  config.pcm.num_threads = contender.threads;
  return engine::CreateMatcher(contender.kind, config);
}

namespace {

// %.17g round-trips doubles and renders integers without an exponent for
// the magnitudes benchmarks produce; trim to %g-style readability.
std::string JsonNumber(double value) {
  std::string s = StringPrintf("%.10g", value);
  // NaN/inf are not valid JSON; report them as null.
  if (s.find("nan") != std::string::npos ||
      s.find("inf") != std::string::npos) {
    return "null";
  }
  return s;
}

}  // namespace

StatusOr<BenchJsonWriter> BenchJsonWriter::Parse(int argc, char** argv) {
  BenchJsonWriter writer;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("--json requires a path argument");
      }
      if (writer.enabled()) {
        return Status::InvalidArgument("--json given more than once");
      }
      writer = BenchJsonWriter(argv[++i]);
      continue;
    }
    return Status::InvalidArgument(std::string("unknown argument '") +
                                   argv[i] + "' (only --json <path>)");
  }
  return writer;
}

BenchJsonWriter BenchJsonWriter::FromArgs(int argc, char** argv) {
  auto writer = Parse(argc, argv);
  if (!writer.ok()) {
    std::fprintf(stderr, "%s\nusage: %s [--json <path>]\n",
                 writer.status().ToString().c_str(),
                 argc > 0 ? argv[0] : "bench");
    std::exit(2);
  }
  return *std::move(writer);
}

void BenchJsonWriter::Add(Record record) {
  if (!enabled()) return;
  records_.push_back(std::move(record));
}

void BenchJsonWriter::AddThroughput(const std::string& bench,
                                    const std::string& config,
                                    const ThroughputResult& result) {
  if (!enabled()) return;
  Record record;
  record.bench = bench;
  record.config = config;
  record.throughput = result.events_per_second;
  record.p50_ns =
      static_cast<double>(result.batch_latency_ns.ValueAtQuantile(0.5));
  record.p95_ns =
      static_cast<double>(result.batch_latency_ns.ValueAtQuantile(0.95));
  record.p99_ns =
      static_cast<double>(result.batch_latency_ns.ValueAtQuantile(0.99));
  record.max_ns = static_cast<double>(result.batch_latency_ns.max());
  record.metrics = {
      {"events_processed", static_cast<double>(result.events_processed)},
      {"seconds", result.seconds},
      {"build_seconds", result.build_seconds},
      {"memory_bytes", static_cast<double>(result.memory_bytes)},
      {"matches_per_event", result.matches_per_event},
      {"predicate_evals", static_cast<double>(result.stats.predicate_evals)},
      {"candidates_checked",
       static_cast<double>(result.stats.candidates_checked)},
      {"clusters_visited",
       static_cast<double>(result.stats.clusters_visited)},
  };
  records_.push_back(std::move(record));
}

bool BenchJsonWriter::Finish() const {
  if (!enabled()) return true;
  std::string out = "[\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out += "  {\"bench\": \"" + engine::JsonEscape(r.bench) + "\"";
    out += ", \"config\": \"" + engine::JsonEscape(r.config) + "\"";
    out += ", \"throughput\": " + JsonNumber(r.throughput);
    out += ", \"p50\": " + JsonNumber(r.p50_ns);
    out += ", \"p95\": " + JsonNumber(r.p95_ns);
    out += ", \"p99\": " + JsonNumber(r.p99_ns);
    out += ", \"max\": " + JsonNumber(r.max_ns);
    out += ", \"metrics\": {";
    for (size_t m = 0; m < r.metrics.size(); ++m) {
      if (m > 0) out += ", ";
      out += "\"" + engine::JsonEscape(r.metrics[m].first) +
             "\": " + JsonNumber(r.metrics[m].second);
    }
    out += "}}";
    out += i + 1 < records_.size() ? ",\n" : "\n";
  }
  out += "]\n";
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path_.c_str());
    return false;
  }
  const bool wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  const bool ok = std::fclose(f) == 0 && wrote;
  if (!ok) std::fprintf(stderr, "short write to %s\n", path_.c_str());
  std::printf("wrote JSON results: %s (%zu records)\n", path_.c_str(),
              records_.size());
  return ok;
}

}  // namespace apcm::bench
