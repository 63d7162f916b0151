// Exposition formats and the admin endpoint: Prometheus text syntax, JSON
// well-formedness, the registry-driven operations report, and end-to-end
// HTTP GETs against a live engine's admin server.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/metrics.h"
#include "src/engine/admin_server.h"
#include "src/engine/engine.h"
#include "src/engine/exposition.h"
#include "src/engine/report.h"

namespace apcm::engine {
namespace {

// ---------------------------------------------------------------------------
// Validity checkers (no third-party parsers available; these accept exactly
// the subset our renderers are allowed to emit).

bool ValidMetricNameChar(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') {
    return true;
  }
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

// One Prometheus text-format sample line: name[{label="value",...}] value
bool ValidPrometheusSampleLine(const std::string& line) {
  size_t i = 0;
  if (i >= line.size() || !ValidMetricNameChar(line[i], true)) return false;
  while (i < line.size() && ValidMetricNameChar(line[i], false)) ++i;
  if (i < line.size() && line[i] == '{') {
    const size_t close = line.find('}', i);
    if (close == std::string::npos) return false;
    // Labels: key="value" pairs separated by commas.
    std::string labels = line.substr(i + 1, close - i - 1);
    std::stringstream ss(labels);
    std::string pair;
    while (std::getline(ss, pair, ',')) {
      const size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) return false;
      const std::string value = pair.substr(eq + 1);
      if (value.size() < 2 || value.front() != '"' || value.back() != '"') {
        return false;
      }
    }
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') return false;
  // Remainder must parse as a double with no trailing junk.
  const std::string value = line.substr(i + 1);
  if (value.empty()) return false;
  char* end = nullptr;
  (void)std::strtod(value.c_str(), &end);
  return end == value.c_str() + value.size();
}

// Minimal JSON well-formedness checker (objects, arrays, strings, numbers,
// true/false/null). Returns true iff `text` is one complete JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Blocking HTTP/1.0 GET against 127.0.0.1:port; returns the raw response
// (status line + headers + body) or "" on connect failure.
std::string HttpGet(int port, const std::string& request_line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = request_line + "\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

MetricsRegistry* SampleRegistry() {
  auto* registry = new MetricsRegistry();
  Counter* c = registry->AddCounter("demo_events_total", "events seen");
  c->Increment(1234);
  Gauge* g = registry->AddGauge("demo_queue_depth", "queued events");
  g->Set(-5);
  ShardedHistogram* h = registry->AddHistogram("demo_latency_ns", "latency");
  for (int i = 1; i <= 100; ++i) h->Record(i * 1000);
  return registry;
}

// ---------------------------------------------------------------------------
// Exposition format tests.

TEST(PrometheusTest, GoldenSubstrings) {
  std::unique_ptr<MetricsRegistry> registry(SampleRegistry());
  const std::string text = RenderPrometheus(*registry);
  for (const char* needle :
       {"# HELP demo_events_total events seen",
        "# TYPE demo_events_total counter", "demo_events_total 1234",
        "# TYPE demo_queue_depth gauge", "demo_queue_depth -5",
        "# TYPE demo_latency_ns summary",
        "demo_latency_ns{quantile=\"0.5\"}", "demo_latency_ns_sum",
        "demo_latency_ns_count 100"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n"
        << text;
  }
}

TEST(PrometheusTest, EveryLineIsValid) {
  std::unique_ptr<MetricsRegistry> registry(SampleRegistry());
  const std::string text = RenderPrometheus(*registry);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::stringstream ss(text);
  std::string line;
  int samples = 0;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << "bad comment line: " << line;
      continue;
    }
    EXPECT_TRUE(ValidPrometheusSampleLine(line)) << "bad sample: " << line;
    ++samples;
  }
  // 1 counter + 1 gauge + (4 quantiles + sum + count) = 8 sample lines.
  EXPECT_EQ(samples, 8);
}

TEST(MetricsJsonTest, ParsesAndCarriesValues) {
  std::unique_ptr<MetricsRegistry> registry(SampleRegistry());
  const std::string json = RenderMetricsJson(*registry);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  for (const char* needle :
       {"\"demo_events_total\"", "\"counter\"", "\"demo_queue_depth\"",
        "\"gauge\"", "\"demo_latency_ns\"", "\"histogram\"", "\"p99\"",
        "\"count\":100"}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n"
        << json;
  }
}

TEST(MetricsJsonTest, EscapesHelpStrings) {
  MetricsRegistry registry;
  registry.AddCounter("esc_total", "say \"hi\"\\ and\nnewline");
  const std::string json = RenderMetricsJson(registry);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\\\"hi\\\""), std::string::npos);
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
}

// ---------------------------------------------------------------------------
// Report tests.

EngineOptions ReportOptions() {
  EngineOptions options;
  options.kind = MatcherKind::kAPcm;
  return options;
}

TEST(ReportTest, LiveEngineReportHasRegistryMetrics) {
  StreamEngine engine(ReportOptions(),
                      [](uint64_t, const std::vector<SubscriptionId>&) {});
  ASSERT_TRUE(engine.AddSubscription({Predicate(0, Op::kGe, 0)}).ok());
  engine.Publish(Event::Create({{0, 1}}).value());
  engine.Flush();
  const std::string report = RenderReport(engine);
  for (const char* needle :
       {"subscriptions (live)", "apcm_events_published_total",
        "apcm_queue_depth", "apcm_batch_latency_ns",
        "apcm_matcher_candidates_checked_total"}) {
    EXPECT_NE(report.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n"
        << report;
  }
  // Every line is "key: value".
  std::stringstream ss(report);
  std::string line;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    EXPECT_NE(line.find(':'), std::string::npos) << "bad line: " << line;
  }
}

TEST(ReportTest, MatcherStatsRendering) {
  MatcherStats stats;
  stats.events_matched = 7;
  stats.predicate_evals = 1000;
  const std::string line = RenderMatcherStats(stats);
  EXPECT_NE(line.find("events=7"), std::string::npos);
  EXPECT_NE(line.find("predicate_evals=1,000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Admin server end-to-end.

TEST(AdminServerTest, ServesRegisteredHandlers) {
  AdminServer server;
  server.Handle("/hello", [](std::string_view query) {
    AdminResponse response;
    response.body = "world";
    if (!query.empty()) {
      response.body += " query=" + std::string(query);
    }
    response.body += "\n";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  const std::string ok = HttpGet(server.port(), "GET /hello HTTP/1.0");
  EXPECT_NE(ok.find("200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("world"), std::string::npos) << ok;
  EXPECT_NE(ok.find("Content-Length: 6"), std::string::npos) << ok;

  // Query strings are stripped before routing and handed to the handler.
  const std::string query =
      HttpGet(server.port(), "GET /hello?verbose=1 HTTP/1.0");
  EXPECT_NE(query.find("200 OK"), std::string::npos) << query;
  EXPECT_NE(query.find("query=verbose=1"), std::string::npos) << query;

  const std::string missing = HttpGet(server.port(), "GET /nope HTTP/1.0");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  const std::string post = HttpGet(server.port(), "POST /hello HTTP/1.0");
  EXPECT_NE(post.find("405"), std::string::npos) << post;

  server.Stop();
  server.Stop();  // idempotent
}

TEST(AdminServerTest, StartTwiceFails) {
  AdminServer server;
  server.Handle("/x", [](std::string_view) { return AdminResponse{}; });
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_FALSE(server.Start(0).ok());
  server.Stop();
}

TEST(AdminServerTest, EngineEndpointsRespond) {
  EngineOptions options = ReportOptions();
  options.admin_port = -1;  // kernel-assigned ephemeral port
  StreamEngine engine(options,
                      [](uint64_t, const std::vector<SubscriptionId>&) {});
  ASSERT_GT(engine.admin_port(), 0);
  ASSERT_TRUE(engine.AddSubscription({Predicate(0, Op::kGe, 0)}).ok());
  engine.Publish(Event::Create({{0, 1}}).value());
  engine.Flush();

  const std::string health =
      HttpGet(engine.admin_port(), "GET /healthz HTTP/1.0");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos) << health;

  const std::string metrics =
      HttpGet(engine.admin_port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("apcm_events_published_total 1"), std::string::npos)
      << metrics;

  const std::string json =
      HttpGet(engine.admin_port(), "GET /metrics.json HTTP/1.0");
  const size_t body_at = json.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = json.substr(body_at + 4);
  EXPECT_TRUE(JsonChecker(body).Valid()) << body;

  const std::string report =
      HttpGet(engine.admin_port(), "GET /report HTTP/1.0");
  EXPECT_NE(report.find("subscriptions (live)"), std::string::npos);

  const std::string trace = HttpGet(engine.admin_port(), "GET /trace HTTP/1.0");
  const size_t trace_body_at = trace.find("\r\n\r\n");
  ASSERT_NE(trace_body_at, std::string::npos);
  EXPECT_TRUE(JsonChecker(trace.substr(trace_body_at + 4)).Valid()) << trace;
  EXPECT_NE(trace.find("round_start"), std::string::npos) << trace;
}

TEST(AdminServerTest, SubscriptionsEndpointReportsLiveCount) {
  EngineOptions options = ReportOptions();
  options.admin_port = -1;
  StreamEngine engine(options,
                      [](uint64_t, const std::vector<SubscriptionId>&) {});
  ASSERT_GT(engine.admin_port(), 0);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(engine.AddSubscription({Predicate(0, Op::kGe, i)}).ok());
  }

  const std::string response =
      HttpGet(engine.admin_port(), "GET /subscriptions HTTP/1.0");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  EXPECT_TRUE(JsonChecker(body).Valid()) << body;
  EXPECT_EQ(body, "{\"total\":16}\n");
}

TEST(AdminServerTest, HealthzUptimeBuildInfoAndStageSeries) {
  EngineOptions options = ReportOptions();
  options.admin_port = -1;
  StreamEngine engine(options,
                      [](uint64_t, const std::vector<SubscriptionId>&) {});
  ASSERT_GT(engine.admin_port(), 0);

  const std::string health =
      HttpGet(engine.admin_port(), "GET /healthz HTTP/1.0");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("uptime_seconds="), std::string::npos) << health;

  const std::string metrics =
      HttpGet(engine.admin_port(), "GET /metrics HTTP/1.0");
  // Build identity rides in the apcm_build_info labels; the gauge is 1.
  EXPECT_NE(metrics.find("apcm_build_info{version="), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("simd="), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("failpoints="), std::string::npos) << metrics;
  // One labeled latency series per pipeline stage plus the total, present
  // (if empty) from startup so scrape schemas are stable.
  for (const char* stage :
       {"read", "admit", "queue", "match", "deliver", "write", "total"}) {
    const std::string needle =
        std::string("apcm_stage_latency_ns{stage=\"") + stage + "\"";
    EXPECT_NE(metrics.find(needle), std::string::npos)
        << "missing " << needle;
  }
  EXPECT_NE(metrics.find("apcm_trace_spans_dropped_total"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("apcm_traces_completed_total"), std::string::npos)
      << metrics;
}

TEST(AdminServerTest, HotspotsEndpointRanksPlantedExpensiveCluster) {
  EngineOptions options = ReportOptions();
  options.admin_port = -1;
  options.matcher.pcm.hotspot_every = 1;  // profile every batch
  options.matcher.pcm.clustering.cluster_size = 8;
  StreamEngine engine(options,
                      [](uint64_t, const std::vector<SubscriptionId>&) {});
  ASSERT_GT(engine.admin_port(), 0);
  // Plant: subscriptions 0..7 live on attribute 0, which every event
  // carries, so their cluster does real predicate work. Subscriptions 8..15
  // live on attribute 9, absent from every event — their cluster is pruned
  // by the access predicate and stays cheap.
  std::set<SubscriptionId> expensive_subs;
  for (int i = 0; i < 8; ++i) {
    auto added = engine.AddSubscription({Predicate(0, Op::kGe, i)});
    ASSERT_TRUE(added.ok());
    expensive_subs.insert(*added);
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.AddSubscription({Predicate(9, Op::kGe, i)}).ok());
  }
  for (int i = 0; i < 200; ++i) {
    engine.Publish(Event::Create({{0, 100 + i}}).value());
  }
  engine.Flush();

  const std::vector<HotspotEntry> hotspots = engine.CollectHotspots(0);
  ASSERT_FALSE(hotspots.empty());
  // Ranked by accumulated wall time, so the planted expensive cluster (the
  // one holding the attribute-0 subscriptions) must surface as top-1.
  EXPECT_GT(hotspots[0].batches, 0u);
  EXPECT_GT(hotspots[0].predicate_evals, 0u);
  EXPECT_TRUE(expensive_subs.contains(hotspots[0].example_sub))
      << "top hotspot should be the attribute-0 cluster, got example_sub="
      << hotspots[0].example_sub;
  for (size_t i = 1; i < hotspots.size(); ++i) {
    EXPECT_GE(hotspots[i - 1].ns, hotspots[i].ns) << "not sorted by ns";
  }

  const std::string response =
      HttpGet(engine.admin_port(), "GET /hotspots HTTP/1.0");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  EXPECT_TRUE(JsonChecker(body).Valid()) << body;
  EXPECT_NE(body.find("\"hotspots\":["), std::string::npos) << body;
  EXPECT_NE(body.find("\"predicate_evals\":"), std::string::npos) << body;

  // k= caps the list: exactly one entry, and it agrees with CollectHotspots.
  const std::string top1 =
      HttpGet(engine.admin_port(), "GET /hotspots?k=1 HTTP/1.0");
  const size_t top1_at = top1.find("\r\n\r\n");
  ASSERT_NE(top1_at, std::string::npos);
  const std::string top1_body = top1.substr(top1_at + 4);
  EXPECT_TRUE(JsonChecker(top1_body).Valid()) << top1_body;
  size_t entries = 0;
  for (size_t pos = top1_body.find("\"cluster\":"); pos != std::string::npos;
       pos = top1_body.find("\"cluster\":", pos + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u) << top1_body;
}

TEST(AdminServerTest, DisabledByDefault) {
  StreamEngine engine(ReportOptions(),
                      [](uint64_t, const std::vector<SubscriptionId>&) {});
  EXPECT_EQ(engine.admin_port(), 0);
}

}  // namespace
}  // namespace apcm::engine
