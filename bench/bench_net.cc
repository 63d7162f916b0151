// C2: remote ingestion throughput. N publisher connections flood a loopback
// EventServer through the wire protocol while one subscriber connection
// drains MATCH frames; we measure aggregate acknowledged events/s and the
// per-publish ACK round-trip latency (each Publish() is a full
// request/response over TCP, so the percentiles bound what a synchronous
// remote producer observes).
//
// The subscription load is synthetic — narrow single-attribute windows over
// a 16-attribute space — sized so matching does real work (~2% selectivity
// per subscription) without the matcher dominating the socket path.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/histogram.h"
#include "src/base/metrics.h"
#include "src/base/macros.h"
#include "src/base/rng.h"
#include "src/be/parser.h"
#include "src/net/client.h"
#include "src/net/server.h"

namespace apcm::bench {
namespace {

constexpr int kAttributes = 16;
constexpr int kSubscriptions = 1000;
constexpr int kEventPool = 2048;
constexpr int64_t kDomain = 1000;

/// "a3 between [412, 462]": a window of width 50 over one attribute, so
/// each subscription matches ~5% of the values of an attribute that ~half
/// of the events carry. Cycling the primary attribute guarantees every
/// attribute name is registered by the server in a deterministic order.
std::vector<std::string> MakeSubscriptionTexts(Rng& rng) {
  std::vector<std::string> texts;
  texts.reserve(kSubscriptions);
  for (int i = 0; i < kSubscriptions; ++i) {
    const int attr = i % kAttributes;
    const int64_t lo = rng.UniformInt(0, kDomain - 51);
    texts.push_back("a" + std::to_string(attr) + " between [" +
                    std::to_string(lo) + ", " + std::to_string(lo + 50) + "]");
  }
  return texts;
}

/// Pre-built events carrying ~half of the attributes with uniform values.
/// Parsed through `parser` so the attribute ids match the ones the server
/// assigned while parsing the same subscription texts in the same order.
std::vector<Event> MakeEventPool(Parser& parser, Rng& rng) {
  std::vector<Event> events;
  events.reserve(kEventPool);
  for (int i = 0; i < kEventPool; ++i) {
    std::string text;
    for (int attr = 0; attr < kAttributes; ++attr) {
      if (!rng.Bernoulli(0.5)) continue;
      if (!text.empty()) text += ", ";
      text += "a" + std::to_string(attr) + " = " +
              std::to_string(rng.UniformInt(0, kDomain - 1));
    }
    if (text.empty()) text = "a0 = 0";
    events.push_back(parser.ParseEvent(text).value());
  }
  return events;
}

struct NetResult {
  double events_per_second = 0;
  double seconds = 0;
  uint64_t events_acked = 0;
  uint64_t matches = 0;
  Histogram publish_latency_ns;
};

NetResult RunConfig(int publishers, const std::vector<std::string>& subs,
                    const std::vector<Event>& events, double budget_seconds) {
  net::EventServerOptions options;
  options.engine.batch_size = 256;
  net::EventServer server(std::move(options));
  APCM_CHECK(server.Start().ok());

  net::Client subscriber;
  APCM_CHECK(subscriber.Connect("127.0.0.1", server.port()).ok());
  for (size_t i = 0; i < subs.size(); ++i) {
    APCM_CHECK(subscriber.Subscribe(i, subs[i]).ok());
  }
  std::atomic<uint64_t> matches{0};
  std::thread drainer([&] {
    while (true) {
      auto match = subscriber.PollMatch(/*timeout_ms=*/20);
      if (!match.ok()) break;  // server closed the connection after Stop()
      if (match.value().has_value()) {
        matches.fetch_add(match.value()->sub_ids.size(),
                          std::memory_order_relaxed);
      }
    }
  });

  std::vector<Histogram> latencies(publishers);
  std::vector<uint64_t> acked(publishers, 0);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration<double>(budget_seconds);
  for (int p = 0; p < publishers; ++p) {
    threads.emplace_back([&, p] {
      net::Client publisher;
      APCM_CHECK(publisher.Connect("127.0.0.1", server.port()).ok());
      size_t next = static_cast<size_t>(p);
      while (std::chrono::steady_clock::now() < deadline) {
        const auto t0 = std::chrono::steady_clock::now();
        auto id = publisher.Publish(events[next % events.size()]);
        APCM_CHECK(id.ok());
        latencies[p].Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
        ++acked[p];
        ++next;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Stop() drains the engine and flushes every MATCH before closing, so the
  // drainer exits only after the last owed notification arrived.
  server.Stop();
  drainer.join();

  NetResult result;
  result.seconds = seconds;
  for (int p = 0; p < publishers; ++p) {
    result.events_acked += acked[p];
    result.publish_latency_ns.Merge(latencies[p]);
  }
  result.events_per_second = result.events_acked / seconds;
  result.matches = matches.load();
  return result;
}

// ---------------------------------------------------------------------------
// C2b: connection scale — the epoll reactor under an idle herd.
//
// N mostly-idle connections sit registered in the reactor's epoll sets while
// a small active working set does real work: 64 broadcast subscribers drain
// a MATCH fan-out storm and one pinger measures wakeup latency. The herd
// proves that wakeup latency and fan-out throughput depend on the *active*
// set, not the registered set — the property that separates epoll from a
// poll() loop, whose every pass walks all N connections.
// ---------------------------------------------------------------------------

constexpr int kFanoutSubscribers = 64;
constexpr int kWakeupPings = 200;

struct HerdResult {
  int connections = 0;  ///< actual herd size after the RLIMIT_NOFILE clamp
  double fanout_frames_per_second = 0;
  uint64_t fanout_frames = 0;
  double seconds = 0;
  double frames_per_wakeup = 0;
  Histogram wakeup_ns;  ///< ping round trip with the herd attached
};

uint64_t CounterValue(const MetricsRegistry& registry,
                      const std::string& name) {
  for (const MetricSample& sample : registry.Collect()) {
    if (sample.name == name) return sample.counter_value;
  }
  return 0;
}

/// Both ends of every loopback connection live in this process, so each herd
/// member costs two descriptors. Leave headroom for the server's listeners,
/// the active clients, and whatever the runtime itself holds open.
int ClampHerdToRlimit(int requested) {
  struct rlimit limit {};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return requested;
  const long usable = (static_cast<long>(limit.rlim_cur) - 768) / 2;
  if (usable < requested) {
    std::printf(
        "    note: %d connections clamped to %ld by RLIMIT_NOFILE=%ld "
        "(raise ulimit -n for the full herd)\n",
        requested, usable, static_cast<long>(limit.rlim_cur));
    return static_cast<int>(std::max(usable, 1L));
  }
  return requested;
}

/// A raw idle connection: connected, registered with the reactor, never
/// spoken on. The source address rotates through 127.0.x.y so a 100k herd
/// does not exhaust the ephemeral port range of a single (saddr, daddr)
/// pair — every loopback /8 address accepts local binds without setup.
int ConnectIdle(int server_port, int index) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in src{};
  src.sin_family = AF_INET;
  src.sin_port = 0;
  const uint32_t host = 0x7f000000u | ((static_cast<uint32_t>(index) / 20000 + 2) << 8) | 1u;
  src.sin_addr.s_addr = htonl(host);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&src), sizeof(src)) != 0) {
    ::close(fd);
    return -1;
  }
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(static_cast<uint16_t>(server_port));
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&dst), sizeof(dst)) != 0) {
    ::close(fd);
    return -1;
  }
  // Abortive close (RST, no TIME_WAIT): a herd teardown would otherwise
  // leave tens of thousands of sockets in TIME_WAIT for 60s, exhausting the
  // loopback ephemeral port range for every connect that follows — the next
  // herd config, the perf gate's rerun, or an unrelated CI step.
  struct linger abort_on_close {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
               sizeof(abort_on_close));
  return fd;
}

HerdResult RunHerdConfig(int herd, const std::vector<Event>& events,
                         double budget_seconds) {
  HerdResult result;
  net::EventServerOptions options;
  options.engine.batch_size = 256;
  options.io_threads = 4;
  net::EventServer server(std::move(options));
  APCM_CHECK(server.Start().ok());
  const MetricsRegistry& registry = server.engine().metrics_registry();

  // The active working set: 64 catch-all subscribers that every publish
  // fans out to, plus one pinger for the latency probe.
  std::vector<std::unique_ptr<net::Client>> fanout;
  for (int i = 0; i < kFanoutSubscribers; ++i) {
    fanout.push_back(std::make_unique<net::Client>());
    APCM_CHECK(fanout.back()->Connect("127.0.0.1", server.port()).ok());
    APCM_CHECK(fanout.back()->Subscribe(0, "a0 >= 0").ok());
  }
  net::Client pinger;
  APCM_CHECK(pinger.Connect("127.0.0.1", server.port()).ok());

  // Attach the idle herd in paced chunks: the accept backlog is finite, so
  // wait for the server's connection gauge to absorb each chunk before
  // issuing the next burst of SYNs.
  std::vector<int> herd_fds;
  herd_fds.reserve(static_cast<size_t>(herd));
  const int64_t active = kFanoutSubscribers + 1;
  for (int i = 0; i < herd; ++i) {
    const int fd = ConnectIdle(server.port(), i);
    if (fd < 0) {
      std::printf("    note: herd stopped at %zu connections (%s)\n",
                  herd_fds.size(), std::strerror(errno));
      break;
    }
    herd_fds.push_back(fd);
    if (herd_fds.size() % 512 == 0) {
      while (server.num_connections() <
             static_cast<int64_t>(herd_fds.size()) + active - 64) {
        std::this_thread::yield();
      }
    }
  }
  while (server.num_connections() <
         static_cast<int64_t>(herd_fds.size()) + active) {
    std::this_thread::yield();
  }
  result.connections = static_cast<int>(herd_fds.size());

  // Wakeup latency: a round trip through one reactor thread while the herd
  // sits in the same epoll sets. Each ping is one wakeup on an otherwise
  // idle server, so the RTT bounds readiness-to-dispatch latency.
  for (int i = 0; i < kWakeupPings; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    APCM_CHECK(pinger.Ping().ok());
    result.wakeup_ns.Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  // Broadcast fan-out: every publish owes one MATCH frame to each of the 64
  // subscribers. Throughput is delivered frames over the wall clock from
  // the first publish to the last drained frame.
  const uint64_t wakeups_before =
      CounterValue(registry, "apcm_net_wakeups_total");
  const uint64_t frames_before =
      CounterValue(registry, "apcm_net_frames_out_total");
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> published{0};
  std::atomic<bool> publishing{true};
  std::vector<std::thread> drainers;
  for (auto& sub : fanout) {
    drainers.emplace_back([&, client = sub.get()] {
      uint64_t got = 0;
      while (publishing.load(std::memory_order_acquire) ||
             got < published.load(std::memory_order_acquire)) {
        auto match = client->PollMatch(/*timeout_ms=*/20);
        if (!match.ok()) break;
        if (match.value().has_value()) {
          ++got;
          delivered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  net::Client publisher;
  {
    Status connected = publisher.Connect("127.0.0.1", server.port());
    if (!connected.ok()) {
      std::fprintf(stderr, "publisher connect: %s\n",
                   connected.ToString().c_str());
    }
    APCM_CHECK(connected.ok());
  }
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(budget_seconds);
  size_t next = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    APCM_CHECK(publisher.Publish(events[next % events.size()]).ok());
    published.fetch_add(1, std::memory_order_release);
    ++next;
  }
  publishing.store(false, std::memory_order_release);
  for (std::thread& t : drainers) t.join();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.fanout_frames = delivered.load();
  result.fanout_frames_per_second = result.fanout_frames / result.seconds;
  const uint64_t wakeups =
      CounterValue(registry, "apcm_net_wakeups_total") - wakeups_before;
  const uint64_t frames =
      CounterValue(registry, "apcm_net_frames_out_total") - frames_before;
  result.frames_per_wakeup =
      wakeups > 0 ? static_cast<double>(frames) / wakeups : 0;

  for (int fd : herd_fds) ::close(fd);
  server.Stop();
  return result;
}

void RunConnectionScale(BenchJsonWriter& json, Parser& parser,
                        int max_connections) {
  std::printf(
      "\nC2b: connection scale — idle herd + broadcast fan-out "
      "(io_threads=4, %d fan-out subscribers)\n\n",
      kFanoutSubscribers);
  Rng rng(20260808);
  std::vector<Event> events;
  for (int i = 0; i < 64; ++i) {
    events.push_back(parser
                         .ParseEvent("a0 = " +
                                     std::to_string(rng.UniformInt(0, 999)))
                         .value());
  }
  std::vector<int> herds{1000, 10000};
  if (max_connections > 0) herds.push_back(max_connections);
  std::sort(herds.begin(), herds.end());
  herds.erase(std::unique(herds.begin(), herds.end()), herds.end());

  TablePrinter table({"connections", "fanout frames/s", "wakeup p50 us",
                      "wakeup p99 us", "frames/wakeup", "frames"});
  for (int requested : herds) {
    const int herd = ClampHerdToRlimit(requested);
    const HerdResult result =
        RunHerdConfig(herd, events, TimeBudgetSeconds());
    const double p50_ns =
        static_cast<double>(result.wakeup_ns.ValueAtQuantile(0.5));
    const double p95_ns =
        static_cast<double>(result.wakeup_ns.ValueAtQuantile(0.95));
    const double p99_ns =
        static_cast<double>(result.wakeup_ns.ValueAtQuantile(0.99));
    table.AddRow({std::to_string(result.connections),
                  Rate(result.fanout_frames_per_second),
                  Fixed(p50_ns / 1e3, 1), Fixed(p99_ns / 1e3, 1),
                  Fixed(result.frames_per_wakeup, 2),
                  std::to_string(result.fanout_frames)});
    json.Add({.bench = "bench_net",
              .config = "connections=" + std::to_string(requested),
              .throughput = result.fanout_frames_per_second,
              .p50_ns = p50_ns,
              .p95_ns = p95_ns,
              .p99_ns = p99_ns,
              .max_ns = static_cast<double>(result.wakeup_ns.max()),
              .metrics = {{"connections",
                           static_cast<double>(result.connections)},
                          {"fanout_frames",
                           static_cast<double>(result.fanout_frames)},
                          {"frames_per_wakeup", result.frames_per_wakeup},
                          {"seconds", result.seconds}}});
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nnote: latency columns are ping round trips measured with the herd "
      "attached; epoll keeps them flat as registered connections grow.\n");
}

void Run(BenchJsonWriter& json, int max_connections) {
  std::printf("C2: remote ingestion — publisher connections over loopback\n");
  std::printf("    %d subscriptions, %d-attribute events, %.1fs per config\n\n",
              kSubscriptions, kAttributes, TimeBudgetSeconds());

  Rng rng(20260806);
  const std::vector<std::string> subs = MakeSubscriptionTexts(rng);
  Catalog catalog;
  Parser parser(&catalog);
  for (size_t i = 0; i < subs.size(); ++i) {
    parser.ParseExpression(i, subs[i]).value();
  }
  const std::vector<Event> events = MakeEventPool(parser, rng);

  const std::vector<int> lineups =
      FullScale() ? std::vector<int>{1, 2, 4, 8} : std::vector<int>{1, 2, 4};
  TablePrinter table({"publishers", "events/s", "ack p50 us", "ack p99 us",
                      "ack max us", "events", "matches"});
  for (int publishers : lineups) {
    const NetResult result =
        RunConfig(publishers, subs, events, TimeBudgetSeconds());
    const double p50_ns =
        static_cast<double>(result.publish_latency_ns.ValueAtQuantile(0.5));
    const double p95_ns =
        static_cast<double>(result.publish_latency_ns.ValueAtQuantile(0.95));
    const double p99_ns =
        static_cast<double>(result.publish_latency_ns.ValueAtQuantile(0.99));
    const double max_ns =
        static_cast<double>(result.publish_latency_ns.max());
    table.AddRow({std::to_string(publishers), Rate(result.events_per_second),
                  Fixed(p50_ns / 1e3, 1), Fixed(p99_ns / 1e3, 1),
                  Fixed(max_ns / 1e3, 1),
                  std::to_string(result.events_acked),
                  std::to_string(result.matches)});
    json.Add({.bench = "bench_net",
              .config = "publishers=" + std::to_string(publishers),
              .throughput = result.events_per_second,
              .p50_ns = p50_ns,
              .p95_ns = p95_ns,
              .p99_ns = p99_ns,
              .max_ns = max_ns,
              .metrics = {{"events_acked",
                           static_cast<double>(result.events_acked)},
                          {"matches", static_cast<double>(result.matches)},
                          {"seconds", result.seconds}}});
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nnote: each Publish() is a synchronous ACK round trip, so single-"
      "connection throughput is latency-bound; added connections pipeline "
      "independent round trips into the same engine.\n");

  RunConnectionScale(json, parser, max_connections);
}

}  // namespace
}  // namespace apcm::bench

int main(int argc, char** argv) {
  // `--connections N` extends the C2b herd sweep to N (the CI net-stress
  // job passes 100000); strip it before the JSON writer parses the rest.
  int max_connections = 0;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      max_connections = std::atoi(argv[++i]);
      if (max_connections <= 0) {
        std::fprintf(stderr, "usage: %s [--json <path>] [--connections N]\n",
                     argv[0]);
        return 2;
      }
      continue;
    }
    args.push_back(argv[i]);
  }
  apcm::bench::BenchJsonWriter json = apcm::bench::BenchJsonWriter::FromArgs(
      static_cast<int>(args.size()), args.data());
  apcm::bench::Run(json, max_connections);
  return json.Finish() ? 0 : 1;
}
