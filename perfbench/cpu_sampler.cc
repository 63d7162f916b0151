#include "perfbench/cpu_sampler.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "perfbench/loadgen.h"
#include "perfbench/stats.h"

namespace perfbench {

int64_t ProcessCpuNs(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15, in clock ticks.
  const size_t name_end = line.rfind(')');
  if (name_end == std::string::npos) return -1;
  std::istringstream fields(line.substr(name_end + 2));
  std::string field;
  for (int i = 3; i < 14; ++i) fields >> field;
  int64_t utime = 0, stime = 0;
  if (!(fields >> utime >> stime)) return -1;
  return (utime + stime) * (1'000'000'000LL / sysconf(_SC_CLK_TCK));
}

CpuSampler::CpuSampler(int64_t interval_ns, pid_t server)
    : server_(server), samples_(1 << 14) {
  samples_[0] = Take(Sample());
  count_.store(1);
  thread_ = std::thread([this, interval_ns] {
    for (size_t n = 1; n < samples_.size() && running_.load(); ++n) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(interval_ns));
      samples_[n] = Take(samples_[n - 1]);
      count_.store(n + 1, std::memory_order_release);
    }
  });
}

CpuSampler::~CpuSampler() {
  running_.store(false);
  thread_.join();
}

CpuSampler::Sample CpuSampler::Take(const Sample& prev) const {
  Sample s = prev;
  s.ns = NowNs();
  std::ifstream stat("/proc/stat");
  std::string name;
  stat >> name;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice).
  uint64_t ticks[8] = {};
  int read = 0;
  while (name == "cpu" && read < 8 && stat >> ticks[read]) ++read;
  uint64_t total = 0;
  for (int i = 0; i < read; ++i) total += ticks[i];
  if (read == 8 && total >= prev.total_ticks && ticks[7] >= prev.steal_ticks) {
    s.total_ticks = total;
    s.steal_ticks = ticks[7];
  }
  const int64_t server_cpu_ns = ProcessCpuNs(server_);
  if (server_cpu_ns >= prev.server_cpu_ns) s.server_cpu_ns = server_cpu_ns;
  return s;
}

std::pair<const CpuSampler::Sample*, const CpuSampler::Sample*>
CpuSampler::Span(int64_t from_ns, int64_t to_ns) const {
  const size_t count = count_.load(std::memory_order_acquire);
  auto nearest = [&](int64_t ns) {
    auto end = samples_.begin() + static_cast<std::ptrdiff_t>(count);
    auto it = std::lower_bound(
        samples_.begin(), end, ns,
        [](const Sample& s, int64_t t) { return s.ns < t; });
    if (it == end) return &*(end - 1);
    if (it != samples_.begin() && ns - (it - 1)->ns < it->ns - ns) --it;
    return &*it;
  };
  return {nearest(from_ns), nearest(to_ns)};
}

double CpuSampler::StealPercentBetween(int64_t from_ns, int64_t to_ns) const {
  const auto [a, b] = Span(from_ns, to_ns);
  return 100.0 * Ratio(static_cast<double>(b->steal_ticks - a->steal_ticks),
                       static_cast<double>(b->total_ticks - a->total_ticks));
}

int64_t CpuSampler::ServerCpuNsBetween(int64_t from_ns, int64_t to_ns) const {
  const auto [a, b] = Span(from_ns, to_ns);
  return b->server_cpu_ns - a->server_cpu_ns;
}

}  // namespace perfbench
