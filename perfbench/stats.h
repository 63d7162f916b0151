// Arithmetic shared by the benchmark and its self-tests: quantiles of
// latency samples, the open-loop due-time schedule, ratios with a defined
// value for an empty base, and an order-independent digest of match sets.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (the "inclusive" method: q=0 is the minimum,
/// q=1 the maximum) of `samples`, which is sorted in place. 0 when empty.
inline double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const double pos = q * static_cast<double>(samples->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*samples)[lo] + ((*samples)[hi] - (*samples)[lo]) * frac;
}

/// Median of a few values (for repeated set-ups and per-window figures).
inline double Median(std::vector<double> values) {
  return Quantile(&values, 0.5);
}

/// Samples of a quantile estimate that lie beyond it: the guide's rule is to
/// report the highest percentile with at least ten samples past it.
inline uint64_t SamplesBeyond(uint64_t count, double q) {
  return static_cast<uint64_t>(
      std::floor(static_cast<double>(count) * (1.0 - q)));
}

/// Open-loop schedule: event i is due at start + floor(i * 1e9 / rate) ns.
/// Integer arithmetic keeps the schedule free of accumulated rounding, so the
/// same rate gives the same offsets on every run.
inline int64_t DueNs(int64_t start_ns, uint64_t index, uint64_t rate_per_s) {
  const unsigned __int128 offset =
      static_cast<unsigned __int128>(index) * 1'000'000'000u / rate_per_s;
  return start_ns + static_cast<int64_t>(offset);
}

/// Number of events of an open-loop schedule due in [0, seconds).
inline uint64_t EventsDue(double seconds, uint64_t rate_per_s) {
  return static_cast<uint64_t>(std::ceil(seconds * rate_per_s));
}

/// num / den, or 0 when the base is empty.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// num per 1000 units of den.
inline double PerThousand(double num, double den) {
  return Ratio(num, den) * 1000.0;
}

/// Relative change of `value` against `base`, in percent.
inline double PercentChange(double value, double base) {
  return Ratio(value - base, base) * 100.0;
}

/// Flags the `keep` windows with the least `disturbance[w]` (the host's
/// steal share during window w), the earlier window first on a tie. The
/// choice never looks at what was measured in the windows.
inline std::vector<bool> LeastDisturbed(const std::vector<double>& disturbance,
                                        size_t keep) {
  std::vector<size_t> order(disturbance.size());
  for (size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return disturbance[a] < disturbance[b];
  });
  std::vector<bool> kept(disturbance.size(), false);
  for (size_t i = 0; i < std::min(keep, order.size()); ++i) {
    kept[order[i]] = true;
  }
  return kept;
}

/// Samples split into consecutive time windows. A run's figure is the median
/// over windows of each window's quantile, so one host stall spoils one
/// window instead of the run's tail. After Keep, only the kept windows count.
class Windowed {
 public:
  explicit Windowed(size_t windows)
      : buckets_(windows), kept_(windows, true) {}

  size_t windows() const { return buckets_.size(); }
  /// Adds `value` to window `w`; out-of-range windows are ignored.
  void Add(size_t w, double value) {
    if (w < buckets_.size()) buckets_[w].push_back(value);
  }
  /// Counts only the windows flagged in `kept` (one flag per window).
  void Keep(std::vector<bool> kept) { kept_ = std::move(kept); }
  bool kept(size_t w) const { return kept_[w]; }
  /// Median over kept windows of their q-quantile, counting only windows
  /// with at least ten samples beyond it; 0 when no window qualifies.
  double MedianOfQuantile(double q) const { return Median(PerWindow(q)); }
  /// The q-quantile of each kept window with at least ten samples beyond it.
  std::vector<double> PerWindow(double q) const {
    std::vector<double> per_window;
    for (size_t w = 0; w < buckets_.size(); ++w) {
      std::vector<double> b = buckets_[w];
      if (kept_[w] && SamplesBeyond(b.size(), q) >= 10) {
        per_window.push_back(Quantile(&b, q));
      }
    }
    return per_window;
  }
  /// Each kept window's sample count divided by `window_seconds`.
  std::vector<double> Rates(double window_seconds) const {
    std::vector<double> rates;
    for (size_t w = 0; w < buckets_.size(); ++w) {
      if (kept_[w]) rates.push_back(buckets_[w].size() / window_seconds);
    }
    return rates;
  }
  /// Median over kept windows of the sample count / `window_seconds`.
  double MedianRate(double window_seconds) const {
    return Median(Rates(window_seconds));
  }

 private:
  std::vector<std::vector<double>> buckets_;
  std::vector<bool> kept_;
};

/// Order-independent digest of a set of subscription ids: a sum of mixed ids
/// plus a count. Ids received over several frames fold in any order.
struct SetDigest {
  uint64_t sum = 0;
  uint32_t count = 0;

  static uint64_t Mix(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }
  void Add(uint64_t id) {
    sum += Mix(id);
    ++count;
  }
  friend bool operator==(const SetDigest&, const SetDigest&) = default;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
