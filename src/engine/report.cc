#include "src/engine/report.h"

#include "src/base/string_util.h"

namespace apcm::engine {

std::string RenderMatcherStats(const MatcherStats& stats) {
  return StringPrintf(
      "events=%s predicate_evals=%s bitmap_words=%s candidates=%s "
      "matches=%s clusters_visited=%s",
      FormatWithCommas(stats.events_matched).c_str(),
      FormatWithCommas(stats.predicate_evals).c_str(),
      FormatWithCommas(stats.bitmap_words).c_str(),
      FormatWithCommas(stats.candidates_checked).c_str(),
      FormatWithCommas(stats.matches_emitted).c_str(),
      FormatWithCommas(stats.clusters_visited).c_str());
}

std::string RenderReport(const StreamEngine& engine) {
  // Everything below is pulled from the engine's metrics registry, which is
  // safe to collect while publishers, mutators, and background rebuilds are
  // live — the report needs no quiesce.
  std::string report;
  auto line = [&report](const std::string& key, const std::string& value) {
    report += StringPrintf("%-37s %s\n", (key + ":").c_str(), value.c_str());
  };
  line("subscriptions (live)",
       FormatWithCommas(engine.num_subscriptions()));
  for (const MetricSample& sample : engine.metrics_registry().Collect()) {
    // Labeled series keep their label body in the key so e.g. the seven
    // apcm_stage_latency_ns{stage=...} series stay distinguishable.
    const std::string key = sample.labels.empty()
                                ? sample.name
                                : sample.name + "{" + sample.labels + "}";
    switch (sample.type) {
      case MetricSample::Type::kCounter:
        line(key, FormatWithCommas(sample.counter_value));
        break;
      case MetricSample::Type::kGauge:
        line(key, StringPrintf("%lld", static_cast<long long>(
                                           sample.gauge_value)));
        break;
      case MetricSample::Type::kHistogram:
        line(key, sample.histogram.Summary());
        break;
    }
  }
  // Matcher hot spots: the top profiled clusters by accumulated wall time
  // (empty until the profiler has sampled a few batches).
  const std::vector<HotspotEntry> hotspots = engine.CollectHotspots(3);
  for (size_t i = 0; i < hotspots.size(); ++i) {
    const HotspotEntry& h = hotspots[i];
    line(StringPrintf("hotspot #%zu", i + 1),
         StringPrintf("cluster=%u subs=%u example_sub=%llu "
                      "batches=%s ns=%s predicate_evals=%s candidates=%s",
                      h.cluster, h.subscriptions,
                      static_cast<unsigned long long>(h.example_sub),
                      FormatWithCommas(h.batches).c_str(),
                      FormatWithCommas(h.ns).c_str(),
                      FormatWithCommas(h.predicate_evals).c_str(),
                      FormatWithCommas(h.candidates_checked).c_str()));
  }
  return report;
}

}  // namespace apcm::engine
