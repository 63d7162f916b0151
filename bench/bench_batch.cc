// F10 — effect of the batch size on compressed matching. Batching keeps a
// cluster's dictionary and masks cache-resident while the whole batch
// streams through it; throughput should climb steeply from batch=1 and
// saturate once the per-cluster fixed costs are fully amortized.
//
// The second table sets PCM against the counting baseline at the batch
// sizes a served engine actually sees (1 and 16) and at the default 256,
// on a 1k and a 100k book: per-event cost, and how many clusters the
// dispatch index sent each event to.
//
// Usage: bench_batch [--json <path>]

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/base/string_util.h"
#include "src/core/pcm.h"

namespace apcm::bench {
namespace {

void RunBurstySweep() {
  workload::WorkloadSpec spec = DefaultSpec();
  spec.num_subscriptions = FullScale() ? 500'000 : 100'000;
  spec.num_events = 4'096;
  // A bursty stream: batching then amortizes per-cluster state *and* lets
  // equal-signature neighbors share the coverage phase.
  spec.event_locality = 0.9;
  PrintBanner("F10", "PCM throughput vs batch size (bursty stream)", spec);
  const workload::Workload workload = workload::Generate(spec).value();

  core::PcmOptions options;
  options.mode = core::PcmMode::kCompressed;
  core::PcmMatcher pcm(options);
  pcm.Build(workload.subscriptions);

  TablePrinter table({"batch size", "events/s", "speedup vs batch=1"});
  double base_rate = 0;
  for (uint32_t batch : {1u, 4u, 16u, 64u, 256u, 1024u, 4096u}) {
    const ThroughputResult result =
        MeasureThroughputPrebuilt(pcm, workload, batch);
    if (batch == 1) base_rate = result.events_per_second;
    table.AddRow({std::to_string(batch), Rate(result.events_per_second),
                  Fixed(result.events_per_second / base_rate, 2) + "x"});
    std::printf("batch=%u done\n", batch);
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\npaper shape: steep gains from small batches, saturating around "
      "hundreds of events per batch; batch=1 pays the full per-cluster "
      "traversal cost per event.\n\n");
}

void RunBookGrid(BenchJsonWriter& json) {
  TablePrinter table({"book", "matcher", "batch", "us/event",
                      "clusters/event", "evals/event"});
  for (const uint64_t subs : {1'000ULL, 100'000ULL}) {
    workload::WorkloadSpec spec = DefaultSpec();
    spec.num_subscriptions = subs;
    const std::string book = subs == 1'000 ? "1k" : "100k";
    PrintBanner("F10", "per-event cost vs batch size, " + book + " book",
                spec);
    const workload::Workload workload = workload::Generate(spec).value();
    for (const Contender& contender :
         {Contender{engine::MatcherKind::kCounting, "counting"},
          Contender{engine::MatcherKind::kPcm, "pcm"},
          Contender{engine::MatcherKind::kAPcm, "a-pcm"}}) {
      auto matcher = MakeContender(contender, spec);
      matcher->Build(workload.subscriptions);
      for (const uint32_t batch : {1u, 16u, 256u}) {
        const ThroughputResult result =
            MeasureThroughputPrebuilt(*matcher, workload, batch);
        const double events = static_cast<double>(result.events_processed);
        const double us_per_event = 1e6 / result.events_per_second;
        const double visits_per_event =
            static_cast<double>(result.stats.clusters_visited) / events;
        const double evals_per_event =
            static_cast<double>(result.stats.predicate_evals) / events;
        table.AddRow({book, contender.label, std::to_string(batch),
                      Fixed(us_per_event, 2), Fixed(visits_per_event, 1),
                      Fixed(evals_per_event, 1)});
        json.Add({.bench = "bench_batch",
                  .config = StringPrintf("book=%s/%s/batch=%u", book.c_str(),
                                         contender.label.c_str(), batch),
                  .throughput = result.events_per_second,
                  .p50_ns = static_cast<double>(
                      result.batch_latency_ns.ValueAtQuantile(0.5)),
                  .p95_ns = static_cast<double>(
                      result.batch_latency_ns.ValueAtQuantile(0.95)),
                  .p99_ns = static_cast<double>(
                      result.batch_latency_ns.ValueAtQuantile(0.99)),
                  .max_ns = static_cast<double>(result.batch_latency_ns.max()),
                  .metrics = {{"us_per_event", us_per_event},
                              {"clusters_visited_per_event", visits_per_event},
                              {"predicate_evals_per_event", evals_per_event},
                              {"events_processed", events}}});
        std::printf("  measured %s/%s batch=%u\n", book.c_str(),
                    contender.label.c_str(), batch);
      }
    }
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nexpected: with pivot dispatch, pcm and a-pcm pay per cluster an "
      "event reaches (clusters/event), not per cluster in the index, so "
      "batch=1 costs about what counting costs on the 1k book.\n");
}

}  // namespace
}  // namespace apcm::bench

int main(int argc, char** argv) {
  apcm::bench::BenchJsonWriter json =
      apcm::bench::BenchJsonWriter::FromArgs(argc, argv);
  apcm::bench::RunBurstySweep();
  apcm::bench::RunBookGrid(json);
  return json.Finish() ? 0 : 1;
}
