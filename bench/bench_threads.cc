// F6 — multi-core scalability of A-PCM. The paper's "P": one index whose
// clusters are matched in parallel, thread t owning clusters t, t+T, ...
// (PcmOptions::num_threads). Sweeps 1, 2, 4, ... threads up to the host's
// hardware concurrency and reports measured throughput and speedup over the
// 1-thread run.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "src/base/string_util.h"

namespace apcm::bench {
namespace {

void Run(BenchJsonWriter& json) {
  workload::WorkloadSpec spec = DefaultSpec();
  spec.num_subscriptions = FullScale() ? 1'000'000 : 100'000;
  PrintBanner("F6", "A-PCM scalability vs threads", spec);
  const workload::Workload workload = workload::Generate(spec).value();

  const int max_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  TablePrinter table({"threads", "events/s", "speedup", "build(s)"});
  double one_thread = 0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    const Contender contender{engine::MatcherKind::kAPcm,
                              StringPrintf("a-pcm/threads=%d", threads),
                              threads};
    auto matcher = MakeContender(contender, spec);
    const ThroughputResult result =
        MeasureThroughput(*matcher, workload, /*batch_size=*/256);
    json.AddThroughput("bench_threads", contender.label, result);
    if (threads == 1) one_thread = result.events_per_second;
    table.AddRow({std::to_string(threads), Rate(result.events_per_second),
                  Fixed(result.events_per_second / one_thread, 2) + "x",
                  Fixed(result.build_seconds, 2)});
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nhost: %u hardware thread(s). paper shape: near-linear scaling to the "
      "low tens of cores, flattening with cluster-work imbalance.\n",
      std::thread::hardware_concurrency());
}

}  // namespace
}  // namespace apcm::bench

int main(int argc, char** argv) {
  apcm::bench::BenchJsonWriter json =
      apcm::bench::BenchJsonWriter::FromArgs(argc, argv);
  apcm::bench::Run(json);
  return json.Finish() ? 0 : 1;
}
