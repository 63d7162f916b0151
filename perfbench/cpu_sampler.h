// Samples, every 100 ms or so, the steal time of the virtual machine the
// benchmark runs on and the server's CPU time. Steal is CPU time the
// hypervisor handed to other guests while this one had work to run; on a
// shared host it comes in bursts, and while it does every stage of the
// server runs slower and batches more. Windows of a phase are ranked by it,
// and the server's CPU time is counted over the same windows.
#ifndef PERFBENCH_CPU_SAMPLER_H_
#define PERFBENCH_CPU_SAMPLER_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

/// User+system CPU time of process `pid` so far, ns, with the kernel's
/// clock-tick resolution (/proc/<pid>/stat); -1 when it cannot be read.
int64_t ProcessCpuNs(pid_t pid);

class CpuSampler {
 public:
  /// Starts sampling on a background thread until destruction (or until
  /// its buffer is full). `server` is the process whose CPU time is read.
  CpuSampler(int64_t interval_ns, pid_t server);
  ~CpuSampler();
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  /// Between the samples taken so far nearest to `from_ns` and `to_ns`
  /// (NowNs clock): the VM's steal share of all CPU time, in percent, and
  /// the server's CPU time, ns. Both are 0 when the two are one sample.
  double StealPercentBetween(int64_t from_ns, int64_t to_ns) const;
  int64_t ServerCpuNsBetween(int64_t from_ns, int64_t to_ns) const;

 private:
  struct Sample {
    int64_t ns = 0;
    uint64_t steal_ticks = 0;  ///< all CPUs, first line of /proc/stat
    uint64_t total_ticks = 0;
    int64_t server_cpu_ns = 0;
  };
  /// A new sample. A counter that cannot be read, or reads lower than in
  /// `prev`, keeps its value there, so no difference goes negative.
  Sample Take(const Sample& prev) const;
  /// The pair of samples nearest to `from_ns` and `to_ns`.
  std::pair<const Sample*, const Sample*> Span(int64_t from_ns,
                                               int64_t to_ns) const;

  const pid_t server_;
  /// Sized up front, so the thread only writes samples_[count_] and then
  /// publishes it by incrementing count_.
  std::vector<Sample> samples_;
  std::atomic<size_t> count_{0};
  std::atomic<bool> running_{true};
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPU_SAMPLER_H_
