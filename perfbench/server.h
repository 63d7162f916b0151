// The server under test, run in its own process (fork + exec of this binary
// in --serve mode) so that its CPU time and peak memory belong to it alone.
// A UNIX socket pair carries a small line protocol between the two.
#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Attributes of the book's schema, "a0".."a399": the workload generator
/// names them so, the server pins them and the parse replay registers them.
inline constexpr int kNumAttributes = 400;

/// Gauges the child samples while asked to (router only).
struct ServerSamples {
  double merge_buffer_p99 = 0;
  double unacked_publishes_p99 = 0;
};

class ServerProcess {
 public:
  /// Forks and execs `self_exe --serve ...`; returns once the child reports
  /// its ports. `backends` = 0 runs one EventServer, N a ClusterRouter over
  /// N of them. Exits the benchmark on failure.
  static ServerProcess Spawn(const std::string& self_exe, int backends);

  int port() const { return port_; }
  /// Admin port of the front: the server's engine, or the router.
  int admin_port() const { return admin_port_; }
  pid_t pid() const { return pid_; }

  /// Peak resident set of the child, bytes (VmHWM).
  uint64_t PeakRssBytes() const;
  /// Starts sampling router gauges every millisecond.
  void StartSampling();
  /// Stops the servers gracefully, reaps the child, returns the samples.
  ServerSamples Stop();

 private:
  std::string Request(const std::string& line);

  pid_t pid_ = -1;
  int ctl_fd_ = -1;
  int port_ = 0;
  int admin_port_ = 0;
};

/// CPU placement on hosts with 2+ CPUs: the server may use every CPU but
/// the last, which the load generator keeps to itself, so a busy server
/// cannot delay the generator's wake-ups (and be charged for them).
void PinServerCpus();
void PinGeneratorCpu();

/// Entry point of the child: argv after "--serve".
int ServeMain(int ctl_fd, int backends);

/// GET http://127.0.0.1:port/path; the body, or "" on failure.
std::string HttpGet(int port, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H_
