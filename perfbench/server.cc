#include "perfbench/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "perfbench/stats.h"
#include "src/cluster/router.h"
#include "src/net/server.h"

namespace perfbench {
namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(3);
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line (without the newline); "" on EOF.
std::string ReadLine(int fd) {
  std::string line;
  char c;
  while (read(fd, &c, 1) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return line;
}

}  // namespace

void PinServerCpus() {
  const int cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (cpus < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = 0; c + 1 < cpus; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void PinGeneratorCpu() {
  const int cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (cpus < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus - 1, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

ServerProcess ServerProcess::Spawn(const std::string& self_exe,
                                   int backends) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    Die("socketpair failed");
  }
  const std::string child_fd = std::to_string(fds[1]);
  const std::string backend_count = std::to_string(backends);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    // The server must not outlive the benchmark.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    PinServerCpus();
    // Keep the child's end open across exec.
    const int flags = fcntl(fds[1], F_GETFD);
    fcntl(fds[1], F_SETFD, flags & ~FD_CLOEXEC);
    execl(self_exe.c_str(), self_exe.c_str(), "--serve", child_fd.c_str(),
          backend_count.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  ServerProcess process;
  process.pid_ = pid;
  process.ctl_fd_ = fds[0];
  std::istringstream ready(ReadLine(process.ctl_fd_));
  std::string word;
  ready >> word;
  if (word != "ready") Die("server child failed to start");
  ready >> process.port_ >> process.admin_port_;
  return process;
}

std::string ServerProcess::Request(const std::string& line) {
  if (!WriteAll(ctl_fd_, line + "\n")) Die("server child went away");
  return ReadLine(ctl_fd_);
}

uint64_t ServerProcess::PeakRssBytes() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

void ServerProcess::StartSampling() { Request("sample"); }

ServerSamples ServerProcess::Stop() {
  std::istringstream in(Request("stop"));
  ServerSamples samples;
  std::string word;
  in >> word >> samples.merge_buffer_p99 >> samples.unacked_publishes_p99;
  close(ctl_fd_);
  int status = 0;
  waitpid(pid_, &status, 0);
  if (word != "bye" || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("server child did not stop cleanly");
  }
  return samples;
}

int ServeMain(int ctl_fd, int backends) {
  using apcm::net::EventServer;
  using apcm::net::EventServerOptions;
  auto server_options = [&] {
    EventServerOptions options;
    options.engine.admin_port = -1;
    for (int a = 0; a < kNumAttributes; ++a) {
      options.attributes.push_back("a" + std::to_string(a));
    }
    return options;
  };

  std::vector<std::unique_ptr<EventServer>> servers;
  std::unique_ptr<apcm::cluster::ClusterRouter> router;
  std::string ready = "ready";
  const int count = backends == 0 ? 1 : backends;
  for (int i = 0; i < count; ++i) {
    servers.push_back(std::make_unique<EventServer>(server_options()));
    if (!servers.back()->Start().ok()) return 2;
  }
  if (backends == 0) {
    ready += " " + std::to_string(servers[0]->port()) + " " +
             std::to_string(servers[0]->engine().admin_port());
  } else {
    apcm::cluster::ClusterOptions options;
    options.admin_port = -1;
    for (auto& server : servers) {
      options.backends.push_back({"127.0.0.1", server->port()});
    }
    router = std::make_unique<apcm::cluster::ClusterRouter>(options);
    if (!router->Start().ok()) return 2;
    ready += " " + std::to_string(router->port()) + " " +
             std::to_string(router->admin_port());
  }
  if (!WriteAll(ctl_fd, ready + "\n")) return 2;

  std::atomic<bool> sampling{false};
  std::vector<double> merge, unacked;
  std::thread sampler;
  while (true) {
    const std::string command = ReadLine(ctl_fd);
    if (command == "sample") {
      if (router != nullptr && !sampling.exchange(true)) {
        merge.reserve(1 << 16);
        unacked.reserve(1 << 16);
        sampler = std::thread([&] {
          while (sampling.load() && merge.size() < merge.capacity()) {
            const apcm::cluster::ClusterStatus status = router->Snapshot();
            merge.push_back(static_cast<double>(status.merge_buffer_events));
            unacked.push_back(static_cast<double>(status.unacked_publishes));
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        });
      }
      if (!WriteAll(ctl_fd, "ok\n")) return 2;
    } else {  // "stop", or EOF when the benchmark died
      sampling.store(false);
      if (sampler.joinable()) sampler.join();
      if (router != nullptr) router->Stop();
      for (auto& server : servers) server->Stop();
      char line[128];
      std::snprintf(line, sizeof(line), "bye %.3f %.3f\n",
                    Quantile(&merge, 0.99), Quantile(&unacked, 0.99));
      WriteAll(ctl_fd, line);
      return 0;
    }
  }
}

std::string HttpGet(int port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      WriteAll(fd, "GET " + path +
                       " HTTP/1.0\r\nHost: 127.0.0.1\r\n"
                       "Connection: close\r\n\r\n")) {
    std::string response;
    char buf[65536];
    ssize_t n;
    while ((n = read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
    const size_t split = response.find("\r\n\r\n");
    if (response.rfind("HTTP/1.", 0) == 0 &&
        response.find(" 200 ") != std::string::npos &&
        split != std::string::npos) {
      body = response.substr(split + 4);
    }
  }
  close(fd);
  return body;
}

}  // namespace perfbench
