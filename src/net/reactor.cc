#include "src/net/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/base/failpoint.h"
#include "src/base/macros.h"
#include "src/net/net_io.h"

namespace apcm::net {

namespace {

/// Fairness budget: bytes read from one connection per run-queue service
/// before it is re-queued behind its peers.
constexpr size_t kReadBudgetBytes = 256 * 1024;
/// Gather limit per writev (well under IOV_MAX everywhere).
constexpr int kMaxIovecs = 64;
/// Idle epoll_wait timeout; bounds service-tick latency (the parked-publish
/// retry cadence).
constexpr int kIdleTimeoutMs = 20;
/// Re-probe interval for connections whose flush met EAGAIN (see
/// IoThread::stalled). Longer than kIdleTimeoutMs, so an idle loop pass
/// always lands between probes and no timeout adjustment is needed.
constexpr int kWriteProbeMs = 50;
constexpr int kMaxEpollEvents = 256;
constexpr int kAcceptBatch = 128;

/// epoll user-data tags for the two non-connection fds; connection events
/// carry the Connection pointer (never 1 or 2 — allocations are aligned).
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kListenTag = 2;

/// The IoThread the calling thread runs, or null off the reactor. Lets
/// ScheduleFlush/Doom skip the handoff mutex on the owner-thread fast path
/// (the common case: the engine pump enqueueing MATCH frames from OnFrame).
thread_local void* tl_io_thread = nullptr;

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view CloseReasonName(CloseReason reason) {
  switch (reason) {
    case CloseReason::kPeerClosed:
      return "peer_closed";
    case CloseReason::kProtocolError:
      return "protocol_error";
    case CloseReason::kSlowConsumer:
      return "slow_consumer";
    case CloseReason::kWriteError:
      return "write_error";
    case CloseReason::kHandlerRequest:
      return "handler_request";
    case CloseReason::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

void ReactorMetrics::Register(MetricsRegistry& registry) {
  io_threads =
      registry.AddGauge("apcm_net_io_threads", "Reactor I/O threads serving");
  wakeups = registry.AddCounter("apcm_net_wakeups_total",
                                "Reactor event-loop wakeups");
  frames_per_wakeup = registry.AddHistogram(
      "apcm_net_frames_per_wakeup",
      "Frames fully written per connection flush (writev batching factor)");
  batched_writes = registry.AddCounter(
      "apcm_net_batched_writes_total",
      "Gathered writev calls issued by the reactor outbox flusher");
  spurious_wakeups = registry.AddCounter(
      "apcm_net_spurious_wakeups_total",
      "Loop passes injected by the net.reactor.wakeup failpoint");
}

Reactor::Connection::~Connection() {
  OutSegment* head = incoming.exchange(nullptr, std::memory_order_acquire);
  while (head != nullptr) {
    OutSegment* next = head->next;
    delete head;
    head = next;
  }
}

Reactor::Reactor(ReactorOptions options, Handler* handler)
    : options_(std::move(options)), handler_(handler) {
  APCM_CHECK(handler_ != nullptr);
}

Reactor::~Reactor() { Stop(0); }

StatusOr<int> Reactor::MakeListenSocket(int port, bool reuseport) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    ::close(fd);
    return Status::Unimplemented("SO_REUSEPORT unavailable");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st =
        Status::IOError(std::string("bind 127.0.0.1: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, options_.listen_backlog) != 0) {
    Status st = Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  return fd;
}

Status Reactor::BindListeners() {
  const int n = options_.io_threads;
  if (options_.reuseport) {
    StatusOr<int> first = MakeListenSocket(options_.port, /*reuseport=*/true);
    if (first.ok()) {
      std::vector<int> fds{*first};
      sockaddr_in addr{};
      socklen_t len = sizeof(addr);
      if (::getsockname(*first, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
        ::close(*first);
        return Status::IOError(std::string("getsockname: ") +
                               std::strerror(errno));
      }
      port_ = ntohs(addr.sin_port);
      bool all_ok = true;
      for (int i = 1; i < n; ++i) {
        StatusOr<int> fd = MakeListenSocket(port_, /*reuseport=*/true);
        if (!fd.ok()) {
          all_ok = false;
          break;
        }
        fds.push_back(*fd);
      }
      if (all_ok) {
        for (int i = 0; i < n; ++i) threads_[i]->listen_fd = fds[i];
        reuseport_active_ = true;
        return Status::OK();
      }
      // A sibling bind failed after the first succeeded (port stolen,
      // kernel limit): fall back to single-acceptor mode on a fresh socket.
      for (int fd : fds) ::close(fd);
      port_ = 0;
    }
    // else: SO_REUSEPORT rejected — fall through to the fallback.
  }
  APCM_ASSIGN_OR_RETURN(fallback_listen_fd_,
                        MakeListenSocket(options_.port, /*reuseport=*/false));
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fallback_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  threads_[0]->listen_fd = fallback_listen_fd_;
  reuseport_active_ = false;
  return Status::OK();
}

Status Reactor::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return Status::FailedPrecondition("reactor already started");
  if (options_.io_threads < 1 || options_.io_threads > 64) {
    return Status::InvalidArgument("io_threads must be in [1, 64]");
  }
  threads_.clear();
  for (int i = 0; i < options_.io_threads; ++i) {
    auto t = std::make_unique<IoThread>();
    t->index = static_cast<size_t>(i);
    threads_.push_back(std::move(t));
  }
  APCM_RETURN_NOT_OK(BindListeners());
  for (auto& tp : threads_) {
    IoThread& t = *tp;
    t.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (t.epoll_fd < 0) {
      return Status::IOError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
    t.wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (t.wake_fd < 0) {
      return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered: re-reports until drained
    ev.data.u64 = kWakeTag;
    APCM_CHECK(::epoll_ctl(t.epoll_fd, EPOLL_CTL_ADD, t.wake_fd, &ev) == 0);
    if (t.listen_fd >= 0) {
      epoll_event lev{};
      lev.events = EPOLLIN;  // level-triggered: bounded accept batches are
                             // safe — the kernel re-reports a non-empty
                             // backlog on the next wait
      lev.data.u64 = kListenTag;
      APCM_CHECK(::epoll_ctl(t.epoll_fd, EPOLL_CTL_ADD, t.listen_fd, &lev) ==
                 0);
    }
  }
  if (options_.metrics != nullptr && options_.metrics->io_threads != nullptr) {
    options_.metrics->io_threads->Set(options_.io_threads);
  }
  for (auto& tp : threads_) {
    IoThread* t = tp.get();
    t->thread = std::thread([this, t] { Loop(*t); });
  }
  started_ = true;
  return Status::OK();
}

void Reactor::BeginDrain() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || stopped_) return;
    Phase expected = Phase::kRunning;
    phase_.compare_exchange_strong(expected, Phase::kDraining,
                                   std::memory_order_acq_rel);
  }
  for (auto& tp : threads_) Wake(*tp);
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  lifecycle_cv_.wait(lock, [this] {
    for (const auto& tp : threads_) {
      if (!tp->drain_acked) return false;
    }
    return true;
  });
}

void Reactor::Stop(int flush_deadline_ms) {
  bool was_started;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (stopped_) return;
    stopped_ = true;
    was_started = started_;
  }
  if (was_started) {
    stop_deadline_ms_.store(SteadyNowMs() + flush_deadline_ms,
                            std::memory_order_release);
    phase_.store(Phase::kStopping, std::memory_order_release);
    for (auto& tp : threads_) Wake(*tp);
    for (auto& tp : threads_) {
      if (tp->thread.joinable()) tp->thread.join();
    }
  }
  for (auto& tp : threads_) {
    // Handoffs posted after the loops exited: close connections that were
    // never registered and settle the accounting of any connection that
    // raced an enqueue against its teardown.
    std::lock_guard<std::mutex> lock(tp->mu);
    for (const auto& conn : tp->adopted) DropUnregistered(*conn);
    tp->adopted.clear();
    for (const auto& conn : tp->pending_run) ReclaimOutbox(*conn);
    tp->pending_run.clear();
  }
  for (auto& tp : threads_) {
    if (tp->listen_fd >= 0 && tp->listen_fd != fallback_listen_fd_) {
      ::close(tp->listen_fd);
    }
    tp->listen_fd = -1;
    if (tp->wake_fd >= 0) ::close(tp->wake_fd);
    tp->wake_fd = -1;
    if (tp->epoll_fd >= 0) ::close(tp->epoll_fd);
    tp->epoll_fd = -1;
  }
  if (fallback_listen_fd_ >= 0) ::close(fallback_listen_fd_);
  fallback_listen_fd_ = -1;
  if (options_.metrics != nullptr && options_.metrics->io_threads != nullptr) {
    options_.metrics->io_threads->Set(0);
  }
}

void Reactor::Wake(IoThread& t) {
  if (t.wake_fd < 0) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(t.wake_fd, &one, sizeof(one));
}

void Reactor::WakeAll() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  for (auto& tp : threads_) Wake(*tp);
}

bool Reactor::AllWritesFlushed() const {
  return total_out_bytes_.load(std::memory_order_acquire) == 0;
}

// ---------------------------------------------------------------------------
// Producer-side API (any thread)
// ---------------------------------------------------------------------------

StatusOr<Reactor::ConnPtr> Reactor::AdoptConnected(int fd, void* user_data) {
  // Held through the handoff: a concurrent Stop either rejects this link
  // or finds it in the handoff list and closes it.
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_ || stopped_ ||
      phase_.load(std::memory_order_acquire) != Phase::kRunning) {
    ::close(fd);
    return Status::FailedPrecondition("reactor is not running");
  }
  const size_t target = next_adopt_.fetch_add(1, std::memory_order_relaxed) %
                        threads_.size();
  ConnPtr conn = NewConnection(fd, target);
  conn->set_user_data(user_data);
  IoThread& t = *threads_[target];
  {
    std::lock_guard<std::mutex> handoff(t.mu);
    t.adopted.push_back(conn);
  }
  Wake(t);
  return conn;
}

bool Reactor::Enqueue(const ConnPtr& conn, const Frame& frame, bool traced,
                      uint64_t event_id) {
  if (conn == nullptr || conn->doomed()) return false;
  auto seg = std::make_unique<Connection::OutSegment>();
  seg->data = EncodeFrame(frame);
  seg->traced = traced;
  seg->event_id = event_id;
  const size_t size = seg->data.size();
  const size_t prev = conn->out_bytes.fetch_add(size, std::memory_order_acq_rel);
  if (prev + size > options_.max_write_queue_bytes) {
    // Slow consumer: the peer is not draining fast enough for the bound.
    // Drop this frame and condemn the connection (its already-queued bytes
    // still get a best-effort flush before the close).
    conn->out_bytes.fetch_sub(size, std::memory_order_acq_rel);
    Doom(conn, CloseReason::kSlowConsumer);
    return false;
  }
  total_out_bytes_.fetch_add(static_cast<int64_t>(size),
                             std::memory_order_acq_rel);
  Connection::OutSegment* raw = seg.release();
  raw->next = conn->incoming.load(std::memory_order_relaxed);
  while (!conn->incoming.compare_exchange_weak(raw->next, raw,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {
  }
  ScheduleFlush(conn);
  return true;
}

void Reactor::ScheduleFlush(const ConnPtr& conn) {
  if (conn->flush_armed.exchange(true, std::memory_order_acq_rel)) return;
  ScheduleRun(conn);
}

void Reactor::ScheduleRun(const ConnPtr& conn) {
  IoThread& t = *threads_[conn->owner];
  if (tl_io_thread == &t) {
    PushRunQueue(t, conn);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(t.mu);
    t.pending_run.push_back(conn);
  }
  Wake(t);
}

void Reactor::PauseRead(const ConnPtr& conn) {
  conn->want_pause.store(true, std::memory_order_release);
}

void Reactor::ResumeRead(const ConnPtr& conn) {
  conn->want_pause.store(false, std::memory_order_release);
  // Buffered frames (decoded bytes that arrived before the pause) must be
  // dispatched even if the socket never becomes readable again.
  ScheduleRun(conn);
}

void Reactor::RequestService(const ConnPtr& conn) {
  IoThread& t = *threads_[conn->owner];
  APCM_CHECK(tl_io_thread == &t);  // owner-thread-only API
  if (conn->in_service) return;
  conn->in_service = true;
  t.service.push_back(conn);
}

void Reactor::Doom(const ConnPtr& conn, CloseReason reason) {
  bool expected = false;
  if (!conn->doomed_.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
    return;
  }
  conn->close_reason.store(static_cast<int>(reason),
                           std::memory_order_release);
  ScheduleRun(conn);
}

// ---------------------------------------------------------------------------
// Owner-thread event loop
// ---------------------------------------------------------------------------

void Reactor::PushRunQueue(IoThread& t, const ConnPtr& conn) {
  if (conn->in_run_queue) return;
  conn->in_run_queue = true;
  t.run_queue.push_back(conn);
}

void Reactor::Loop(IoThread& t) {
  tl_io_thread = &t;
  std::vector<epoll_event> events(kMaxEpollEvents);
  while (true) {
    const Phase phase = phase_.load(std::memory_order_acquire);

    // Drain acknowledgement: from this point on, this pass (and every later
    // one) reads `phase` >= kDraining and will not dispatch another frame.
    if (phase != Phase::kRunning && !t.drain_acked) {
      std::lock_guard<std::mutex> lock(lifecycle_mu_);
      t.drain_acked = true;
      lifecycle_cv_.notify_all();
    }

    int timeout = kIdleTimeoutMs;
    if (!t.run_queue.empty() || t.accept_pending) timeout = 0;
    if (phase == Phase::kStopping) timeout = std::min(timeout, 5);

    int n = ::epoll_wait(t.epoll_fd, events.data(), kMaxEpollEvents, timeout);
    if (options_.metrics != nullptr && options_.metrics->wakeups != nullptr) {
      options_.metrics->wakeups->Increment();
    }
    APCM_FAILPOINT_INJECT("net.reactor.wakeup", {
      // A spurious wakeup: treat this pass as woken with nothing to do and
      // count it. The loop below naturally handles n == 0.
      if (options_.metrics != nullptr &&
          options_.metrics->spurious_wakeups != nullptr) {
        options_.metrics->spurious_wakeups->Increment();
      }
    });
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — only possible during teardown
    }

    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<size_t>(i)];
      if (ev.data.u64 == kWakeTag) {
        uint64_t buf;
        while (::read(t.wake_fd, &buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (ev.data.u64 == kListenTag) {
        t.accept_pending = true;
        continue;
      }
      // Connection events only set readiness flags here; all I/O (and any
      // teardown) happens in run-queue order below, so a pointer seen in
      // this batch can never dangle.
      auto* conn = static_cast<Connection*>(ev.data.ptr);
      auto it = t.conns.find(conn->fd);
      if (it == t.conns.end()) continue;
      if (ev.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        conn->read_ready = true;
      }
      if (ev.events & EPOLLOUT) conn->write_ready = true;
      PushRunQueue(t, it->second);
    }

    if (t.accept_pending && phase == Phase::kRunning) AcceptPass(t);

    // Cross-thread handoffs: connections to register (fallback accept,
    // AdoptConnected) and run requests (flush / doom / resume) from
    // producer threads. Registration goes first: a run request can only
    // name a connection whose handoff was posted before it.
    {
      std::vector<ConnPtr> runs;
      std::vector<ConnPtr> adopted;
      {
        std::lock_guard<std::mutex> lock(t.mu);
        runs.swap(t.pending_run);
        adopted.swap(t.adopted);
      }
      for (const auto& conn : adopted) {
        if (phase == Phase::kRunning) {
          Register(t, conn);
        } else {
          DropUnregistered(*conn);
        }
      }
      for (const auto& conn : runs) PushRunQueue(t, conn);
    }

    APCM_FAILPOINT_INJECT("net.reactor.readable", {
      // Spurious readability: mark every connection readable with no bytes
      // behind it, forcing the EAGAIN-after-readable path through recv.
      for (auto& [fd, conn] : t.conns) {
        conn->read_ready = true;
        PushRunQueue(t, conn);
      }
    });

    // Service this pass's run queue. Entries re-queued during the pass
    // (read-budget fairness, new enqueues) wait for the next pass so fresh
    // epoll events interleave — timeout drops to 0 while work remains.
    size_t budget = t.run_queue.size();
    while (budget-- > 0 && !t.run_queue.empty()) {
      ConnPtr conn = t.run_queue.front();
      t.run_queue.pop_front();
      conn->in_run_queue = false;
      RunConnection(t, conn, phase);
    }

    // Service ticks only run while running: during a drain the engine
    // flush in the owner's Stop must see a frozen publish queue (a parked
    // event was never ACKed, so dropping it at shutdown is within
    // contract).
    if (phase == Phase::kRunning) ServicePass(t);

    // Stalled-write re-probe (every phase — Stop's drain needs it too):
    // entries are timestamp-ordered, so only the expired prefix is scanned.
    if (!t.stalled.empty()) {
      const int64_t now = SteadyNowMs();
      while (!t.stalled.empty() &&
             now - t.stalled.front().second >= kWriteProbeMs) {
        ConnPtr conn = std::move(t.stalled.front().first);
        t.stalled.pop_front();
        conn->in_stalled = false;
        if (conn->fd < 0 || conn->doomed()) continue;
        if (!conn->write_ready) {
          conn->write_ready = true;
          PushRunQueue(t, conn);
        }
      }
    }

    if (phase == Phase::kStopping) {
      const bool deadline_passed =
          SteadyNowMs() >= stop_deadline_ms_.load(std::memory_order_acquire);
      bool pending = false;
      for (auto& [fd, conn] : t.conns) {
        CollectIncoming(*conn);
        if (!conn->drain.empty()) {
          pending = true;
          if (!deadline_passed) PushRunQueue(t, conn);
        }
      }
      if (!pending || deadline_passed) {
        while (!t.conns.empty()) {
          ConnPtr conn = t.conns.begin()->second;
          CloseNow(t, conn,
                   conn->doomed()
                       ? static_cast<CloseReason>(
                             conn->close_reason.load(std::memory_order_acquire))
                       : CloseReason::kShutdown);
        }
        break;
      }
    }
  }
  tl_io_thread = nullptr;
}

void Reactor::AcceptPass(IoThread& t) {
  for (int i = 0; i < kAcceptBatch; ++i) {
    bool injected = false;
    APCM_FAILPOINT_INJECT("net.reactor.accept", injected = true);
    if (injected) {
      // Simulated EMFILE: abandon this accept round. The listen fd is
      // level-triggered, so a still-pending backlog re-reports next pass.
      return;
    }
    int fd = InstrumentedAccept(t.listen_fd);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        t.accept_pending = false;
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EMFILE/ENFILE or similar: retry next pass rather than spinning.
      return;
    }
    if (reuseport_active_ || options_.io_threads == 1) {
      Register(t, NewConnection(fd, t.index));
      continue;
    }
    // Fallback accept sharding: thread 0 owns the only listen socket and
    // deals accepted fds round-robin across the pool.
    size_t target = next_adopt_.fetch_add(1, std::memory_order_relaxed) %
                    static_cast<size_t>(options_.io_threads);
    if (target == t.index) {
      Register(t, NewConnection(fd, t.index));
    } else {
      IoThread& peer = *threads_[target];
      {
        std::lock_guard<std::mutex> lock(peer.mu);
        peer.adopted.push_back(NewConnection(fd, target));
      }
      Wake(peer);
    }
  }
}

Reactor::ConnPtr Reactor::NewConnection(int fd, size_t owner) {
  ConnPtr conn(new Connection(options_.max_frame_bytes));
  conn->id_ = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->fd = fd;
  conn->owner = owner;
  return conn;
}

void Reactor::Register(IoThread& t, const ConnPtr& conn) {
  const int fd = conn->fd;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.ptr = conn.get();
  const bool registered = ::epoll_ctl(t.epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
  t.conns.emplace(fd, conn);
  connections_.fetch_add(1, std::memory_order_relaxed);
  handler_->OnAccept(conn);
  if (!registered) {
    // The handler saw the connection, so it also sees the close; an
    // adopted link's owner learns of the failure this way.
    CloseNow(t, conn, CloseReason::kWriteError);
    return;
  }
  // Bytes may have landed between accept and epoll registration; ET would
  // have reported that edge at ADD time, but probing once is cheaper to
  // reason about than relying on it.
  conn->read_ready = true;
  PushRunQueue(t, conn);
}

void Reactor::DropUnregistered(Connection& conn) {
  ::close(conn.fd);
  conn.fd = -1;
  conn.doomed_.store(true, std::memory_order_release);
  ReclaimOutbox(conn);
}

void Reactor::ReclaimOutbox(Connection& conn) {
  CollectIncoming(conn);
  int64_t dropped = 0;
  bool first = true;
  for (const auto& seg : conn.drain) {
    dropped += static_cast<int64_t>(seg->data.size() -
                                    (first ? conn.front_written : 0));
    first = false;
    if (seg->traced) handler_->OnTracedFrameAbandoned(seg->event_id);
  }
  conn.drain.clear();
  conn.front_written = 0;
  conn.out_bytes.store(0, std::memory_order_release);
  if (dropped > 0) {
    total_out_bytes_.fetch_sub(dropped, std::memory_order_acq_rel);
  }
}

void Reactor::RunConnection(IoThread& t, const ConnPtr& conn, Phase phase) {
  if (conn->fd < 0) {
    // Closed earlier, but a producer raced a segment onto the stack between
    // the doom check in Enqueue and the close — settle it now so
    // AllWritesFlushed converges and the trace is abandoned exactly once.
    ReclaimOutbox(*conn);
    return;
  }
  if (conn->doomed()) {
    CloseNow(t, conn,
             static_cast<CloseReason>(
                 conn->close_reason.load(std::memory_order_acquire)));
    return;
  }
  if (phase == Phase::kRunning &&
      !conn->want_pause.load(std::memory_order_acquire)) {
    // Dispatch frames buffered before a pause first, then pull new bytes.
    DrainDecoder(conn);
    if (!conn->doomed() && conn->read_ready &&
        !conn->want_pause.load(std::memory_order_acquire)) {
      ReadConnection(t, conn);
    }
  }
  if (conn->fd < 0) return;
  if (conn->doomed()) {
    CloseNow(t, conn,
             static_cast<CloseReason>(
                 conn->close_reason.load(std::memory_order_acquire)));
    return;
  }
  Flush(t, conn);
  if (conn->fd >= 0 && conn->doomed()) {
    CloseNow(t, conn,
             static_cast<CloseReason>(
                 conn->close_reason.load(std::memory_order_acquire)));
  }
}

void Reactor::ReadConnection(IoThread& t, const ConnPtr& conn) {
  char buf[16384];
  size_t budget = kReadBudgetBytes;
  while (budget > 0 && !conn->doomed() &&
         !conn->want_pause.load(std::memory_order_acquire)) {
    ssize_t n = InstrumentedRecv(IoSide::kServer, conn->fd, buf,
                                 std::min(sizeof(buf), budget), 0);
    if (n > 0) {
      budget -= static_cast<size_t>(n);
      if (options_.metrics != nullptr &&
          options_.metrics->bytes_in != nullptr) {
        options_.metrics->bytes_in->Increment(static_cast<uint64_t>(n));
      }
      conn->decoder.Append(buf, static_cast<size_t>(n));
      DrainDecoder(conn);
      continue;
    }
    if (n == 0) {
      Doom(conn, CloseReason::kPeerClosed);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      conn->read_ready = false;  // the only place the ET read level clears
      return;
    }
    Doom(conn, CloseReason::kPeerClosed);
    return;
  }
  // Budget exhausted (or paused mid-stream) with the socket possibly still
  // readable: stay scheduled so the remainder is read next pass, after the
  // rest of the run queue had its turn.
  if (!conn->doomed() && conn->read_ready) PushRunQueue(t, conn);
}

void Reactor::DrainDecoder(const ConnPtr& conn) {
  while (!conn->doomed() &&
         !conn->want_pause.load(std::memory_order_acquire)) {
    StatusOr<std::optional<Frame>> next = conn->decoder.Next();
    if (!next.ok()) {
      Doom(conn, CloseReason::kProtocolError);
      return;
    }
    if (!next->has_value()) return;
    handler_->OnFrame(conn, std::move(**next));
  }
}

void Reactor::ServicePass(IoThread& t) {
  if (t.service.empty()) return;
  std::vector<ConnPtr> keep;
  keep.reserve(t.service.size());
  for (const ConnPtr& conn : t.service) {
    if (conn->fd < 0 || conn->doomed()) {
      conn->in_service = false;
      continue;
    }
    if (handler_->OnService(conn)) {
      conn->in_service = false;
    } else {
      keep.push_back(conn);
    }
  }
  t.service.swap(keep);
}

void Reactor::CollectIncoming(Connection& conn) {
  Connection::OutSegment* head =
      conn.incoming.exchange(nullptr, std::memory_order_acquire);
  if (head == nullptr) return;
  // The Treiber stack yields newest-first; reverse to restore the FIFO each
  // producer observed (per-producer order is all the protocol needs — ACK
  // and MATCH streams are each produced in sequence by one thread at a
  // time, under the engine's processing lock or the dispatch path).
  Connection::OutSegment* reversed = nullptr;
  while (head != nullptr) {
    Connection::OutSegment* next = head->next;
    head->next = reversed;
    reversed = head;
    head = next;
  }
  while (reversed != nullptr) {
    Connection::OutSegment* next = reversed->next;
    reversed->next = nullptr;
    conn.drain.emplace_back(reversed);
    reversed = next;
  }
}

void Reactor::Flush(IoThread& t, const ConnPtr& conn) {
  conn->flush_armed.store(false, std::memory_order_release);
  CollectIncoming(*conn);
  if (conn->drain.empty() || !conn->write_ready || conn->fd < 0) return;

  uint64_t frames_written = 0;
  while (!conn->drain.empty()) {
    struct iovec iov[kMaxIovecs];
    int cnt = 0;
    size_t attempted = 0;
    size_t offset = conn->front_written;
    for (const auto& seg : conn->drain) {
      if (cnt == kMaxIovecs) break;
      iov[cnt].iov_base = const_cast<char*>(seg->data.data() + offset);
      iov[cnt].iov_len = seg->data.size() - offset;
      attempted += iov[cnt].iov_len;
      ++cnt;
      offset = 0;
    }
    ssize_t n = InstrumentedWritev(IoSide::kServer, conn->fd, iov, cnt);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        conn->write_ready = false;  // a real EPOLLOUT edge should follow
        // ... but belt-and-braces: schedule a bounded re-probe in case the
        // edge never arrives (lost across adoption, or the EAGAIN was
        // injected by a failpoint while the socket stayed writable).
        if (!conn->in_stalled) {
          conn->in_stalled = true;
          t.stalled.emplace_back(conn, SteadyNowMs());
        }
        break;
      }
      Doom(conn, CloseReason::kWriteError);
      return;
    }
    if (options_.metrics != nullptr) {
      if (options_.metrics->batched_writes != nullptr) {
        options_.metrics->batched_writes->Increment();
      }
      if (options_.metrics->bytes_out != nullptr) {
        options_.metrics->bytes_out->Increment(static_cast<uint64_t>(n));
      }
    }
    conn->out_bytes.fetch_sub(static_cast<size_t>(n),
                              std::memory_order_acq_rel);
    total_out_bytes_.fetch_sub(n, std::memory_order_acq_rel);
    size_t remaining = static_cast<size_t>(n);
    while (remaining > 0) {
      Connection::OutSegment& front = *conn->drain.front();
      const size_t left = front.data.size() - conn->front_written;
      if (remaining >= left) {
        remaining -= left;
        conn->front_written = 0;
        if (front.traced) handler_->OnTracedFrameWritten(front.event_id);
        conn->drain.pop_front();
        ++frames_written;
      } else {
        conn->front_written += remaining;
        remaining = 0;
      }
    }
    // A short write (kernel buffer filled mid-gather, or the writev.short
    // failpoint clamped us) deliberately loops again: only a real EAGAIN
    // clears write_ready, because a short *success* generates no EPOLLOUT
    // edge and treating it as one would wedge the connection forever.
    (void)attempted;
  }
  if (frames_written > 0 && options_.metrics != nullptr &&
      options_.metrics->frames_per_wakeup != nullptr) {
    options_.metrics->frames_per_wakeup->Record(
        static_cast<int64_t>(frames_written));
  }
}

void Reactor::CloseNow(IoThread& t, const ConnPtr& conn, CloseReason reason) {
  if (conn->fd < 0) return;
  conn->doomed_.store(true, std::memory_order_release);
  if (reason != CloseReason::kShutdown) {
    // Best-effort: let already-queued frames (final ERROR, trailing
    // MATCHes) reach a peer that is still reading.
    conn->flush_armed.store(false, std::memory_order_release);
    CollectIncoming(*conn);
    if (conn->write_ready && !conn->drain.empty()) {
      struct iovec iov[kMaxIovecs];
      int cnt = 0;
      size_t offset = conn->front_written;
      for (const auto& seg : conn->drain) {
        if (cnt == kMaxIovecs) break;
        iov[cnt].iov_base = const_cast<char*>(seg->data.data() + offset);
        iov[cnt].iov_len = seg->data.size() - offset;
        ++cnt;
        offset = 0;
      }
      ssize_t n = InstrumentedWritev(IoSide::kServer, conn->fd, iov, cnt);
      if (n > 0) {
        size_t remaining = static_cast<size_t>(n);
        conn->out_bytes.fetch_sub(remaining, std::memory_order_acq_rel);
        total_out_bytes_.fetch_sub(n, std::memory_order_acq_rel);
        while (remaining > 0 && !conn->drain.empty()) {
          Connection::OutSegment& front = *conn->drain.front();
          const size_t left = front.data.size() - conn->front_written;
          if (remaining >= left) {
            remaining -= left;
            conn->front_written = 0;
            if (front.traced) handler_->OnTracedFrameWritten(front.event_id);
            conn->drain.pop_front();
          } else {
            conn->front_written += remaining;
            remaining = 0;
          }
        }
      }
    }
  }
  // Unsent frames are accounted off the global outstanding counter and
  // their traces abandoned — nobody will ever write them.
  ReclaimOutbox(*conn);
  ::epoll_ctl(t.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  t.conns.erase(conn->fd);
  conn->fd = -1;
  connections_.fetch_sub(1, std::memory_order_relaxed);
  handler_->OnConnectionClosed(conn, reason);
}

}  // namespace apcm::net
