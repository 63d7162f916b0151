#ifndef APCM_NET_REACTOR_H_
#define APCM_NET_REACTOR_H_

/// \file
/// Edge-triggered epoll reactor for massive connection counts (DESIGN.md
/// §3.14). The reactor owns everything socket-shaped — accepting, reading,
/// frame decoding, write batching, connection teardown — across N I/O
/// threads, and surfaces decoded frames to a protocol handler. It knows
/// nothing about the engine or the router: `net::EventServer` composes it
/// with the engine pump, and `cluster::ClusterRouter` reuses it for its
/// client connections and its backend links, so both tiers share one
/// connection-scale I/O path.
///
/// Architecture:
///   * N I/O threads, shared-nothing: each owns one epoll instance, one
///     eventfd wakeup, and the connections it accepted or adopted. A
///     connection is serviced only by its owner thread; cross-thread
///     requests (enqueue, pause, resume, doom) are lock-free or
///     briefly-locked handoffs that wake the owner.
///   * Accept sharding: with `reuseport` (default) every thread binds its
///     own SO_REUSEPORT listening socket and the kernel spreads incoming
///     connects across threads. Where SO_REUSEPORT is unavailable (or
///     disabled for tests) thread 0 owns the single listening socket and
///     hands accepted fds to the other threads round-robin.
///   * Edge-triggered readiness: connections register EPOLLIN|EPOLLOUT|
///     EPOLLET once; the loop tracks `read_ready`/`write_ready` level state
///     itself and never rearms. A read pass drains to EAGAIN or a fairness
///     budget (budget exhaustion keeps the connection on the run queue, so
///     one firehose cannot starve the herd).
///   * Per-connection outbox: producers (any thread) push encoded frames
///     onto a lock-free MPSC segment stack; the owner thread collects the
///     stack with one exchange, restores FIFO order, and drains it with one
///     writev per wakeup (frame batching/coalescing — an idle-herd
///     broadcast costs one syscall per awake connection, not one per
///     frame). Overflow of the configured bound dooms the connection
///     (slow-consumer policy).
///
/// Failpoint seams (chaos suite): `net.reactor.accept` (accept returns
/// EMFILE), `net.reactor.wakeup` (spurious loop wakeups), `net.reactor.
/// readable` (spurious readable — recv meets EAGAIN), `net.reactor.writev.
/// short` (torn gathered writes), plus the `net.server.*` recv/send family
/// consulted by the shared syscall wrappers (net_io.h).
///
/// Lifecycle: Start() → [traffic] → BeginDrain() (stop accepting and
/// reading; in-flight writes keep flowing; returns once every thread
/// acknowledged, so no new frame can reach the handler afterwards) →
/// Stop() (flush every outbox until empty or deadline, close everything,
/// join). A Reactor is single-use: construct a fresh one per Start.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/net/frame.h"

namespace apcm::net {

/// Why a connection was closed, passed to Handler::OnConnectionClosed.
enum class CloseReason : int {
  kPeerClosed = 0,     ///< orderly remote close or broken pipe
  kProtocolError = 1,  ///< framing error (sticky decoder failure)
  kSlowConsumer = 2,   ///< outbox overflowed max_write_queue_bytes
  kWriteError = 3,     ///< fatal socket write error
  kHandlerRequest = 4, ///< the protocol layer asked (Doom)
  kShutdown = 5,       ///< reactor stopped with the connection open
};

std::string_view CloseReasonName(CloseReason reason);

/// Reactor-owned instruments. The owner (EventServer / ClusterRouter)
/// registers these once per MetricsRegistry and hands the struct to every
/// Reactor it constructs, so stop/start cycles never re-register names.
/// Null members are simply not recorded.
struct ReactorMetrics {
  Gauge* io_threads = nullptr;           ///< apcm_net_io_threads
  Counter* wakeups = nullptr;            ///< apcm_net_wakeups_total
  ShardedHistogram* frames_per_wakeup = nullptr;  ///< apcm_net_frames_per_wakeup
  Counter* batched_writes = nullptr;     ///< apcm_net_batched_writes_total
  /// Byte counters are NOT registered by Register(): the owner wires its
  /// existing apcm_net_bytes_* series in, so the established metric names
  /// keep reporting regardless of which I/O path serves the traffic.
  Counter* bytes_in = nullptr;
  Counter* bytes_out = nullptr;
  Counter* spurious_wakeups = nullptr;   ///< apcm_net_spurious_wakeups_total

  /// Registers the reactor-specific instrument set into `registry`
  /// (idempotent per registry lifetime only — call once, at owner
  /// construction).
  void Register(MetricsRegistry& registry);
};

struct ReactorOptions {
  /// I/O threads (1..64). Each thread owns an epoll set and the connections
  /// it accepted.
  int io_threads = 1;
  /// TCP port to bind on 127.0.0.1 (0 = kernel-assigned; read back with
  /// port()).
  int port = 0;
  /// Shared-nothing accept: one SO_REUSEPORT listening socket per thread.
  /// When false (or when the kernel rejects SO_REUSEPORT) thread 0 accepts
  /// and distributes connections round-robin.
  bool reuseport = true;
  /// Per-connection bound on buffered outgoing bytes; crossing it dooms the
  /// connection (CloseReason::kSlowConsumer).
  size_t max_write_queue_bytes = 4u << 20;
  /// Per-frame payload cap enforced by each connection's decoder.
  size_t max_frame_bytes = kMaxPayloadBytes;
  int listen_backlog = 1024;
  /// Instrument block (see ReactorMetrics); may be null in tests.
  const ReactorMetrics* metrics = nullptr;
};

class Reactor {
 public:
  class Connection;
  using ConnPtr = std::shared_ptr<Connection>;

  /// Protocol layer callbacks. All of them run on the connection's owner
  /// I/O thread except none — i.e. every callback is owner-thread, so the
  /// handler may touch per-connection protocol state without locks (state
  /// shared across connections still needs its own synchronization when
  /// io_threads > 1).
  class Handler {
   public:
    virtual ~Handler() = default;
    /// A connection was accepted (or adopted) and registered.
    virtual void OnAccept(const ConnPtr& conn) = 0;
    /// One complete frame decoded from the connection.
    virtual void OnFrame(const ConnPtr& conn, Frame frame) = 0;
    /// Periodic service tick for a connection that called RequestService
    /// (the parked-publish retry seam). Return true to stop being ticked.
    virtual bool OnService(const ConnPtr& /*conn*/) { return true; }
    /// The connection is being torn down: its fd is still open (a final
    /// best-effort flush already ran) but no further I/O will happen. The
    /// handler must drop its references to `conn` (routes, sessions).
    virtual void OnConnectionClosed(const ConnPtr& conn,
                                    CloseReason reason) = 0;
    /// A traced frame's last byte reached the socket (write-stage stamp
    /// seam), or was dropped at teardown without ever being written.
    virtual void OnTracedFrameWritten(uint64_t /*event_id*/) {}
    virtual void OnTracedFrameAbandoned(uint64_t /*event_id*/) {}
  };

  /// One accepted or adopted connection. Opaque to callers except for
  /// `user_data`, which the protocol layer may point at its per-connection
  /// session state (set it in OnAccept — or pass it to AdoptConnected — and
  /// free it in OnConnectionClosed).
  class Connection {
   public:
    uint64_t id() const { return id_; }
    void set_user_data(void* p) { user_data_ = p; }
    void* user_data() const { return user_data_; }
    /// True once the connection is condemned; Enqueue will refuse.
    bool doomed() const { return doomed_.load(std::memory_order_relaxed); }

    ~Connection();  ///< frees any segments still on the incoming stack

   private:
    friend class Reactor;

    /// One encoded frame in the outbox. Producers link segments onto
    /// `incoming` (a lock-free LIFO); the owner thread reverses batches
    /// into `drain` (FIFO) and gathers them into writev calls.
    struct OutSegment {
      OutSegment* next = nullptr;
      std::string data;
      bool traced = false;
      uint64_t event_id = 0;
    };

    explicit Connection(size_t max_frame_bytes) : decoder(max_frame_bytes) {}

    uint64_t id_ = 0;
    int fd = -1;
    size_t owner = 0;  ///< owning I/O thread index
    void* user_data_ = nullptr;

    FrameDecoder decoder;

    // --- producer-shared state ---
    std::atomic<OutSegment*> incoming{nullptr};
    std::atomic<size_t> out_bytes{0};  ///< bound accounting (all segments)
    std::atomic<bool> flush_armed{false};
    std::atomic<bool> doomed_{false};
    std::atomic<int> close_reason{static_cast<int>(CloseReason::kPeerClosed)};
    /// Read/dispatch suspension flag, consulted by the owner thread between
    /// frames and before every recv; written by PauseRead/ResumeRead from
    /// any thread.
    std::atomic<bool> want_pause{false};

    // --- owner-thread state ---
    bool read_ready = false;   ///< ET level: kernel may have bytes
    bool write_ready = true;   ///< ET level: socket accepts bytes
    bool in_run_queue = false;
    bool in_service = false;   ///< subscribed to OnService ticks
    bool in_stalled = false;   ///< queued for a stalled-write re-probe
    std::deque<std::unique_ptr<OutSegment>> drain;
    size_t front_written = 0;  ///< bytes of drain.front() already sent
  };

  Reactor(ReactorOptions options, Handler* handler);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds the listening socket(s) and launches the I/O threads.
  Status Start();

  /// Phase 1 of shutdown: stop accepting and reading everywhere. Returns
  /// once every I/O thread acknowledged, i.e. once the last OnFrame has been
  /// delivered. Writes (and OnService/teardown callbacks) keep flowing.
  void BeginDrain();

  /// Phase 2: flush every outbox (until empty or `flush_deadline_ms`
  /// elapses), close every connection, join the threads. Idempotent.
  void Stop(int flush_deadline_ms = 3000);

  /// The bound port once Start succeeded (resolves port 0), else 0.
  int port() const { return port_; }

  /// True when REUSEPORT sharding is active (false = fallback accept).
  bool reuseport_active() const { return reuseport_active_; }

  /// Encodes `frame` into `conn`'s outbox and schedules a flush on the
  /// owner thread. Safe from any thread. Returns false when the frame was
  /// dropped (connection doomed, or the outbox bound tripped — in which
  /// case the connection is doomed as a slow consumer). `traced` frames
  /// surface OnTracedFrameWritten/-Abandoned exactly once; a false return
  /// means neither will fire and the caller keeps its trace reference.
  bool Enqueue(const ConnPtr& conn, const Frame& frame, bool traced = false,
               uint64_t event_id = 0);

  /// Suspends reading and frame dispatch for `conn`. Synchronous when
  /// called on the owner thread (no further OnFrame for this connection
  /// until resumed); asynchronous-but-prompt from other threads.
  void PauseRead(const ConnPtr& conn);

  /// Resumes reading and dispatch; buffered frames are dispatched first.
  void ResumeRead(const ConnPtr& conn);

  /// Subscribes `conn` to OnService ticks on its owner thread (parked
  /// publish retry). Owner thread only.
  void RequestService(const ConnPtr& conn);

  /// Condemns the connection: a final flush is attempted, then it is closed
  /// and OnConnectionClosed(reason) fires on the owner thread. Safe from
  /// any thread.
  void Doom(const ConnPtr& conn, CloseReason reason);

  /// Adopts an already-connected socket (an outbound dial) as a reactor
  /// connection on an I/O thread chosen round-robin. It registers through
  /// the same path as an accepted socket, so OnAccept fires for it too;
  /// `user_data` is set before any callback can see the connection, which
  /// lets the handler tell adopted links from accepted peers. Takes
  /// ownership of `fd` (closed on failure). FailedPrecondition unless the
  /// reactor is running. Safe from any thread.
  StatusOr<ConnPtr> AdoptConnected(int fd, void* user_data);

  /// Wakes every I/O thread (e.g. after an engine drain freed queue space,
  /// so parked publishes retry promptly).
  void WakeAll();

  /// Live connections across all threads.
  int64_t num_connections() const {
    return connections_.load(std::memory_order_relaxed);
  }

  /// True when every live connection's outbox is fully flushed.
  bool AllWritesFlushed() const;

 private:
  /// kRunning -> kDraining -> kStopping.
  enum class Phase : int { kRunning = 0, kDraining = 1, kStopping = 2 };

  struct IoThread {
    size_t index = 0;
    int epoll_fd = -1;
    int wake_fd = -1;    ///< eventfd
    int listen_fd = -1;  ///< own REUSEPORT socket, or -1
    std::thread thread;

    // Owner-only connection table (by fd) and scheduling queues.
    std::unordered_map<int, ConnPtr> conns;
    std::deque<ConnPtr> run_queue;
    std::vector<ConnPtr> service;   ///< OnService subscribers
    /// Connections whose flush met EAGAIN, with the stall timestamp
    /// (steady ms). The loop re-probes each after kWriteProbeMs: an
    /// EPOLLOUT edge only follows a transition through not-writable, and
    /// a lost edge (fd adoption races, an injected EAGAIN from the
    /// instrumented wrappers) would otherwise wedge the outbox forever.
    /// A still-full socket re-stalls at the cost of one syscall per
    /// interval, so the probe is O(stalled connections), not O(herd).
    std::deque<std::pair<ConnPtr, int64_t>> stalled;
    bool accept_pending = false;    ///< backlog may be non-empty

    // Cross-thread handoff (guarded by mu).
    std::mutex mu;
    std::vector<ConnPtr> pending_run;  ///< flush / doom / resume handoff
    /// Connections to register on this thread: fallback-accepted sockets
    /// and AdoptConnected links.
    std::vector<ConnPtr> adopted;

    bool drain_acked = false;  ///< guarded by the reactor's lifecycle_mu_
  };

  void Loop(IoThread& t);
  void AcceptPass(IoThread& t);
  /// A new connection object for `fd`, owned by I/O thread `owner`.
  ConnPtr NewConnection(int fd, size_t owner);
  /// Registers `conn` with its owner thread `t` (owner thread only) and
  /// fires OnAccept.
  void Register(IoThread& t, const ConnPtr& conn);
  /// Closes a handed-off connection that never got registered (the
  /// reactor stopped first) and settles its outbox accounting.
  void DropUnregistered(Connection& conn);
  /// Services one run-queue entry: teardown, read+dispatch, flush.
  void RunConnection(IoThread& t, const ConnPtr& conn, Phase phase);
  void ReadConnection(IoThread& t, const ConnPtr& conn);
  void DrainDecoder(const ConnPtr& conn);
  void ServicePass(IoThread& t);
  /// Gathers and writes the outbox; short writes loop again — only a real
  /// EAGAIN clears write_ready (a failpoint-clamped writev must not wedge
  /// the connection, since no EPOLLOUT edge will follow it).
  void Flush(IoThread& t, const ConnPtr& conn);
  /// Moves incoming segments into the FIFO drain (owner thread).
  void CollectIncoming(Connection& conn);
  /// Drops every queued segment, abandoning traces and settling the
  /// outstanding-bytes accounting. Used at close and for segments that
  /// raced onto a connection's stack after its teardown.
  void ReclaimOutbox(Connection& conn);
  void ScheduleFlush(const ConnPtr& conn);
  /// Cross-thread request to run `conn` on its owner thread.
  void ScheduleRun(const ConnPtr& conn);
  void CloseNow(IoThread& t, const ConnPtr& conn, CloseReason reason);
  void Wake(IoThread& t);
  void PushRunQueue(IoThread& t, const ConnPtr& conn);
  Status BindListeners();
  StatusOr<int> MakeListenSocket(int port, bool reuseport);

  const ReactorOptions options_;
  Handler* const handler_;

  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<Phase> phase_{Phase::kRunning};
  std::atomic<int64_t> stop_deadline_ms_{0};  ///< steady-clock ms

  std::vector<std::unique_ptr<IoThread>> threads_;
  int fallback_listen_fd_ = -1;  ///< single-acceptor mode (thread 0)
  bool reuseport_active_ = false;
  int port_ = 0;
  // Connection ids start at 1: id 0 is a reserved "no connection" sentinel
  // for handler layers (the cluster router's publish origin uses it).
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> next_adopt_{0};  ///< handoff round-robin cursor
  std::atomic<int64_t> connections_{0};
  /// Unflushed outbox bytes across every connection (AllWritesFlushed and
  /// the Stop deadline loop read this without touching owner-only state).
  std::atomic<int64_t> total_out_bytes_{0};
};

}  // namespace apcm::net

#endif  // APCM_NET_REACTOR_H_
