#ifndef APCM_NET_SERVER_H_
#define APCM_NET_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/be/catalog.h"
#include "src/be/parser.h"
#include "src/be/string_dictionary.h"
#include "src/engine/engine.h"
#include "src/net/frame.h"
#include "src/net/reactor.h"

namespace apcm::net {

struct EventServerOptions {
  /// Configuration of the embedded StreamEngine. `backpressure` is forced
  /// to BackpressurePolicy::kReject — the server translates rejection into
  /// socket-level backpressure (see DESIGN.md §3.8) and must never let a
  /// blocking publish wedge the I/O loop.
  engine::EngineOptions engine;
  /// TCP port to bind on 127.0.0.1 (0 = kernel-assigned; read it back with
  /// port()).
  int port = 0;
  /// Per-connection bound on buffered outgoing bytes. A subscriber that
  /// reads slower than its matches arrive crosses this bound and is
  /// disconnected (slow-consumer policy: drop the consumer, never block the
  /// matching path or grow without bound).
  size_t max_write_queue_bytes = 4u << 20;
  /// Per-frame payload cap enforced on incoming frames.
  size_t max_frame_bytes = kMaxPayloadBytes;
  /// I/O threads of the epoll reactor that serves connections (1..64;
  /// DESIGN.md §3.14).
  int io_threads = 1;
  /// Shared-nothing accept via one SO_REUSEPORT listening socket per I/O
  /// thread. When disabled (or unavailable on the host) thread 0 accepts
  /// and deals connections round-robin.
  bool reuseport_accept = true;
  /// Attribute names pre-registered into the server's catalog at Start(), in
  /// id order (name k gets AttributeId k, default domain). Names not listed
  /// here are still registered on first use by subscription text — fine for
  /// a standalone server, where one catalog sees every expression. A cluster
  /// of servers MUST share this schema: each backend parses only its own
  /// partitions' subscriptions, so on-demand registration would assign
  /// name→id maps that diverge across backends while published events carry
  /// raw binary attribute ids (DESIGN.md §3.13).
  std::vector<std::string> attributes;
};

/// Structural validation of EventServerOptions (io_threads range, byte
/// bounds, embedded engine options). Start() refuses invalid options with
/// the same status.
Status ValidateEventServerOptions(const EventServerOptions& options);

/// TCP ingestion server for remote publish/subscribe over the frame
/// protocol (frame.h): clients SUBSCRIBE with expression text and a
/// client-chosen id, PUBLISH serialized events, and receive MATCH
/// notifications routed to the connection that registered each matching
/// subscription.
///
/// Architecture (DESIGN.md §3.8, §3.14): the edge-triggered epoll Reactor
/// (reactor.h) owns sockets, framing, and write batching across
/// `EventServerOptions::io_threads` I/O threads, and this class is its
/// Handler: it supplies the protocol state machine (publish admission,
/// subscription routing, parked-publish retry) and one pump thread that
/// drains the engine whenever events are queued, so matching never
/// monopolizes I/O threads. Engine backpressure propagates to the socket
/// layer: a publish that hits BackpressurePolicy::kReject parks the event on
/// its connection, pauses reading that connection (the kernel's TCP window
/// then pushes back on the remote publisher), and resumes once the engine
/// has drained — the parked event is re-tried and acknowledged before any
/// later frame from that connection is processed, so an ACK is a durable
/// admission promise.
///
/// Graceful Stop(): stops accepting and reading, drains the engine
/// (Flush — every accepted event is matched and its notifications are
/// queued), flushes every write queue, then closes. The destructor calls
/// Stop().
///
/// Observability: the server registers apcm_net_* counters/gauges in the
/// engine's MetricsRegistry, so they are scraped by the same /metrics
/// admin endpoint (enable it via options.engine.admin_port).
class EventServer : private Reactor::Handler {
 public:
  explicit EventServer(EventServerOptions options);
  ~EventServer();

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// Binds 127.0.0.1:port and launches the reactor and pump threads.
  /// InvalidArgument if already started or misconfigured, IOError on socket
  /// errors.
  Status Start();

  /// Drains and shuts down (idempotent; see class comment).
  void Stop();

  /// The bound port once Start succeeded (resolves port 0), else 0.
  int port() const { return port_; }

  /// The embedded engine (metrics registry, stats, admin port). Do not call
  /// Publish/Flush on it while the server is running — the server owns the
  /// publish path.
  engine::StreamEngine& engine() { return *engine_; }
  const engine::StreamEngine& engine() const { return *engine_; }

  /// Live connection count (the apcm_net_connections gauge).
  int64_t num_connections() const { return connections_->Value(); }

  /// True while running with accept sharding via SO_REUSEPORT (false under
  /// the single-acceptor fallback).
  bool reuseport_active() const {
    return reactor_ != nullptr && reactor_->reuseport_active();
  }

 private:
  /// A publish frame admitted from the wire but rejected by the engine
  /// queue; re-tried until accepted, then acknowledged. Carries the frame's
  /// ingress trace context so a retried event keeps its original read
  /// timestamp and client-chosen trace id.
  struct PendingPublish {
    uint64_t seq = 0;
    Event event;
    engine::IngressTrace ingress;
  };

  /// Where MATCH notifications for one engine subscription go. The ConnPtr
  /// pins the connection against teardown while a route still points at it.
  struct Route {
    Reactor::ConnPtr conn;
    uint64_t client_sub_id = 0;
  };

  /// Per-connection protocol state, owned via
  /// Reactor::Connection::user_data. Mutated only on the connection's owner
  /// I/O thread (OnFrame / OnService / OnConnectionClosed), except
  /// `follower`, which route_mu_ also guards with followers_.
  struct Session {
    std::optional<PendingPublish> pending;
    bool follower = false;
    /// client-chosen sub id -> engine subscription id.
    std::unordered_map<uint64_t, SubscriptionId> subs;
  };

  void PumpLoop();
  /// Signals the pump that an event was admitted (safe from any thread).
  void WakePump();
  /// Engine match callback: groups `matches` by subscribing connection and
  /// enqueues one MATCH frame per connection, then one PROGRESS frame per
  /// follower. Runs under the engine's processing lock (pump thread, or an
  /// I/O thread's inline round).
  void OnMatch(uint64_t event_id, const std::vector<SubscriptionId>& matches);

  // --- Reactor::Handler (every callback runs on the connection's owner I/O
  // thread) ---
  void OnAccept(const Reactor::ConnPtr& conn) override;
  void OnFrame(const Reactor::ConnPtr& conn, Frame frame) override;
  /// Re-tries the connection's parked publish; un-pauses it once the engine
  /// accepts.
  bool OnService(const Reactor::ConnPtr& conn) override;
  /// Removes the connection's engine subscriptions, routes, and follower
  /// registration.
  void OnConnectionClosed(const Reactor::ConnPtr& conn,
                          CloseReason reason) override;
  void OnTracedFrameWritten(uint64_t event_id) override;
  void OnTracedFrameAbandoned(uint64_t event_id) override;

  static Session* SessionOf(const Reactor::ConnPtr& conn) {
    return static_cast<Session*>(conn->user_data());
  }
  void HandlePublish(const Reactor::ConnPtr& conn, Frame frame);
  void HandleSubscribe(const Reactor::ConnPtr& conn, const Frame& frame);
  void HandleUnsubscribe(const Reactor::ConnPtr& conn, const Frame& frame);
  /// Registers `conn` as a PROGRESS follower (idempotent) and ACKs.
  void HandleFollow(const Reactor::ConnPtr& conn, const Frame& frame);
  /// Enqueues `frame` on `conn`, counting it when the reactor accepts it.
  void Send(const Reactor::ConnPtr& conn, const Frame& frame);
  void SendAck(const Reactor::ConnPtr& conn, uint64_t seq, uint64_t value);
  void SendError(const Reactor::ConnPtr& conn, uint64_t seq,
                 const Status& status);

  EventServerOptions options_;
  std::unique_ptr<engine::StreamEngine> engine_;

  /// Expression front-end for SUBSCRIBE frames. Subscribe / unsubscribe
  /// control operations (parser, catalog, engine subscription mutation)
  /// serialize under control_mu_, since any of N I/O threads may dispatch
  /// them.
  Catalog catalog_;
  StringDictionary strings_;
  Parser parser_{&catalog_, &strings_};
  std::mutex control_mu_;

  /// The I/O front-end (null before Start and after Stop). Instruments live
  /// in reactor_metrics_, registered once at construction so Stop/Start
  /// cycles never re-register.
  ReactorMetrics reactor_metrics_;
  std::unique_ptr<Reactor> reactor_;

  // Lifecycle (guarded by lifecycle_mu_).
  std::mutex lifecycle_mu_;
  bool started_ = false;
  int port_ = 0;
  std::thread pump_thread_;

  // Pump signalling.
  std::mutex pump_mu_;
  std::condition_variable pump_cv_;
  bool pump_stop_ = false;
  /// Set by WakePump, cleared by the pump before each round (pump_mu_).
  bool pump_wakeup_ = false;

  /// engine subscription id -> subscriber connection. Written by I/O
  /// threads (subscribe/unsubscribe/disconnect), read by the match callback.
  std::mutex route_mu_;
  std::unordered_map<SubscriptionId, Route> routes_;
  /// Connections that opted into PROGRESS watermarks (route_mu_). The match
  /// callback enqueues one PROGRESS per processed event to each, *after*
  /// that event's MATCH frames — a follower that is also a subscriber sees
  /// MATCH(e) before PROGRESS(e) on its stream.
  std::vector<Reactor::ConnPtr> followers_;

  // Registry-owned instruments (registered into engine_->metrics_registry()
  // at construction; the registry outlives both server threads).
  Gauge* connections_ = nullptr;
  Counter* frames_in_ = nullptr;
  Counter* frames_out_ = nullptr;
  Counter* bytes_in_ = nullptr;
  Counter* bytes_out_ = nullptr;
  Counter* backpressure_events_ = nullptr;
  Counter* slow_consumer_disconnects_ = nullptr;
};

}  // namespace apcm::net

#endif  // APCM_NET_SERVER_H_
