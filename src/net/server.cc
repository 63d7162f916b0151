#include "src/net/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/base/failpoint.h"
#include "src/base/logging.h"
#include "src/base/macros.h"

namespace apcm::net {

namespace {

/// How long Stop() keeps flushing write queues before giving up on
/// unresponsive peers.
constexpr int kStopFlushDeadlineMs = 3000;

}  // namespace

Status ValidateEventServerOptions(const EventServerOptions& options) {
  if (options.io_threads < 1 || options.io_threads > 64) {
    return Status::InvalidArgument("io_threads must be in [1, 64], got " +
                                   std::to_string(options.io_threads));
  }
  if (options.max_frame_bytes == 0 ||
      options.max_frame_bytes > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "max_frame_bytes must be in (0, " + std::to_string(kMaxPayloadBytes) +
        "], got " + std::to_string(options.max_frame_bytes));
  }
  if (options.max_write_queue_bytes == 0) {
    return Status::InvalidArgument("max_write_queue_bytes must be positive");
  }
  return engine::ValidateEngineOptions(options.engine);
}

EventServer::EventServer(EventServerOptions options)
    : options_(std::move(options)) {
  // The server must never block inside Publish: rejection is the signal
  // that propagates to the socket layer.
  options_.engine.backpressure = engine::BackpressurePolicy::kReject;
  engine_ = std::make_unique<engine::StreamEngine>(
      options_.engine,
      [this](uint64_t event_id, const std::vector<SubscriptionId>& matches) {
        OnMatch(event_id, matches);
      });
  MetricsRegistry& registry = engine_->metrics_registry();
  connections_ =
      registry.AddGauge("apcm_net_connections", "Live client connections.");
  frames_in_ = registry.AddCounter("apcm_net_frames_in_total",
                                   "Frames decoded from client connections.");
  frames_out_ = registry.AddCounter(
      "apcm_net_frames_out_total",
      "Frames serialized into connection write queues.");
  bytes_in_ = registry.AddCounter("apcm_net_bytes_in_total",
                                  "Bytes read from client connections.");
  bytes_out_ = registry.AddCounter("apcm_net_bytes_out_total",
                                   "Bytes written to client connections.");
  backpressure_events_ = registry.AddCounter(
      "apcm_net_backpressure_events_total",
      "Connections paused because a publish hit engine backpressure.");
  slow_consumer_disconnects_ = registry.AddCounter(
      "apcm_net_slow_consumer_disconnects_total",
      "Connections dropped because their write queue overflowed.");
  reactor_metrics_.Register(registry);
  // The reactor reports socket traffic into the server's byte series.
  reactor_metrics_.bytes_in = bytes_in_;
  reactor_metrics_.bytes_out = bytes_out_;
}

EventServer::~EventServer() { Stop(); }

Status EventServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    return Status::InvalidArgument("event server already started");
  }
  APCM_RETURN_NOT_OK(ValidateEventServerOptions(options_));
  for (const std::string& name : options_.attributes) {
    catalog_.GetOrAddAttribute(name);
  }
  ReactorOptions ropts;
  ropts.io_threads = options_.io_threads;
  ropts.port = options_.port;
  ropts.reuseport = options_.reuseport_accept;
  ropts.max_write_queue_bytes = options_.max_write_queue_bytes;
  ropts.max_frame_bytes = options_.max_frame_bytes;
  ropts.metrics = &reactor_metrics_;
  reactor_ =
      std::make_unique<Reactor>(ropts, static_cast<Reactor::Handler*>(this));
  Status started = reactor_->Start();
  if (!started.ok()) {
    reactor_.reset();
    return started;
  }
  port_ = reactor_->port();
  pump_stop_ = false;
  started_ = true;
  pump_thread_ = std::thread([this] { PumpLoop(); });
  LogInfo("event server listening",
          {{"addr", "127.0.0.1"},
           {"port", port_},
           {"io_threads", options_.io_threads},
           {"reuseport", reactor_->reuseport_active()}});
  return Status::OK();
}

void EventServer::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_) return;
  // Phase 1: stop accepting and reading (no publish can race the drain
  // below once BeginDrain returns).
  reactor_->BeginDrain();
  // Phase 2: drain the engine — every ACKed event is matched and its MATCH
  // frames land in subscriber outboxes.
  engine_->Flush();
  // Phase 3: stop the pump (nothing left to drain).
  {
    std::lock_guard<std::mutex> pump_lock(pump_mu_);
    pump_stop_ = true;
  }
  pump_cv_.notify_all();
  pump_thread_.join();
  // Phase 4: flush the remaining outboxes (bounded by a deadline for
  // unresponsive peers), close every connection, join the I/O threads.
  reactor_->Stop(kStopFlushDeadlineMs);
  reactor_.reset();
  started_ = false;
  port_ = 0;
  LogInfo("event server stopped");
}

void EventServer::WakePump() {
  {
    // Setting the flag under pump_mu_ orders it against the pump's
    // predicate check: a wakeup between its check and its wait is not lost.
    std::lock_guard<std::mutex> lock(pump_mu_);
    pump_wakeup_ = true;
  }
  pump_cv_.notify_one();
}

void EventServer::PumpLoop() {
  std::unique_lock<std::mutex> lock(pump_mu_);
  while (!pump_stop_) {
    if (pump_wakeup_ || engine_->queue_depth() > 0) {
      pump_wakeup_ = false;
      lock.unlock();
      // Chaos seam: widen the ACKed-but-unflushed window the drain in
      // Stop() must cover.
      APCM_FAILPOINT("net.server.pump.flush");
      // One round, not Flush: Flush also waits out a background compaction,
      // which would hold every MATCH for the length of a rebuild.
      engine_->ProcessPending();
      // Wake every I/O thread: parked publishes can retry now, and fresh
      // MATCH frames are waiting to be written.
      reactor_->WakeAll();
      lock.lock();
    } else {
      // The timeout covers events admitted without a WakePump (an inline
      // round's leftovers, direct engine publishes).
      pump_cv_.wait_for(lock, std::chrono::milliseconds(5),
                        [this] { return pump_stop_ || pump_wakeup_; });
    }
  }
}

void EventServer::OnMatch(uint64_t event_id,
                          const std::vector<SubscriptionId>& matches) {
  // Group the engine-id match list by subscribing connection. Holding
  // route_mu_ across the enqueues keeps every routed connection's session
  // alive: OnConnectionClosed erases its routes under this mutex first.
  std::lock_guard<std::mutex> lock(route_mu_);
  if (!matches.empty() && !routes_.empty()) {
    // (connection, client sub id) targets, keyed by the raw pointer so
    // frames group per connection.
    struct Target {
      Reactor::Connection* key;
      const Reactor::ConnPtr* conn;
      uint64_t sub;
    };
    std::vector<Target> targets;
    targets.reserve(matches.size());
    for (SubscriptionId id : matches) {
      auto it = routes_.find(id);
      if (it == routes_.end()) continue;  // unsubscribed mid-flight
      targets.push_back(Target{it->second.conn.get(), &it->second.conn,
                               it->second.client_sub_id});
    }
    std::sort(targets.begin(), targets.end(),
              [](const Target& a, const Target& b) {
                return a.key != b.key ? a.key < b.key : a.sub < b.sub;
              });
    engine::EventTracer& tracer = engine_->tracer();
    const bool traced = !targets.empty() && tracer.Sampled(event_id);
    Frame frame;
    frame.type = FrameType::kMatch;
    frame.event_id = event_id;
    for (size_t i = 0; i < targets.size();) {
      Reactor::Connection* key = targets[i].key;
      const Reactor::ConnPtr* conn = targets[i].conn;
      frame.matches.clear();
      for (; i < targets.size() && targets[i].key == key; ++i) {
        frame.matches.push_back(targets[i].sub);
      }
      frame.matches.erase(
          std::unique(frame.matches.begin(), frame.matches.end()),
          frame.matches.end());
      // The pending reference must exist before the enqueue: an I/O thread
      // could otherwise write the frame and release a reference this thread
      // has not added yet, finalizing the trace early. This runs inside the
      // delivery callback, so the engine's own reference is still held and
      // the trace cannot finalize under us.
      if (traced) tracer.AddPending(event_id, 1);
      if (reactor_->Enqueue(*conn, frame, traced, event_id)) {
        frames_out_->Increment();
      } else if (traced) {
        tracer.AbandonPending(event_id);  // dropped, no write coming
      }
    }
  }
  // PROGRESS after this event's MATCH frames: the delivery callback runs
  // once per event in ascending event-id order, so "watermark = event_id"
  // covers every earlier event on each follower's stream. Both are pushed
  // by this thread, so the per-producer FIFO of the outbox keeps the order.
  if (!followers_.empty()) {
    Frame progress;
    progress.type = FrameType::kProgress;
    progress.event_id = event_id;
    for (const Reactor::ConnPtr& follower : followers_) {
      APCM_FAILPOINT("net.server.progress");
      Send(follower, progress);
    }
  }
}

void EventServer::OnAccept(const Reactor::ConnPtr& conn) {
  conn->set_user_data(new Session());
  connections_->Add(1);
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("connection accepted", {{"conn", conn->id()}});
  }
}

void EventServer::Send(const Reactor::ConnPtr& conn, const Frame& frame) {
  if (reactor_->Enqueue(conn, frame)) frames_out_->Increment();
}

void EventServer::SendAck(const Reactor::ConnPtr& conn, uint64_t seq,
                          uint64_t value) {
  Frame frame;
  frame.type = FrameType::kAck;
  frame.seq = seq;
  frame.value = value;
  Send(conn, frame);
}

void EventServer::SendError(const Reactor::ConnPtr& conn, uint64_t seq,
                            const Status& status) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.seq = seq;
  frame.code = status.code();
  frame.message = status.message();
  Send(conn, frame);
}

void EventServer::OnFrame(const Reactor::ConnPtr& conn, Frame frame) {
  frames_in_->Increment();
  switch (frame.type) {
    case FrameType::kPublish:
      HandlePublish(conn, std::move(frame));
      return;
    case FrameType::kSubscribe:
      HandleSubscribe(conn, frame);
      return;
    case FrameType::kUnsubscribe:
      HandleUnsubscribe(conn, frame);
      return;
    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.seq = frame.seq;
      Send(conn, pong);
      return;
    }
    case FrameType::kFollow:
      HandleFollow(conn, frame);
      return;
    case FrameType::kUnknown:
      // A structurally valid frame from a newer peer: reject the request,
      // keep the connection. The decoder already resynchronized past it.
      SendError(conn, frame.seq,
                Status::Unimplemented(
                    "frame type " + std::to_string(frame.raw_type) +
                    " is not supported by this server"));
      return;
    case FrameType::kMatch:
    case FrameType::kAck:
    case FrameType::kError:
    case FrameType::kPong:
    case FrameType::kProgress:
      // Server-to-client types are a protocol violation from a client.
      SendError(conn, frame.seq,
                Status::InvalidArgument(
                    std::string(FrameTypeName(frame.type)) +
                    " frames are server-to-client only"));
      reactor_->Doom(conn, CloseReason::kProtocolError);
      return;
  }
}

void EventServer::HandlePublish(const Reactor::ConnPtr& conn, Frame frame) {
  // kRead instant: the transport has finished reading and decoding the
  // frame. Captured before admission so a parked-then-retried publish keeps
  // its original read timestamp (the queue wait is real latency).
  const engine::IngressTrace ingress{frame.trace_id,
                                     engine_->tracer().NowNs()};
  // Keep a copy: TryPublish consumes its argument even on rejection, and a
  // rejected event must survive to be re-tried (the ACK contract).
  Event event = frame.event;
  StatusOr<uint64_t> id = engine_->TryPublish(std::move(frame.event), ingress);
  if (id.ok()) {
    SendAck(conn, frame.seq, *id);
    WakePump();
    return;
  }
  if (id.status().code() != StatusCode::kResourceExhausted) {
    SendError(conn, frame.seq, id.status());
    return;
  }
  // Engine backpressure: park the event, pause reading this connection
  // (TCP pushes back on the remote publisher), and retry on service ticks
  // until the engine admits it. Later frames from this connection wait in
  // its decoder, so per-connection publish order is preserved.
  Session* session = SessionOf(conn);
  session->pending = PendingPublish{frame.seq, std::move(event), ingress};
  reactor_->PauseRead(conn);
  reactor_->RequestService(conn);
  backpressure_events_->Increment();
  WakePump();
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("connection paused on engine backpressure",
             {{"conn", conn->id()},
              {"queue_depth", engine_->queue_depth()}});
  }
}

bool EventServer::OnService(const Reactor::ConnPtr& conn) {
  Session* session = SessionOf(conn);
  if (!session->pending.has_value()) return true;
  Event event = session->pending->event;  // keep the parked copy retryable
  StatusOr<uint64_t> id =
      engine_->TryPublish(std::move(event), session->pending->ingress);
  if (!id.ok()) return false;  // still saturated; retry next tick
  SendAck(conn, session->pending->seq, *id);
  session->pending.reset();
  reactor_->ResumeRead(conn);
  WakePump();
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("connection resumed after drain", {{"conn", conn->id()}});
  }
  return true;
}

void EventServer::HandleSubscribe(const Reactor::ConnPtr& conn,
                                  const Frame& frame) {
  Session* session = SessionOf(conn);
  if (session->subs.contains(frame.sub_id)) {
    SendError(conn, frame.seq,
              Status::AlreadyExists("subscription id " +
                                    std::to_string(frame.sub_id) +
                                    " is already registered"));
    return;
  }
  StatusOr<SubscriptionId> added = [&]() -> StatusOr<SubscriptionId> {
    // Parser, catalog, and string dictionary are not thread-safe; any of N
    // I/O threads can dispatch a SUBSCRIBE.
    std::lock_guard<std::mutex> lock(control_mu_);
    auto disjuncts = parser_.ParseDisjunction(frame.expression);
    if (!disjuncts.ok()) return disjuncts.status();
    return disjuncts->size() == 1
               ? engine_->AddSubscription(std::move((*disjuncts)[0]))
               : engine_->AddDisjunctiveSubscription(std::move(*disjuncts));
  }();
  if (!added.ok()) {
    SendError(conn, frame.seq, added.status());
    return;
  }
  session->subs.emplace(frame.sub_id, *added);
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    routes_[*added] = Route{conn, frame.sub_id};
  }
  SendAck(conn, frame.seq, *added);
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("subscription registered", {{"conn", conn->id()},
                                         {"client_sub", frame.sub_id},
                                         {"engine_sub", *added}});
  }
}

void EventServer::HandleUnsubscribe(const Reactor::ConnPtr& conn,
                                    const Frame& frame) {
  Session* session = SessionOf(conn);
  auto it = session->subs.find(frame.sub_id);
  if (it == session->subs.end()) {
    SendError(conn, frame.seq,
              Status::NotFound("subscription id " +
                               std::to_string(frame.sub_id) +
                               " is not registered on this connection"));
    return;
  }
  const SubscriptionId engine_id = it->second;
  session->subs.erase(it);
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    routes_.erase(engine_id);
  }
  const Status removed = engine_->RemoveSubscription(engine_id);
  if (!removed.ok()) {
    SendError(conn, frame.seq, removed);
    return;
  }
  SendAck(conn, frame.seq, 0);
}

void EventServer::HandleFollow(const Reactor::ConnPtr& conn,
                               const Frame& frame) {
  Session* session = SessionOf(conn);
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (!session->follower) {
      session->follower = true;
      followers_.push_back(conn);
    }
  }
  SendAck(conn, frame.seq, 0);
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("connection following progress", {{"conn", conn->id()}});
  }
}

void EventServer::OnConnectionClosed(const Reactor::ConnPtr& conn,
                                     CloseReason reason) {
  std::unique_ptr<Session> session(SessionOf(conn));
  conn->set_user_data(nullptr);
  if (session == nullptr) return;
  std::vector<SubscriptionId> engine_ids;
  engine_ids.reserve(session->subs.size());
  for (const auto& [client_id, engine_id] : session->subs) {
    engine_ids.push_back(engine_id);
  }
  {
    // Erase the routes first, so the match callback cannot reach this
    // connection again (its enqueues would be refused anyway — the
    // connection is doomed — but the route must not outlive the session).
    std::lock_guard<std::mutex> lock(route_mu_);
    for (SubscriptionId id : engine_ids) routes_.erase(id);
    if (session->follower) {
      followers_.erase(
          std::remove(followers_.begin(), followers_.end(), conn),
          followers_.end());
    }
  }
  for (SubscriptionId id : engine_ids) {
    [[maybe_unused]] Status removed = engine_->RemoveSubscription(id);
  }
  if (reason == CloseReason::kSlowConsumer) {
    slow_consumer_disconnects_->Increment();
  }
  connections_->Sub(1);
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("connection closed", {{"conn", conn->id()},
                                   {"reason", CloseReasonName(reason)},
                                   {"subs_removed", engine_ids.size()}});
  }
}

void EventServer::OnTracedFrameWritten(uint64_t event_id) {
  engine::EventTracer& tracer = engine_->tracer();
  tracer.CompleteStage(event_id, engine::EventTracer::kWrite, tracer.NowNs());
}

void EventServer::OnTracedFrameAbandoned(uint64_t event_id) {
  engine_->tracer().AbandonPending(event_id);
}

}  // namespace apcm::net
