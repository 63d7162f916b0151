// The load generator: one thread, two loopback connections, speaking only
// the wire protocol. Connection S subscribes the book, runs the churn stream
// and FOLLOWs PROGRESS; connection P publishes. Every frame is encoded
// before the timed phases and every per-event record is allocated up front.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/oracle.h"
#include "perfbench/spans.h"
#include "src/net/frame.h"

namespace perfbench {

/// Closed loop: events kept awaiting PROGRESS. Completions, not ACKs: a
/// window of unacknowledged events only fills the engine queue.
inline constexpr uint32_t kClosedLoopWindow = 256;
/// Highest closed-loop rate the per-event records are sized for, events/s.
inline constexpr uint64_t kClosedMaxRate = 200'000;

struct LoadPlan {
  /// PUBLISH frame per pool event, encoded with seq 0 (patched per send).
  std::vector<std::string> publish_frames;
  /// Pool event of every published event, cycled: event i uses
  /// order[i % order.size()].
  std::vector<uint32_t> order;
  /// SUBSCRIBE frame per stable-book subscription (client id = index).
  std::vector<std::string> book_frames;
  /// Churn-pool expression texts; churned ids start at book_frames.size().
  std::vector<std::string> churn_texts;
  uint64_t rate = 1000;        ///< open-loop PUBLISH rate, events/s
  uint64_t churn_rate = 0;     ///< open-loop SUBSCRIBE+UNSUBSCRIBE ops/s
  uint32_t churn_active = 0;   ///< churned subscriptions kept live
  double open_seconds = 1;
  double closed_seconds = 1;
  int open_phases = 1;                 ///< open loops the run may make
  int closed_phases = 1;               ///< closed loops the run will make
  double warmup_seconds = 0;           ///< untimed closed loop before them
};

class LoadGenerator {
 public:
  explicit LoadGenerator(const LoadPlan& plan);
  ~LoadGenerator();

  /// Connects, FOLLOWs, subscribes the whole book and publishes one warm-up
  /// event (index 0); returns once the warm-up's PROGRESS arrives, so the
  /// first index build is finished. False on any failure.
  bool Setup(int port);
  /// Publishes at plan.rate for plan.open_seconds, each event due on a
  /// fixed schedule, with the churn stream beside it; then waits for every
  /// ACK and PROGRESS.
  bool OpenLoop();
  /// Keeps kClosedLoopWindow events awaiting PROGRESS for `seconds` (default
  /// plan.closed_seconds); then waits for every ACK and PROGRESS. With `spans`,
  /// records one "wire.ack" and one "wire.complete" span per event under
  /// `root`.
  bool ClosedLoop(double seconds = 0, SpanRecorder* spans = nullptr,
                  int64_t root = -1);

  // --- Results ---
  /// Index = event id; [0, sent()) are valid. Event 0 is the warm-up.
  const std::vector<EventRecord>& events() const { return events_; }
  uint64_t sent() const { return sent_; }
  uint64_t open_begin() const { return open_begin_; }
  uint64_t open_end() const { return open_end_; }
  uint64_t closed_begin() const { return closed_begin_; }
  /// Completions (PROGRESS) inside the closed-loop window, and its length.
  uint64_t closed_completed() const { return closed_completed_; }
  double closed_elapsed_s() const { return closed_elapsed_s_; }
  int64_t closed_start_ns() const { return closed_start_ns_; }
  int64_t open_start_ns() const { return open_start_ns_; }
  const std::vector<ChurnLife>& lives() const { return lives_; }
  uint64_t lives_started() const { return lives_started_; }
  const std::vector<ChurnMatch>& churn_matches() const {
    return churn_matches_;
  }
  /// ERROR frames, disconnects and protocol surprises.
  uint64_t failures() const { return failures_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    apcm::net::FrameDecoder decoder;
    bool dead = false;
  };

  bool ConnectTo(Conn* conn, int port);
  void QueuePublish(int64_t due_ns);
  void QueueChurnOp();
  /// Writes queued bytes, waits at most timeout_ns for readiness, then
  /// handles what one read of each ready connection returns.
  void Pump(int64_t timeout_ns);
  bool Flush(Conn* conn);
  void ReadOnce(Conn* conn, bool is_sub);
  void Handle(const apcm::net::Frame& frame, bool is_sub, int64_t now);
  /// Pumps until every sent event has its ACK and PROGRESS (or a deadline).
  bool Drain(double max_seconds);

  const LoadPlan& plan_;
  Conn sub_;
  Conn pub_;
  std::vector<char> read_buf_;

  std::vector<EventRecord> events_;
  uint64_t sent_ = 0;
  uint64_t progress_next_ = 0;  ///< first event without PROGRESS
  uint64_t publish_acks_ = 0;   ///< events whose ACK arrived
  uint64_t open_begin_ = 0, open_end_ = 0, closed_begin_ = 0;
  uint64_t closed_completed_ = 0;
  double closed_elapsed_s_ = 0;
  int64_t open_start_ns_ = 0, closed_start_ns_ = 0;

  std::vector<std::string> churn_sub_frames_;
  std::vector<std::string> churn_unsub_frames_;
  std::vector<ChurnLife> lives_;
  uint64_t lives_started_ = 0, lives_ended_ = 0;
  std::vector<ChurnMatch> churn_matches_;

  uint64_t book_acked_ = 0;
  bool follow_acked_ = false;
  uint64_t failures_ = 0;
  SpanRecorder* spans_ = nullptr;
  int64_t span_root_ = -1;
};

/// Monotonic clock, nanoseconds.
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
