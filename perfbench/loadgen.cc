#include "perfbench/loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "perfbench/stats.h"

namespace perfbench {
namespace {

using apcm::net::EncodeFrame;
using apcm::net::Frame;
using apcm::net::FrameType;

// Request seqs on the subscriber connection: book SUBSCRIBE i uses seq i.
constexpr uint64_t kFollowSeq = 1ULL << 62;
constexpr uint64_t kChurnSeq = 1ULL << 61;  // | life << 1 | is_unsubscribe

void PatchSeq(std::string* frame, size_t at, uint64_t seq) {
  for (int i = 0; i < 8; ++i) {
    (*frame)[at + i] = static_cast<char>((seq >> (8 * i)) & 0xFF);
  }
}

}  // namespace

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

LoadGenerator::LoadGenerator(const LoadPlan& plan)
    : plan_(plan), read_buf_(1 << 18) {
  // Wake at each due time, not up to the default 50 us timer slack later.
  prctl(PR_SET_TIMERSLACK, 1UL);
  const uint64_t open_events = EventsDue(plan.open_seconds, plan.rate);
  const uint64_t closed_events = static_cast<uint64_t>(
      plan.closed_seconds * static_cast<double>(kClosedMaxRate));
  // Touch every record now so the timed phases never fault in pages.
  const uint64_t warmup_events = static_cast<uint64_t>(
      plan.warmup_seconds * static_cast<double>(kClosedMaxRate));
  events_.resize(1 + plan.open_phases * open_events +
                 plan.closed_phases * (closed_events + kClosedLoopWindow) +
                 warmup_events + kClosedLoopWindow);
  const uint64_t churn_ops = EventsDue(plan.open_seconds, plan.churn_rate);
  lives_.resize(plan.open_phases * churn_ops + 1);
  churn_matches_.reserve(1 << 16);
  if (plan.churn_rate > 0) {
    const uint64_t base = plan.book_frames.size();
    churn_sub_frames_.reserve(lives_.size());
    churn_unsub_frames_.reserve(lives_.size());
    for (uint64_t life = 0; life < lives_.size(); ++life) {
      Frame frame;
      frame.type = FrameType::kSubscribe;
      frame.seq = kChurnSeq | (life << 1);
      frame.sub_id = base + life;
      frame.expression = plan.churn_texts[life % plan.churn_texts.size()];
      churn_sub_frames_.push_back(EncodeFrame(frame));
      frame.type = FrameType::kUnsubscribe;
      frame.seq = kChurnSeq | (life << 1) | 1;
      frame.expression.clear();
      churn_unsub_frames_.push_back(EncodeFrame(frame));
      lives_[life].pool_index =
          static_cast<uint32_t>(life % plan.churn_texts.size());
    }
  }
  size_t out_bytes = 0;
  for (const std::string& f : plan.book_frames) out_bytes += f.size();
  sub_.out.reserve(out_bytes + (1 << 20));
  pub_.out.reserve(1 << 22);
}

LoadGenerator::~LoadGenerator() {
  if (sub_.fd >= 0) close(sub_.fd);
  if (pub_.fd >= 0) close(pub_.fd);
}

bool LoadGenerator::ConnectTo(Conn* conn, int port) {
  conn->fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn->fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return false;
  }
  const int one = 1;
  setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fcntl(conn->fd, F_SETFL, fcntl(conn->fd, F_GETFL) | O_NONBLOCK) == 0;
}

void LoadGenerator::QueuePublish(int64_t due_ns) {
  const uint64_t index = sent_++;
  EventRecord& rec = events_[index];
  rec.pool_index = plan_.order[index % plan_.order.size()];
  rec.due_ns = due_ns;
  const std::string& frame = plan_.publish_frames[rec.pool_index];
  const size_t at = pub_.out.size();
  pub_.out.append(frame);
  PatchSeq(&pub_.out, at + apcm::net::kFrameHeaderBytes, index);
  rec.sent_ns = NowNs();
}

void LoadGenerator::QueueChurnOp() {
  const int64_t now = NowNs();
  if (lives_started_ - lives_ended_ >= plan_.churn_active) {
    ChurnLife& life = lives_[lives_ended_];
    sub_.out.append(churn_unsub_frames_[lives_ended_++]);
    life.unsub_sent_ns = now;
  } else if (lives_started_ < lives_.size()) {
    ChurnLife& life = lives_[lives_started_];
    sub_.out.append(churn_sub_frames_[lives_started_++]);
    life.sub_sent_ns = now;
    life.sub_sent_done = progress_next_;
  }
}

bool LoadGenerator::Flush(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = send(conn->fd, conn->out.data() + conn->out_off,
                           conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) return true;
    if (!conn->dead) ++failures_;
    conn->dead = true;
    return false;
  }
  conn->out.clear();
  conn->out_off = 0;
  return true;
}

void LoadGenerator::Pump(int64_t timeout_ns) {
  Flush(&sub_);
  Flush(&pub_);
  pollfd fds[2];
  fds[0] = {sub_.fd, static_cast<short>(
                         POLLIN | (sub_.out.empty() ? 0 : POLLOUT)), 0};
  fds[1] = {pub_.fd, static_cast<short>(
                         POLLIN | (pub_.out.empty() ? 0 : POLLOUT)), 0};
  timeout_ns = std::max<int64_t>(timeout_ns, 0);
  timespec ts{timeout_ns / 1'000'000'000, timeout_ns % 1'000'000'000};
  if (ppoll(fds, 2, &ts, nullptr) <= 0) return;
  if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) ReadOnce(&sub_, true);
  if (fds[1].revents & (POLLIN | POLLHUP | POLLERR)) ReadOnce(&pub_, false);
  if (fds[0].revents & POLLOUT) Flush(&sub_);
  if (fds[1].revents & POLLOUT) Flush(&pub_);
}

void LoadGenerator::ReadOnce(Conn* conn, bool is_sub) {
  // One read per wake-up: a server flooding replies must not keep the
  // generator from its send schedule.
  ssize_t n;
  do {
    n = read(conn->fd, read_buf_.data(), read_buf_.size());
  } while (n < 0 && errno == EINTR);
  if (n < 0 && errno == EAGAIN) return;
  if (n <= 0) {
    ++failures_;
    conn->dead = true;
    return;
  }
  const int64_t now = NowNs();
  conn->decoder.Append(read_buf_.data(), static_cast<size_t>(n));
  while (true) {
    auto next = conn->decoder.Next();
    if (!next.ok()) {
      ++failures_;
      conn->dead = true;
      return;
    }
    if (!next.value().has_value()) return;
    Handle(*next.value(), is_sub, now);
  }
}

void LoadGenerator::Handle(const Frame& frame, bool is_sub, int64_t now) {
  const uint64_t base = plan_.book_frames.size();
  switch (frame.type) {
    case FrameType::kMatch: {
      if (frame.event_id >= sent_) {
        ++failures_;
        return;
      }
      EventRecord& rec = events_[frame.event_id];
      if (rec.match_ns == 0) rec.match_ns = now;
      for (uint64_t id : frame.matches) {
        if (id < base) {
          rec.stable.Add(id);
        } else {
          churn_matches_.push_back({frame.event_id, id - base});
        }
      }
      return;
    }
    case FrameType::kProgress: {
      if (frame.event_id >= sent_) {
        ++failures_;
        return;
      }
      for (; progress_next_ <= frame.event_id; ++progress_next_) {
        EventRecord& rec = events_[progress_next_];
        rec.progress_ns = now;
        if (spans_ != nullptr) {
          spans_->Add("wire.complete", rec.sent_ns, now, span_root_,
                      progress_next_);
        }
      }
      return;
    }
    case FrameType::kAck: {
      if (!is_sub) {
        if (frame.seq >= sent_) {
          ++failures_;
          return;
        }
        EventRecord& rec = events_[frame.seq];
        if (rec.ack_ns == 0) ++publish_acks_;
        rec.ack_ns = now;
        rec.ack_ok = frame.value == frame.seq;
        if (spans_ != nullptr) {
          spans_->Add("wire.ack", rec.sent_ns, now, span_root_, frame.seq);
        }
      } else if (frame.seq == kFollowSeq) {
        follow_acked_ = true;
      } else if (frame.seq & kChurnSeq) {
        const uint64_t life = (frame.seq & ~kChurnSeq) >> 1;
        if (life >= lives_started_) {
          ++failures_;
        } else if (frame.seq & 1) {
          lives_[life].unsub_ack_ns = now;
          lives_[life].unsub_acked_events = sent_;
        } else {
          lives_[life].sub_ack_ns = now;
        }
      } else {
        ++book_acked_;
      }
      return;
    }
    default:  // ERROR, or anything the benchmark never asked for
      ++failures_;
      return;
  }
}

bool LoadGenerator::Drain(double max_seconds) {
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(max_seconds * 1e9);
  // ACKs and PROGRESS travel on different connections, so either may
  // finish last.
  while ((progress_next_ < sent_ || publish_acks_ < sent_) && !sub_.dead &&
         !pub_.dead) {
    const int64_t now = NowNs();
    if (now >= deadline) break;
    Pump(std::min<int64_t>(deadline - now, 10'000'000));
  }
  return progress_next_ == sent_ && publish_acks_ == sent_;
}

bool LoadGenerator::Setup(int port) {
  if (!ConnectTo(&sub_, port) || !ConnectTo(&pub_, port)) return false;
  Frame follow;
  follow.type = FrameType::kFollow;
  follow.seq = kFollowSeq;
  sub_.out.append(EncodeFrame(follow));
  for (const std::string& frame : plan_.book_frames) sub_.out.append(frame);
  const int64_t deadline = NowNs() + 120'000'000'000LL;
  while ((book_acked_ < plan_.book_frames.size() || !follow_acked_) &&
         !sub_.dead && NowNs() < deadline) {
    Pump(10'000'000);
  }
  if (book_acked_ != plan_.book_frames.size() || !follow_acked_) return false;
  sub_.out.shrink_to_fit();
  sub_.out.reserve(1 << 22);
  QueuePublish(NowNs());
  return Drain(60) && failures_ == 0;
}

bool LoadGenerator::OpenLoop() {
  open_begin_ = sent_;
  const uint64_t count = EventsDue(plan_.open_seconds, plan_.rate);
  const uint64_t churn_ops = EventsDue(plan_.open_seconds, plan_.churn_rate);
  open_start_ns_ = NowNs() + 1'000'000;
  uint64_t next = 0, next_churn = 0;
  while ((next < count || next_churn < churn_ops) && !sub_.dead &&
         !pub_.dead) {
    const int64_t now = NowNs();
    int64_t wake = INT64_MAX;
    while (next < count) {
      const int64_t due = DueNs(open_start_ns_, next, plan_.rate);
      if (due > now) {
        wake = due;
        break;
      }
      QueuePublish(due);
      ++next;
    }
    while (next_churn < churn_ops) {
      const int64_t due = DueNs(open_start_ns_, next_churn, plan_.churn_rate);
      if (due > now) {
        wake = std::min(wake, due);
        break;
      }
      QueueChurnOp();
      ++next_churn;
    }
    if (wake == INT64_MAX) break;
    Pump(wake - NowNs());
  }
  open_end_ = sent_;
  // Every churned subscription still live is removed before the phase
  // ends, so its UNSUBSCRIBE latency is measured like any other.
  while (lives_ended_ < lives_started_) {
    ChurnLife& life = lives_[lives_ended_];
    sub_.out.append(churn_unsub_frames_[lives_ended_++]);
    life.unsub_sent_ns = NowNs();
  }
  const bool drained = Drain(60);
  const int64_t deadline = NowNs() + 60'000'000'000LL;
  while (lives_started_ > 0 && lives_[lives_started_ - 1].unsub_ack_ns == 0 &&
         !sub_.dead && NowNs() < deadline) {
    Pump(10'000'000);
  }
  return drained && !sub_.dead && !pub_.dead;
}

bool LoadGenerator::ClosedLoop(double seconds, SpanRecorder* spans,
                               int64_t root) {
  if (seconds <= 0) seconds = plan_.closed_seconds;
  spans_ = spans;
  span_root_ = root;
  closed_begin_ = sent_;
  const uint64_t limit = events_.size();
  const int64_t start = NowNs();
  closed_start_ns_ = start;
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  const uint64_t done_before = progress_next_;
  while (!sub_.dead && !pub_.dead) {
    const int64_t now = NowNs();
    if (now >= stop) break;
    while (sent_ - progress_next_ < kClosedLoopWindow && sent_ < limit) {
      QueuePublish(NowNs());
    }
    Pump(std::min<int64_t>(stop - now, 1'000'000));
  }
  closed_elapsed_s_ = static_cast<double>(NowNs() - start) * 1e-9;
  closed_completed_ = progress_next_ - done_before;
  const bool drained = Drain(60);
  spans_ = nullptr;
  return drained && !sub_.dead && !pub_.dead;
}

}  // namespace perfbench
