#include "src/net/net_io.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>

#include "src/base/failpoint.h"
#include "src/base/macros.h"

namespace apcm::net {

#ifdef APCM_FAILPOINTS_ENABLED

namespace {

struct SidePoints {
  failpoint::Failpoint* recv_eintr;
  failpoint::Failpoint* recv_disconnect;
  failpoint::Failpoint* recv_short;
  failpoint::Failpoint* send_short;
  failpoint::Failpoint* send_eagain;
  failpoint::Failpoint* send_error;
};

const SidePoints& PointsFor(IoSide side) {
  auto& registry = failpoint::Registry::Instance();
  static const SidePoints server = {
      registry.Register("net.server.recv.eintr"),
      registry.Register("net.server.recv.disconnect"),
      registry.Register("net.server.recv.short"),
      registry.Register("net.server.send.short"),
      registry.Register("net.server.send.eagain"),
      registry.Register("net.server.send.error"),
  };
  static const SidePoints client = {
      registry.Register("net.client.recv.eintr"),
      registry.Register("net.client.recv.disconnect"),
      registry.Register("net.client.recv.short"),
      registry.Register("net.client.send.short"),
      registry.Register("net.client.send.eagain"),
      registry.Register("net.client.send.error"),
  };
  return side == IoSide::kServer ? server : client;
}

}  // namespace

ssize_t InstrumentedRecv(IoSide side, int fd, void* buf, size_t len,
                         int flags) {
  const SidePoints& points = PointsFor(side);
  uint64_t arg = 0;
  if (APCM_UNLIKELY(points.recv_eintr->armed()) &&
      points.recv_eintr->Fire(&arg)) {
    errno = EINTR;
    return -1;
  }
  if (APCM_UNLIKELY(points.recv_disconnect->armed()) &&
      points.recv_disconnect->Fire(&arg)) {
    return 0;
  }
  if (APCM_UNLIKELY(points.recv_short->armed()) &&
      points.recv_short->Fire(&arg)) {
    len = std::min(len, static_cast<size_t>(std::max<uint64_t>(arg, 1)));
  }
  return ::recv(fd, buf, len, flags);
}

ssize_t InstrumentedSend(IoSide side, int fd, const void* buf, size_t len,
                         int flags) {
  const SidePoints& points = PointsFor(side);
  uint64_t arg = 0;
  if (APCM_UNLIKELY(points.send_error->armed()) &&
      points.send_error->Fire(&arg)) {
    errno = ECONNRESET;
    return -1;
  }
  if (APCM_UNLIKELY(points.send_eagain->armed()) &&
      points.send_eagain->Fire(&arg)) {
    errno = EAGAIN;
    return -1;
  }
  if (APCM_UNLIKELY(points.send_short->armed()) &&
      points.send_short->Fire(&arg)) {
    len = std::min(len, static_cast<size_t>(std::max<uint64_t>(arg, 1)));
  }
  return ::send(fd, buf, len, flags);
}

int InstrumentedAccept(int fd) {
  static failpoint::Failpoint* accept_fail =
      failpoint::Registry::Instance().Register("net.server.accept.fail");
  uint64_t arg = 0;
  if (APCM_UNLIKELY(accept_fail->armed()) && accept_fail->Fire(&arg)) {
    errno = EMFILE;
    return -1;
  }
  return ::accept(fd, nullptr, nullptr);
}

namespace {

/// Gathered socket write without SIGPIPE: writev(2) cannot pass
/// MSG_NOSIGNAL, so a peer that closed mid-stream would raise the signal
/// and kill the process. sendmsg(2) has identical gather semantics and
/// takes the flag; EPIPE surfaces as an ordinary errno instead.
ssize_t SocketWritev(int fd, const struct iovec* iov, int iovcnt) {
  struct msghdr msg {};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

}  // namespace

ssize_t InstrumentedWritev(IoSide side, int fd, const struct iovec* iov,
                           int iovcnt) {
  const SidePoints& points = PointsFor(side);
  static failpoint::Failpoint* writev_short =
      failpoint::Registry::Instance().Register("net.reactor.writev.short");
  uint64_t arg = 0;
  if (APCM_UNLIKELY(points.send_error->armed()) &&
      points.send_error->Fire(&arg)) {
    errno = ECONNRESET;
    return -1;
  }
  if (APCM_UNLIKELY(points.send_eagain->armed()) &&
      points.send_eagain->Fire(&arg)) {
    errno = EAGAIN;
    return -1;
  }
  // Both the gathered-write point and the per-side short-send point clamp
  // here: `net.server.send.short` tears server writes, and the reactor's
  // gathered write is the server's only write path.
  bool clamp = false;
  if (APCM_UNLIKELY(writev_short->armed()) && writev_short->Fire(&arg)) {
    clamp = true;
  } else if (APCM_UNLIKELY(points.send_short->armed()) &&
             points.send_short->Fire(&arg)) {
    clamp = true;
  }
  if (clamp) {
    // Clamp the gathered write to max(arg, 1) bytes, tearing the iovec
    // array at an arbitrary offset (possibly mid-entry, i.e. mid-frame).
    size_t budget = static_cast<size_t>(std::max<uint64_t>(arg, 1));
    struct iovec clamped[64];
    int n = 0;
    for (; n < iovcnt && n < 64 && budget > 0; ++n) {
      clamped[n] = iov[n];
      if (clamped[n].iov_len > budget) clamped[n].iov_len = budget;
      budget -= clamped[n].iov_len;
    }
    return SocketWritev(fd, clamped, n);
  }
  return SocketWritev(fd, iov, iovcnt);
}

#else  // !APCM_FAILPOINTS_ENABLED

ssize_t InstrumentedRecv(IoSide /*side*/, int fd, void* buf, size_t len,
                         int flags) {
  return ::recv(fd, buf, len, flags);
}

ssize_t InstrumentedSend(IoSide /*side*/, int fd, const void* buf, size_t len,
                         int flags) {
  return ::send(fd, buf, len, flags);
}

int InstrumentedAccept(int fd) { return ::accept(fd, nullptr, nullptr); }

ssize_t InstrumentedWritev(IoSide /*side*/, int fd, const struct iovec* iov,
                           int iovcnt) {
  struct msghdr msg {};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

#endif  // APCM_FAILPOINTS_ENABLED

}  // namespace apcm::net
