#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/format.h"

namespace bcc {

namespace {

Status Errno(const char* what) {
  return Status::Internal(StrFormat("%s: %s", what, strerror(errno)));
}

/// Blocks (poll) until the socket is writable again after EAGAIN.
Status WaitWritable(int fd) {
  pollfd p = {};
  p.fd = fd;
  p.events = POLLOUT;
  if (poll(&p, 1, /*timeout_ms=*/1000) < 0) return Errno("poll(POLLOUT)");
  return Status::OK();
}

}  // namespace

Endpoint SockAddr::ToEndpoint() const {
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &sin.sin_addr, buf, sizeof(buf));
  Endpoint ep;
  ep.ip = buf;
  ep.port = ntohs(sin.sin_port);
  return ep;
}

StatusOr<SockAddr> ResolveEndpoint(const Endpoint& endpoint) {
  SockAddr addr;
  addr.sin.sin_family = AF_INET;
  addr.sin.sin_port = htons(endpoint.port);
  const std::string& ip = endpoint.ip.empty() ? std::string("0.0.0.0") : endpoint.ip;
  if (inet_pton(AF_INET, ip.c_str(), &addr.sin.sin_addr) != 1) {
    return Status::InvalidArgument(StrFormat("bad IPv4 address '%s'", ip.c_str()));
  }
  return addr;
}

UdpSocket::~UdpSocket() { Close(); }

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), recv_(std::exchange(other.recv_, RecvArea{})) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    recv_ = std::exchange(other.recv_, RecvArea{});
  }
  return *this;
}

void UdpSocket::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status UdpSocket::Open() {
  Close();
  fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) return Errno("socket");
  return Status::OK();
}

Status UdpSocket::Bind(const Endpoint& endpoint) {
  BCC_ASSIGN_OR_RETURN(const SockAddr addr, ResolveEndpoint(endpoint));
  const int one = 1;
  if (setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  if (bind(fd_, reinterpret_cast<const sockaddr*>(&addr.sin), sizeof(addr.sin)) < 0) {
    return Errno("bind");
  }
  return Status::OK();
}

StatusOr<Endpoint> UdpSocket::local_endpoint() const {
  SockAddr addr;
  socklen_t len = sizeof(addr.sin);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr.sin), &len) < 0) {
    return Errno("getsockname");
  }
  return addr.ToEndpoint();
}

Status UdpSocket::SetRecvBufferBytes(uint32_t bytes) {
  const int value = static_cast<int>(bytes);
  if (setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &value, sizeof(value)) < 0) {
    return Errno("setsockopt(SO_RCVBUF)");
  }
  return Status::OK();
}

Status UdpSocket::JoinMulticast(const Endpoint& group) {
  Endpoint any;
  any.ip = "0.0.0.0";
  any.port = group.port;
  BCC_RETURN_IF_ERROR(Bind(any));
  ip_mreq mreq = {};
  if (inet_pton(AF_INET, group.ip.c_str(), &mreq.imr_multiaddr) != 1) {
    return Status::InvalidArgument(StrFormat("bad multicast group '%s'", group.ip.c_str()));
  }
  mreq.imr_interface.s_addr = htonl(INADDR_ANY);
  if (setsockopt(fd_, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof(mreq)) < 0) {
    return Errno("setsockopt(IP_ADD_MEMBERSHIP)");
  }
  return Status::OK();
}

Status UdpSocket::SetMulticastSendOptions() {
  const uint8_t ttl = 1;
  if (setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof(ttl)) < 0) {
    return Errno("setsockopt(IP_MULTICAST_TTL)");
  }
  const uint8_t loop = 1;
  if (setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof(loop)) < 0) {
    return Errno("setsockopt(IP_MULTICAST_LOOP)");
  }
  return Status::OK();
}

StatusOr<size_t> UdpSocket::SendTo(std::span<const uint8_t> bytes, const SockAddr& to) {
  for (;;) {
    const ssize_t n = sendto(fd_, bytes.data(), bytes.size(), 0,
                             reinterpret_cast<const sockaddr*>(&to.sin), sizeof(to.sin));
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      BCC_RETURN_IF_ERROR(WaitWritable(fd_));
      continue;
    }
    return Errno("sendto");
  }
}

StatusOr<size_t> UdpSocket::SendBatch(std::span<const OutDatagram> datagrams) {
  if (datagrams.empty()) return size_t{0};
  std::vector<mmsghdr> headers(datagrams.size());
  std::vector<iovec> iovs(datagrams.size());
  for (size_t i = 0; i < datagrams.size(); ++i) {
    iovs[i].iov_base = const_cast<uint8_t*>(datagrams[i].bytes.data());
    iovs[i].iov_len = datagrams[i].bytes.size();
    msghdr& msg = headers[i].msg_hdr;
    msg = {};
    msg.msg_name = const_cast<sockaddr_in*>(&datagrams[i].to.sin);
    msg.msg_namelen = sizeof(datagrams[i].to.sin);
    msg.msg_iov = &iovs[i];
    msg.msg_iovlen = 1;
  }
  size_t sent = 0;
  while (sent < headers.size()) {
    const int n = sendmmsg(fd_, headers.data() + sent,
                           static_cast<unsigned>(headers.size() - sent), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        BCC_RETURN_IF_ERROR(WaitWritable(fd_));
        continue;
      }
      return Errno("sendmmsg");
    }
    sent += static_cast<size_t>(n);
  }
  return sent;
}

StatusOr<std::vector<InDatagram>> UdpSocket::RecvBatch(size_t max_datagrams, size_t max_bytes) {
  BCC_ASSIGN_OR_RETURN(const std::span<const InDatagramView> views,
                       RecvBatchInPlace(max_datagrams, max_bytes));
  std::vector<InDatagram> out(views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    out[i].bytes.assign(views[i].bytes.begin(), views[i].bytes.end());
    out[i].from = views[i].from;
  }
  return out;
}

StatusOr<std::span<const InDatagramView>> UdpSocket::RecvBatchInPlace(size_t max_datagrams,
                                                                      size_t max_bytes) {
  RecvArea& a = recv_;
  if (a.max_datagrams < max_datagrams || a.max_bytes < max_bytes) {
    a.max_datagrams = std::max(a.max_datagrams, max_datagrams);
    a.max_bytes = std::max(a.max_bytes, max_bytes);
    a.storage = std::make_unique_for_overwrite<uint8_t[]>(a.max_datagrams * a.max_bytes);
    a.headers.resize(a.max_datagrams);
    a.iovs.resize(a.max_datagrams);
    a.froms.resize(a.max_datagrams);
  }
  for (size_t i = 0; i < max_datagrams; ++i) {
    a.iovs[i].iov_base = a.storage.get() + i * a.max_bytes;
    a.iovs[i].iov_len = max_bytes;
    msghdr& msg = a.headers[i].msg_hdr;
    msg = {};
    msg.msg_name = &a.froms[i].sin;
    msg.msg_namelen = sizeof(a.froms[i].sin);
    msg.msg_iov = &a.iovs[i];
    msg.msg_iovlen = 1;
  }
  a.views.clear();
  const int n = recvmmsg(fd_, a.headers.data(), static_cast<unsigned>(max_datagrams), 0, nullptr);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return std::span<const InDatagramView>();
    }
    return Errno("recvmmsg");
  }
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    a.views.push_back(InDatagramView{
        std::span<const uint8_t>(a.storage.get() + i * a.max_bytes, a.headers[i].msg_len),
        a.froms[i]});
  }
  return std::span<const InDatagramView>(a.views);
}

}  // namespace bcc
