// Thin RAII wrapper over a non-blocking UDP socket: bind (with ephemeral
// port discovery), multicast join/TTL, SO_RCVBUF sizing, and batched
// send/receive via sendmmsg/recvmmsg. All methods report failures as Status
// — the transport tier treats socket errors as fatal configuration problems,
// not as channel loss (loss is the kernel silently dropping datagrams, which
// the frame layer already models).

#ifndef BCC_NET_SOCKET_H_
#define BCC_NET_SOCKET_H_

#include <netinet/in.h>
#include <sys/socket.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/statusor.h"
#include "net/net_config.h"

namespace bcc {

/// A resolved IPv4 socket address.
struct SockAddr {
  sockaddr_in sin = {};

  bool operator==(const SockAddr& other) const {
    return sin.sin_addr.s_addr == other.sin.sin_addr.s_addr && sin.sin_port == other.sin.sin_port;
  }
  Endpoint ToEndpoint() const;
};

/// Resolves an Endpoint (dotted-quad ip + port) into a SockAddr.
StatusOr<SockAddr> ResolveEndpoint(const Endpoint& endpoint);

/// One datagram to send: payload bytes plus its destination.
struct OutDatagram {
  std::span<const uint8_t> bytes;
  SockAddr to;
};

/// One received datagram: payload bytes plus the sender's address.
struct InDatagram {
  std::vector<uint8_t> bytes;
  SockAddr from;
};

/// A received datagram viewed in place in the socket's receive area; valid
/// until the socket's next receive call.
struct InDatagramView {
  std::span<const uint8_t> bytes;
  SockAddr from;
};

class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;

  /// Creates a non-blocking IPv4 UDP socket.
  Status Open();
  /// Binds to `endpoint` (port 0 = kernel-assigned ephemeral port; use
  /// local_endpoint() to discover it).
  Status Bind(const Endpoint& endpoint);
  /// The bound address as the kernel reports it.
  StatusOr<Endpoint> local_endpoint() const;

  Status SetRecvBufferBytes(uint32_t bytes);
  /// Joins `group` on the loopback-safe default interface and binds the
  /// socket to the group's port (receiver side).
  Status JoinMulticast(const Endpoint& group);
  /// Sender-side multicast setup: TTL 1, loopback enabled (the loopback
  /// test runs all processes on one host).
  Status SetMulticastSendOptions();

  /// Sends one datagram (best effort; EAGAIN retries internally once the
  /// kernel buffer drains). Returns the number of bytes sent.
  StatusOr<size_t> SendTo(std::span<const uint8_t> bytes, const SockAddr& to);
  /// Batched fan-out via sendmmsg: sends every datagram, looping over
  /// partial progress and EAGAIN. Returns the number of datagrams sent.
  StatusOr<size_t> SendBatch(std::span<const OutDatagram> datagrams);
  /// Batched non-blocking receive via recvmmsg: drains up to `max_datagrams`
  /// currently-queued datagrams (each up to `max_bytes`). Returns an empty
  /// vector when the queue is empty — never blocks.
  StatusOr<std::vector<InDatagram>> RecvBatch(size_t max_datagrams, size_t max_bytes);
  /// Zero-copy variant: the views point into the socket's receive area,
  /// which is allocated once and reused by every call.
  StatusOr<std::span<const InDatagramView>> RecvBatchInPlace(size_t max_datagrams,
                                                              size_t max_bytes);

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

 private:
  /// recvmmsg scratch, kept across calls and grown on demand. The storage is
  /// never value-initialized: the kernel writes what it receives and only
  /// msg_len bytes of each slot are read back.
  struct RecvArea {
    std::unique_ptr<uint8_t[]> storage;
    size_t max_datagrams = 0;
    size_t max_bytes = 0;
    std::vector<mmsghdr> headers;
    std::vector<iovec> iovs;
    std::vector<SockAddr> froms;
    std::vector<InDatagramView> views;
  };

  int fd_ = -1;
  RecvArea recv_;
};

}  // namespace bcc

#endif  // BCC_NET_SOCKET_H_
