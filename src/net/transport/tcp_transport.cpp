#include "net/transport/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>

#include "common/assert.hpp"

namespace sintra::net::transport {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kMaxPreHelloBytes = 64 * 1024;
constexpr std::size_t kMaxPendingAccepts = 128;
constexpr std::size_t kMaxConnOutbuf = 64u << 20;
constexpr std::size_t kMaxIov = 64;  ///< scatter-gather entries per sendmsg
constexpr int kMaxBackoffShift = 16;

int make_socket() {
  return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in make_addr(const TcpTransport::Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  SINTRA_REQUIRE(::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) == 1,
                 "tcp: bad endpoint host " + endpoint.host);
  return addr;
}

}  // namespace

/// One TCP connection (at most one per peer; newest wins on the accept
/// side).  Owned by the reactor thread.
struct TcpTransport::Conn {
  int fd = -1;
  bool connecting = false;   ///< dialer: nonblocking connect() in flight
  bool established = false;  ///< HELLO exchange complete
  bool want_write = false;   ///< EPOLLOUT armed
  FrameDecoder decoder;
  Bytes pending_buf;  ///< accept side: raw bytes until the HELLO verifies
  /// Outbound queue of encoded frames, drained by scatter-gather
  /// sendmsg() — frames stay discrete so try_write never re-copies them
  /// into a flat buffer.
  std::deque<Bytes> outq;
  std::size_t outpos = 0;    ///< bytes of outq.front() already written
  std::size_t outbytes = 0;  ///< total bytes across outq
  std::uint64_t last_recv_ms = 0;
  std::uint64_t my_nonce = 0;
  Bytes session_key;
};

struct TcpTransport::Peer {
  Peer(const LinkConfig& config, const AccrualHealth::Config& health_config)
      : link(config), health(health_config) {}
  ReliableLink link;
  AccrualHealth health;  ///< arrival-cadence estimate; reset per connection
  std::shared_ptr<Conn> conn;
  int backoff_attempt = 0;
  bool flush_posted = false;  ///< a deferred flush_link task is queued
  EventLoop::TimerId redial_timer = 0;
  EventLoop::TimerId ack_timer = 0;
  std::uint64_t link_retransmitted_seen = 0;  ///< for the stats delta
};

TcpTransport::TcpTransport(Config config, ReceiveFn receive)
    : config_(std::move(config)), receive_(std::move(receive)),
      rng_(config_.seed ^ (0x7c0ffee5ULL * static_cast<std::uint64_t>(config_.node_id + 1))) {
  const int n = static_cast<int>(config_.endpoints.size());
  SINTRA_REQUIRE(n >= 1 && config_.node_id >= 0 && config_.node_id < n,
                 "tcp: node_id out of range");
  SINTRA_REQUIRE(config_.link_keys.size() == config_.endpoints.size(),
                 "tcp: one link key per endpoint required");
  peers_.resize(static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) {
    if (id != config_.node_id) {
      peers_[static_cast<std::size_t>(id)] =
          std::make_unique<Peer>(config_.link, config_.health);
    }
  }
}

TcpTransport::~TcpTransport() { stop(); }

const Bytes& TcpTransport::link_key(int peer) const {
  return config_.link_keys[static_cast<std::size_t>(peer)];
}

void TcpTransport::setup_listener() {
  listen_fd_ = make_socket();
  SINTRA_INVARIANT(listen_fd_ >= 0, "tcp: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(config_.endpoints[static_cast<std::size_t>(config_.node_id)]);
  SINTRA_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                 "tcp: bind failed (port in use?)");
  SINTRA_INVARIANT(::listen(listen_fd_, 64) == 0, "tcp: listen failed");
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  listen_port_ = ntohs(addr.sin_port);
}

void TcpTransport::start() {
  if (started_) return;
  setup_listener();
  started_ = true;
  thread_ = std::thread([this] { loop_.run(); });
  loop_.post([this] {
    loop_.add_fd(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_accept_ready(); });
    for (int peer = 0; peer < static_cast<int>(peers_.size()); ++peer) {
      if (peers_[static_cast<std::size_t>(peer)] != nullptr && i_dial(peer)) dial(peer);
    }
    loop_.schedule_after(config_.heartbeat_interval_ms, [this] { heartbeat_sweep(); });
  });
}

void TcpTransport::stop() {
  if (!started_) return;
  loop_.post([this] {
    for (int peer = 0; peer < static_cast<int>(peers_.size()); ++peer) {
      Peer* p = peers_[static_cast<std::size_t>(peer)].get();
      if (p == nullptr) continue;
      if (p->redial_timer != 0) loop_.cancel_timer(p->redial_timer);
      if (p->ack_timer != 0) loop_.cancel_timer(p->ack_timer);
      if (p->conn != nullptr) {
        close_conn(*p->conn);
        p->conn.reset();
      }
    }
    for (auto& [fd, conn] : pending_accepts_) {
      loop_.remove_fd(fd);
      ::close(fd);
      conn->fd = -1;
    }
    pending_accepts_.clear();
    if (listen_fd_ >= 0) {
      loop_.remove_fd(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    loop_.stop();
  });
  thread_.join();
  started_ = false;
}

void TcpTransport::send(int peer, Bytes payload, std::uint32_t group) {
  SINTRA_REQUIRE(peer >= 0 && peer < static_cast<int>(peers_.size()) && peer != config_.node_id,
                 "tcp: send to bad peer");
  loop_.post([this, peer, group, payload = std::move(payload)]() mutable {
    Peer& p = *peers_[static_cast<std::size_t>(peer)];
    p.link.enqueue(std::move(payload), group);
    // Defer the flush: every send() posted in the same reactor batch
    // enqueues first, then one flush task coalesces them into one BATCH
    // frame (the loop drains posted tasks in whole batches, and a task
    // posted mid-drain runs after the current batch).
    schedule_flush(peer);
  });
}

void TcpTransport::send_many(int peer, std::vector<GroupPayload> payloads) {
  SINTRA_REQUIRE(peer >= 0 && peer < static_cast<int>(peers_.size()) && peer != config_.node_id,
                 "tcp: send to bad peer");
  if (payloads.empty()) return;
  loop_.post([this, peer, payloads = std::move(payloads)]() mutable {
    Peer& p = *peers_[static_cast<std::size_t>(peer)];
    for (GroupPayload& payload : payloads) {
      p.link.enqueue(std::move(payload.payload), payload.group);
    }
    if (p.conn != nullptr && p.conn->established) flush_link(peer);
  });
}

void TcpTransport::schedule_flush(int peer) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  if (p.flush_posted) return;
  p.flush_posted = true;
  loop_.post([this, peer] {
    Peer& owner = *peers_[static_cast<std::size_t>(peer)];
    owner.flush_posted = false;
    if (owner.conn != nullptr && owner.conn->established) flush_link(peer);
  });
}

TcpTransport::Stats TcpTransport::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

// --- dialing ----------------------------------------------------------

void TcpTransport::dial(int peer) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  p.redial_timer = 0;
  if (p.conn != nullptr) return;
  const int fd = make_socket();
  if (fd < 0) {
    schedule_redial(peer);
    return;
  }
  set_nodelay(fd);
  sockaddr_in addr = make_addr(config_.endpoints[static_cast<std::size_t>(peer)]);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  // EINTR on a nonblocking connect means the attempt proceeds
  // asynchronously (POSIX) — treat it exactly like EINPROGRESS.
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    ::close(fd);
    schedule_redial(peer);
    return;
  }
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->connecting = true;
  conn->last_recv_ms = loop_.now_ms();
  p.conn = conn;
  loop_.add_fd(fd, EPOLLOUT, [this, peer, wp = std::weak_ptr<Conn>(conn)](std::uint32_t events) {
    auto locked = wp.lock();
    Peer& owner = *peers_[static_cast<std::size_t>(peer)];
    if (locked == nullptr || owner.conn != locked) return;  // stale fd event
    if (locked->connecting) {
      on_dial_writable(peer);
    } else {
      on_conn_event(peer, events);
    }
  });
}

void TcpTransport::schedule_redial(int peer) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  if (!i_dial(peer) || p.redial_timer != 0) return;
  const int shift = std::min(p.backoff_attempt, kMaxBackoffShift);
  p.backoff_attempt += 1;
  std::uint64_t delay = std::min(config_.reconnect_max_ms, config_.reconnect_min_ms << shift);
  delay += rng_.below(delay / 2 + 1);  // seeded jitter against reconnect stampedes
  p.redial_timer = loop_.schedule_after(delay, [this, peer] { dial(peer); });
}

void TcpTransport::on_dial_writable(int peer) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  Conn& conn = *p.conn;
  int err = 0;
  socklen_t len = sizeof(err);
  ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    drop_connection(peer, /*redial=*/true);
    return;
  }
  conn.connecting = false;
  loop_.modify_fd(conn.fd, EPOLLIN);
  send_hello(conn, peer);
  try_write(peer);
}

// --- accepting --------------------------------------------------------

void TcpTransport::on_accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;  // interrupted, not out of connections
      return;
    }
    if (pending_accepts_.size() >= kMaxPendingAccepts) {
      ::close(fd);  // accept-flood guard
      continue;
    }
    set_nodelay(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->last_recv_ms = loop_.now_ms();
    pending_accepts_.emplace(fd, conn);
    loop_.add_fd(fd, EPOLLIN, [this, fd](std::uint32_t) { on_pending_readable(fd); });
  }
}

void TcpTransport::on_pending_readable(int fd) {
  auto it = pending_accepts_.find(fd);
  if (it == pending_accepts_.end()) return;
  std::shared_ptr<Conn> conn = it->second;
  auto reject = [&] {
    pending_accepts_.erase(fd);
    loop_.remove_fd(fd);
    ::close(fd);
  };
  std::uint8_t buf[kReadChunk];
  while (true) {
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got > 0) {
      append(conn->pending_buf, BytesView(buf, static_cast<std::size_t>(got)));
      if (conn->pending_buf.size() > kMaxPreHelloBytes) {
        reject();
        return;
      }
      continue;
    }
    if (got < 0 && errno == EINTR) continue;  // interrupted read: retry
    if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      reject();
      return;
    }
    break;  // EAGAIN: no more data now
  }
  bool corrupt = false;
  std::optional<Frame> frame = peek_frame_unauthenticated(conn->pending_buf, &corrupt);
  if (corrupt) {
    reject();
    return;
  }
  if (!frame.has_value()) return;  // HELLO still incomplete
  HelloBody hello;
  try {
    SINTRA_REQUIRE(frame->type == FrameType::kHello, "tcp: first frame must be HELLO");
    Reader reader(frame->body);
    hello = HelloBody::decode(reader);
    SINTRA_REQUIRE(hello.version == kProtocolVersion, "tcp: version mismatch");
    const int claimed = static_cast<int>(hello.node_id);
    SINTRA_REQUIRE(claimed >= 0 && claimed < static_cast<int>(peers_.size()) &&
                       claimed != config_.node_id && !i_dial(claimed),
                   "tcp: HELLO claims an id that would not dial us");
  } catch (const ProtocolError&) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.auth_failures;
    }
    reject();
    return;
  }
  // Authenticate the stream under the claimed peer's link key: the MAC is
  // what proves the claim (only the dealer-keyed peer can produce it), and
  // it is the membership fence too — a peer keyed for another epoch's
  // committee fails it here.
  FrameDecoder decoder;
  decoder.feed(conn->pending_buf);
  Frame authed;
  if (decoder.next(link_key(static_cast<int>(hello.node_id)), authed) !=
      FrameDecoder::Status::kFrame) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.auth_failures;
    }
    reject();
    return;
  }
  conn->decoder = std::move(decoder);  // keeps any bytes after the HELLO
  conn->pending_buf.clear();
  pending_accepts_.erase(fd);
  loop_.remove_fd(fd);
  adopt_connection(static_cast<int>(hello.node_id), conn, hello);
}

void TcpTransport::adopt_connection(int peer, std::shared_ptr<Conn> conn,
                                    const HelloBody& hello) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  if (p.conn != nullptr) {
    // The peer restarted (or redialed) while the old connection lingered:
    // the newest connection wins.
    drop_connection(peer, /*redial=*/false);
  }
  p.conn = conn;
  loop_.add_fd(conn->fd, EPOLLIN,
               [this, peer, wp = std::weak_ptr<Conn>(conn)](std::uint32_t events) {
                 auto locked = wp.lock();
                 Peer& owner = *peers_[static_cast<std::size_t>(peer)];
                 if (locked == nullptr || owner.conn != locked) return;
                 on_conn_event(peer, events);
               });
  send_hello(*conn, peer);
  const std::uint64_t low = config_.node_id < peer ? conn->my_nonce : hello.nonce;
  const std::uint64_t high = config_.node_id < peer ? hello.nonce : conn->my_nonce;
  conn->session_key = derive_session_key(link_key(peer), low, high);
  conn->established = true;
  conn->last_recv_ms = loop_.now_ms();
  p.health.reset(conn->last_recv_ms);  // old cadence died with the old socket
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.connects;
  }
  p.link.on_connected(hello.recv_cursor);
  flush_link(peer);
  try_write(peer);
}

// --- established-connection I/O ---------------------------------------

void TcpTransport::send_hello(Conn& conn, int peer) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  conn.my_nonce = rng_.next();
  HelloBody hello;
  hello.node_id = static_cast<std::uint32_t>(config_.node_id);
  hello.nonce = conn.my_nonce;
  hello.recv_cursor = p.link.recv_cursor();
  // A fresh connection's outq cannot be over quota; the check is vacuous.
  (void)queue_bytes(conn, encode_frame(FrameType::kHello, hello.encode(), link_key(peer)));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.frames_sent;
    ++stats_.hmacs_computed;
  }
}

void TcpTransport::close_conn(Conn& conn) {
  if (conn.fd >= 0) {
    loop_.remove_fd(conn.fd);
    ::close(conn.fd);
    conn.fd = -1;
  }
}

void TcpTransport::drop_connection(int peer, bool redial) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  if (p.conn == nullptr) return;
  const bool was_established = p.conn->established;
  close_conn(*p.conn);
  p.conn.reset();
  p.link.on_disconnected();
  if (p.ack_timer != 0) {
    loop_.cancel_timer(p.ack_timer);
    p.ack_timer = 0;
  }
  if (was_established) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.disconnects;
  }
  if (redial) schedule_redial(peer);
}

void TcpTransport::on_conn_event(int peer, std::uint32_t events) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  std::shared_ptr<Conn> conn = p.conn;
  if (conn == nullptr) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    drop_connection(peer, /*redial=*/true);
    return;
  }
  if ((events & EPOLLOUT) != 0) try_write(peer);
  if ((events & EPOLLIN) == 0) return;
  std::uint8_t buf[kReadChunk];
  while (p.conn == conn) {
    const ssize_t got = ::read(conn->fd, buf, sizeof(buf));
    if (got > 0) {
      conn->last_recv_ms = loop_.now_ms();
      p.health.record_arrival(conn->last_recv_ms);
      conn->decoder.feed(BytesView(buf, static_cast<std::size_t>(got)));
      while (p.conn == conn) {
        const BytesView key = conn->established ? BytesView(conn->session_key)
                                                : BytesView(link_key(peer));
        FrameType type = FrameType::kPing;
        BytesView body;
        const FrameDecoder::Status status = conn->decoder.next_view(key, type, body);
        if (status == FrameDecoder::Status::kNeedMore) break;
        if (status == FrameDecoder::Status::kCorrupt) {
          {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.auth_failures;
          }
          drop_connection(peer, /*redial=*/true);
          return;
        }
        handle_frame(peer, type, body);
      }
      continue;
    }
    if (got < 0 && errno == EINTR) continue;  // interrupted read: retry, not a dead peer
    if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      drop_connection(peer, /*redial=*/true);
      return;
    }
    break;  // EAGAIN
  }
}

void TcpTransport::handle_frame(int peer, FrameType type, BytesView body) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  Conn& conn = *p.conn;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.frames_received;
  }
  try {
    if (!conn.established) {
      // Dialer side: the peer's HELLO completes the handshake.
      SINTRA_REQUIRE(type == FrameType::kHello, "tcp: expected HELLO");
      Reader reader(body);
      const HelloBody hello = HelloBody::decode(reader);
      SINTRA_REQUIRE(hello.version == kProtocolVersion, "tcp: version mismatch");
      SINTRA_REQUIRE(static_cast<int>(hello.node_id) == peer, "tcp: HELLO claims wrong id");
      const std::uint64_t low = config_.node_id < peer ? conn.my_nonce : hello.nonce;
      const std::uint64_t high = config_.node_id < peer ? hello.nonce : conn.my_nonce;
      conn.session_key = derive_session_key(link_key(peer), low, high);
      conn.established = true;
      p.backoff_attempt = 0;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connects;
      }
      p.link.on_connected(hello.recv_cursor);
      flush_link(peer);
      try_write(peer);
      return;
    }
    switch (type) {
      case FrameType::kDataBatch: {
        // Coalesced super-frame; in-order records take the zero-copy fast
        // path — the payload view (a slice of the decoder buffer) goes
        // straight to the receiver, never becoming an owned Bytes here.
        std::uint64_t delivered = 0;
        const bool ack_now =
            receive_batch(p.link, body, [&](std::uint32_t group, BytesView payload) {
              ++delivered;
              receive_(peer, group, payload);
            });
        if (delivered > 0) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.payloads_delivered += delivered;
        }
        // Explicit ack now when the link asks, else arm the delayed-ack
        // timer so acks still flow under one-way load.
        if (ack_now) {
          send_ack(peer);
        } else if (p.link.ack_pending() && p.ack_timer == 0) {
          p.ack_timer = loop_.schedule_after(config_.ack_flush_ms, [this, peer] {
            Peer& owner = *peers_[static_cast<std::size_t>(peer)];
            owner.ack_timer = 0;
            if (owner.conn != nullptr && owner.conn->established && owner.link.ack_pending()) {
              send_ack(peer);
            }
          });
        }
        return;
      }
      case FrameType::kAck:
        p.link.on_ack(decode_ack(body));
        return;
      case FrameType::kPing:
        send_frame(peer, FrameType::kPong, {});
        try_write(peer);
        return;
      case FrameType::kPong:
        return;  // liveness already noted via last_recv_ms
      case FrameType::kHello:
        return;  // redundant HELLO: ignore
    }
  } catch (const ProtocolError&) {
    // Authenticated but malformed — still a misbehaving peer.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.auth_failures;
    }
    drop_connection(peer, /*redial=*/true);
  }
}

void TcpTransport::flush_link(int peer) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  if (p.conn == nullptr || !p.conn->established) return;
  // One length prefix and one HMAC per kMaxBatchBytes of payload instead
  // of one per message.
  for (BatchFrame& batch : take_batches(p.link, p.conn->session_key)) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.frames_sent;
      ++stats_.batches_sent;
      ++stats_.hmacs_computed;
      stats_.frames_coalesced += batch.records;
    }
    if (!queue_bytes(*p.conn, std::move(batch.bytes))) {
      // Outbuf quota blown: the peer stopped reading long ago.  Drop the
      // connection so the link rewinds and retransmits after reconnect —
      // never silently discard frames the link already counted as sent.
      drop_connection(peer, /*redial=*/true);
      return;
    }
  }
  const std::uint64_t resent = p.link.stats().retransmitted;
  if (resent != p.link_retransmitted_seen) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.retransmitted += resent - p.link_retransmitted_seen;
    p.link_retransmitted_seen = resent;
  }
  try_write(peer);
}

void TcpTransport::send_ack(int peer) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  if (p.conn == nullptr || !p.conn->established) return;
  send_frame(peer, FrameType::kAck, encode_ack(p.link.recv_cursor()));
  p.link.mark_ack_sent();
  try_write(peer);
}

void TcpTransport::send_frame(int peer, FrameType type, BytesView body) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  if (p.conn == nullptr) return;
  const BytesView key =
      p.conn->established ? BytesView(p.conn->session_key) : BytesView(link_key(peer));
  const bool ok = queue_bytes(*p.conn, encode_frame(type, body, key));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.frames_sent;
    ++stats_.hmacs_computed;
  }
  if (!ok) drop_connection(peer, /*redial=*/true);
}

bool TcpTransport::queue_bytes(Conn& conn, Bytes bytes) {
  if (conn.outbytes - conn.outpos + bytes.size() > kMaxConnOutbuf) {
    // The peer stopped reading long ago; the connection is dead.  Report
    // the overflow so the caller tears it down — dropping the connection
    // rewinds the link and retransmits on reconnect, whereas silently
    // discarding the frame here would desync link accounting from the
    // wire (frames counted sent but never transmitted).
    return false;
  }
  conn.outbytes += bytes.size();
  conn.outq.push_back(std::move(bytes));
  return true;
}

void TcpTransport::try_write(int peer) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  std::shared_ptr<Conn> conn = p.conn;
  if (conn == nullptr || conn->connecting || conn->fd < 0) return;
  while (!conn->outq.empty()) {
    // Scatter-gather: hand the kernel up to kMaxIov queued frames in one
    // sendmsg — one syscall per flush, no flattening copy.  MSG_NOSIGNAL
    // turns a peer that closed mid-send into an EPIPE errno handled
    // below instead of a process-killing SIGPIPE.
    iovec iov[kMaxIov];
    std::size_t iovcnt = 0;
    std::size_t skip = conn->outpos;
    for (const Bytes& chunk : conn->outq) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base = const_cast<std::uint8_t*>(chunk.data() + skip);
      iov[iovcnt].iov_len = chunk.size() - skip;
      ++iovcnt;
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t wrote = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (wrote > 0) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.writev_calls;
      }
      std::size_t remaining = static_cast<std::size_t>(wrote);
      while (remaining > 0) {
        Bytes& front = conn->outq.front();
        const std::size_t avail = front.size() - conn->outpos;
        if (remaining >= avail) {
          remaining -= avail;
          conn->outbytes -= front.size();
          conn->outq.pop_front();
          conn->outpos = 0;
        } else {
          conn->outpos += remaining;
          remaining = 0;
        }
      }
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;  // interrupted send: retry
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        loop_.modify_fd(conn->fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    drop_connection(peer, /*redial=*/true);
    return;
  }
  if (conn->want_write) {
    conn->want_write = false;
    loop_.modify_fd(conn->fd, EPOLLIN);
  }
}

void TcpTransport::heartbeat_sweep() {
  const std::uint64_t now = loop_.now_ms();
  for (int peer = 0; peer < static_cast<int>(peers_.size()); ++peer) {
    Peer* p = peers_[static_cast<std::size_t>(peer)].get();
    if (p == nullptr || p->conn == nullptr) continue;
    const std::uint64_t silence = now - p->conn->last_recv_ms;
    // Accrual health: the deadline adapts to this peer's observed arrival
    // cadence — a gray (slow but alive) peer earns a longer leash instead
    // of flapping, a dead one is still cut within max_factor * base.
    const std::uint64_t deadline = p->health.suspect_timeout_ms(config_.heartbeat_timeout_ms);
    if (silence > deadline) {
      // Dead link (stalled handshake or silent peer): tear down; the
      // dialing side backs off and redials.
      drop_connection(peer, /*redial=*/true);
      continue;
    }
    if (silence > config_.heartbeat_timeout_ms) {
      // Survived only thanks to the adaptive extension.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.health_extensions;
    }
    if (p->conn->established) {
      send_frame(peer, FrameType::kPing, {});
      try_write(peer);
    }
  }
  loop_.schedule_after(config_.heartbeat_interval_ms, [this] { heartbeat_sweep(); });
}

}  // namespace sintra::net::transport
