#include "svc/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace zeroone {
namespace svc {

namespace {

// Writes all of `data` to a *blocking* `fd`, ignoring SIGPIPE (the peer may
// have gone). Used by the legacy reader model and for one-shot refusal
// frames on freshly accepted sockets. Returns false when the peer closed or
// the send timed out (SO_SNDTIMEO): a frame may then have been written
// partially, so the stream is desynced and the caller must stop writing to
// this connection entirely.
bool WriteAll(int fd, std::string_view data) {
  if (ZO_FAULT_POINT("svc.send.partial")) {
    // Simulated torn send: half a frame leaves the socket, then the
    // "connection" fails. The caller must latch the stream broken, exactly
    // as for a real partial send.
    if (data.size() > 1) {
      (void)::send(fd, data.data(), data.size() / 2, MSG_NOSIGNAL);
    }
    return false;
  }
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

// One event-loop shard: an epoll instance, a self-pipe for cross-thread
// wakeups (worker completions, shutdown — a thread parked in epoll_wait
// notices nothing else), and the connections assigned to it. Mutex-guarded
// fields are the cross-thread mailbox; the rest belongs to the loop thread.
struct EventLoop {
  int epoll_fd = -1;
  int wake[2] = {-1, -1};  // [0] registered in epoll with data.ptr == null.
  std::thread thread;

  std::mutex mutex;
  std::vector<std::shared_ptr<Conn>> incoming;     // Accepted conns.
  std::vector<std::shared_ptr<Conn>> flush_queue;  // Outbox gained data.
  bool shutdown_reads = false;  // Drain: half-close every connection.
  bool stop_when_idle = false;  // Drain: exit once every conn is retired.
  bool wake_pending = false;    // Coalesces self-pipe bytes.

  // Loop-thread-only state.
  std::vector<std::shared_ptr<Conn>> conns;
  bool shut_reads_done = false;
  bool drain_deadline_set = false;
  std::chrono::steady_clock::time_point drain_deadline;

  ~EventLoop() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake[0] >= 0) ::close(wake[0]);
    if (wake[1] >= 0) ::close(wake[1]);
  }

  // Caller holds `mutex`.
  void WakeLocked() {
    if (wake_pending) return;
    wake_pending = true;
    ZO_COUNTER_INC("svc.epoll.wakeups");
    char byte = 'w';
    [[maybe_unused]] ssize_t n = ::write(wake[1], &byte, 1);
  }

  void NotifyFlush(std::shared_ptr<Conn> conn) {
    std::lock_guard<std::mutex> lock(mutex);
    flush_queue.push_back(std::move(conn));
    WakeLocked();
  }
};

// ---------------------------------------------------------------------------
// Conn
//
// Responses are delivered in request-arrival order: the protocol handler
// assigns each request a slot in `pending_`, workers fill slots out of
// order, and whoever fills the front moves the longest completed prefix
// onward.
//
// Epoll mode (loop_ != nullptr): completed frames go into the bounded
// outbox_ and the owning event loop is woken to flush them nonblockingly —
// workers never touch the socket. A client that stops reading grows the
// outbox past its cap, which latches broken_ and shuts the socket down.
//
// Legacy mode (loop_ == nullptr): whoever completes the front flushes it to
// the (blocking) socket directly; `writing_` serializes flushers, and a
// send timeout (SO_SNDTIMEO) bounds slow readers.

Conn::Conn(Transport* transport, EventLoop* loop, int fd,
           std::size_t outbox_cap)
    : transport_(transport), loop_(loop), fd_(fd), outbox_cap_(outbox_cap) {
  transport_->live_connections_.fetch_add(1, std::memory_order_relaxed);
}

Conn::~Conn() {
  transport_->live_connections_.fetch_sub(1, std::memory_order_relaxed);
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t Conn::ReserveSlot() {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.emplace_back();
  return base_seq_ + pending_.size() - 1;
}

void Conn::CompleteSlot(std::uint64_t seq, std::string frame) {
  if (loop_ == nullptr) {
    CompleteSlotLegacy(seq, std::move(frame));
    return;
  }
  bool notify = false;
  bool overflowed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_[static_cast<std::size_t>(seq - base_seq_)] = std::move(frame);
    while (!pending_.empty() && pending_.front().has_value()) {
      std::string next = std::move(*pending_.front());
      pending_.pop_front();
      ++base_seq_;
      if (broken_) continue;  // Discard: the stream is already torn down.
      outbox_bytes_ += next.size();
      ZO_COUNTER_ADD("svc.server.outbox_bytes_enqueued", next.size());
      outbox_.push_back(std::move(next));
      notify = true;
      if (outbox_bytes_ > outbox_cap_) {
        // Backpressure contract (docs/serving.md): a client that stops
        // reading costs one bounded buffer, then gets disconnected.
        MarkBrokenLocked();
        overflowed = true;
      }
    }
  }
  if (overflowed) {
    ZO_COUNTER_INC("svc.server.outbox_overflows");
    transport_->CountOutboxOverflow();
  }
  if (notify) {
    loop_->NotifyFlush(std::static_pointer_cast<Conn>(shared_from_this()));
  }
}

Conn::FlushResult Conn::FlushOutbox() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (broken_) return FlushResult::kBroken;
  while (!outbox_.empty()) {
    const std::string& front = outbox_.front();
    if (ZO_FAULT_POINT("svc.send.partial")) {
      // Same torn-send contract as WriteAll's site: half the remaining
      // frame escapes, then the connection is latched broken.
      std::size_t remaining = front.size() - write_offset_;
      if (remaining > 1) {
        (void)::send(fd_, front.data() + write_offset_, remaining / 2,
                     MSG_NOSIGNAL | MSG_DONTWAIT);
      }
      MarkBrokenLocked();
      return FlushResult::kBroken;
    }
    if (ZO_FAULT_POINT("svc.epoll.write.fail")) {
      // Simulated clean write failure (EPIPE-style): nothing further may
      // be written, tear the connection down.
      ZO_COUNTER_INC("svc.server.injected_epoll_write_fails");
      MarkBrokenLocked();
      return FlushResult::kBroken;
    }
    ssize_t n = ::send(fd_, front.data() + write_offset_,
                       front.size() - write_offset_,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      ZO_COUNTER_ADD("svc.server.outbox_bytes_flushed",
                     static_cast<std::uint64_t>(n));
      write_offset_ += static_cast<std::size_t>(n);
      outbox_bytes_ -= static_cast<std::size_t>(n);
      if (write_offset_ == front.size()) {
        outbox_.pop_front();
        write_offset_ = 0;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return FlushResult::kWantWrite;
    }
    // Peer closed or reset mid-frame: the framing is desynced for good.
    MarkBrokenLocked();
    return FlushResult::kBroken;
  }
  MaybeShutdownWriteLocked();
  return done_ ? FlushResult::kDone : FlushResult::kIdle;
}

void Conn::ShutdownRead() { ::shutdown(fd_, SHUT_RD); }

void Conn::AbortReading() {
  ::shutdown(fd_, SHUT_RD);
  FinishReading();
}

void Conn::FinishReading() {
  std::lock_guard<std::mutex> lock(mutex_);
  reading_done_ = true;
  MaybeShutdownWriteLocked();
}

bool Conn::reading_done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reading_done_;
}

bool Conn::IsDone() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return broken_ || done_;
}

void Conn::MarkBroken() {
  std::lock_guard<std::mutex> lock(mutex_);
  MarkBrokenLocked();
}

// Legacy inline flush: socket writes happen with the mutex released so a
// client that stops reading blocks only the one flushing thread in
// send(), not every worker finishing a request for this connection (nor
// the reader in ReserveSlot). `writing_` serializes flushers; whoever
// holds it keeps draining frames completed by others in the meantime.
void Conn::CompleteSlotLegacy(std::uint64_t seq, std::string frame) {
  std::unique_lock<std::mutex> lock(mutex_);
  pending_[static_cast<std::size_t>(seq - base_seq_)] = std::move(frame);
  if (writing_) return;  // The active flusher will pick this frame up.
  writing_ = true;
  while (!pending_.empty() && pending_.front().has_value()) {
    std::string next = std::move(*pending_.front());
    pending_.pop_front();
    ++base_seq_;
    if (broken_) continue;  // Discard: the stream is already desynced.
    lock.unlock();
    bool ok = WriteAll(fd_, next);
    lock.lock();
    if (!ok) {
      // A partial or timed-out send leaves the framing desynced; writing
      // later frames would feed the client garbage. Tear the connection
      // down instead so it sees a broken socket.
      broken_ = true;
      ::shutdown(fd_, SHUT_RDWR);
    }
  }
  writing_ = false;
  MaybeShutdownWriteLocked();
}

void Conn::MarkBrokenLocked() {
  if (broken_) return;
  broken_ = true;
  outbox_.clear();
  outbox_bytes_ = 0;
  write_offset_ = 0;
  ::shutdown(fd_, SHUT_RDWR);
}

void Conn::MaybeShutdownWriteLocked() {
  if (loop_ != nullptr) {
    if (reading_done_ && pending_.empty() && outbox_.empty() && !broken_ &&
        !done_) {
      ::shutdown(fd_, SHUT_WR);
      done_ = true;
    }
    return;
  }
  // !writing_: a flusher may be mid-send() with mutex_ released and
  // pending_ momentarily empty; it re-runs this check when it finishes.
  if (reading_done_ && pending_.empty() && !writing_) {
    ::shutdown(fd_, SHUT_WR);
  }
}

// ---------------------------------------------------------------------------
// Transport

Transport::Transport(const TransportOptions& options, TransportHooks hooks)
    : options_(options), hooks_(std::move(hooks)) {}

Transport::~Transport() {
  BeginShutdown();
  JoinReaders();
  StopAndJoin();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

Status Transport::Bind() {
  if (bound_.exchange(true)) {
    return Status::Error("transport already bound");
  }
  if (::pipe(wake_pipe_) != 0) {
    return Status::Error("pipe failed: ", std::strerror(errno));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Error("socket failed: ", std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::Error("bad listen address '", options_.host, "'");
  }
  // EADDRINUSE gets retried with backoff for a bounded window: after a
  // SIGKILL the predecessor's socket may linger briefly even with
  // SO_REUSEADDR (e.g. an orphaned process still closing), and restart
  // supervisors should not flake on that.
  const auto bind_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.bind_retry_ms);
  std::uint64_t backoff_ms = 10;
  for (;;) {
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) == 0) {
      break;
    }
    if (errno != EADDRINUSE ||
        std::chrono::steady_clock::now() >= bind_deadline) {
      return Status::Error("bind to ", options_.host, ":", options_.port,
                           " failed: ", std::strerror(errno));
    }
    ZO_COUNTER_INC("svc.server.bind_retries");
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min<std::uint64_t>(backoff_ms * 2, 200);
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::Error("listen failed: ", std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  return Status::Ok();
}

Status Transport::Serve() {
  if (!options_.legacy_readers) {
    std::size_t count = options_.event_threads;
    if (count == 0) {
      unsigned hw = std::thread::hardware_concurrency();
      count = std::min<std::size_t>(4, hw == 0 ? 1 : hw);
    }
    count = std::max<std::size_t>(1, count);
    for (std::size_t i = 0; i < count; ++i) {
      auto loop = std::make_unique<EventLoop>();
      loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (loop->epoll_fd < 0) {
        return Status::Error("epoll_create1 failed: ", std::strerror(errno));
      }
      if (::pipe(loop->wake) != 0) {
        return Status::Error("pipe failed: ", std::strerror(errno));
      }
      SetNonBlocking(loop->wake[0]);
      SetNonBlocking(loop->wake[1]);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = nullptr;  // Sentinel: the loop's own wake pipe.
      if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake[0], &ev) !=
          0) {
        return Status::Error("epoll_ctl failed: ", std::strerror(errno));
      }
      loops_.push_back(std::move(loop));
    }
    for (auto& loop : loops_) {
      EventLoop* raw = loop.get();
      raw->thread = std::thread([this, raw] { EventLoopRun(raw); });
    }
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

Status Transport::Start() {
  Status bound = Bind();
  if (!bound.ok()) return bound;
  return Serve();
}

void Transport::AcceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int rc = ::poll(fds, 2, 200);
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (rc <= 0) continue;
    if ((fds[1].revents & POLLIN) != 0) return;  // Woken for shutdown.
    if ((fds[0].revents & POLLIN) == 0) continue;
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    if (ZO_FAULT_POINT("svc.accept.drop")) {
      // Simulated accept-time failure: the connection dies before the
      // client sees a single byte, as if the server crashed right here.
      ZO_COUNTER_INC("svc.server.injected_accept_drops");
      ::close(client);
      continue;
    }
    if (options_.max_conns != 0 &&
        live_connections_.load(std::memory_order_relaxed) >=
            options_.max_conns) {
      // Admission control at the connection level: refuse explicitly
      // instead of letting an unbounded connection count exhaust memory.
      ZO_COUNTER_INC("svc.server.connections_refused");
      if (hooks_.refusal_frame != nullptr) {
        WriteAll(client, hooks_.refusal_frame(RefusalReason::kMaxConns));
      }
      {
        // Count before close: a client that saw EOF must already see the
        // refusal in stats() (svc_test polls exactly that ordering).
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connections_refused;
      }
      ::close(client);
      continue;
    }
    if (options_.so_sndbuf > 0) {
      ::setsockopt(client, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                   sizeof(options_.so_sndbuf));
    }
    ZO_COUNTER_INC("svc.server.connections");
    if (options_.legacy_readers) {
      // A client that stops reading must not wedge a worker (or the drain)
      // in send(): bound the blocking write time, then drop the frame.
      timeval send_timeout{30, 0};
      ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                   sizeof(send_timeout));
      auto conn = std::make_shared<Conn>(this, nullptr, client,
                                         options_.outbox_max_bytes);
      conn->set_handler(hooks_.make_handler(conn.get()));
      {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        if (stopping_.load(std::memory_order_relaxed)) {
          // Raced with shutdown: refuse politely.
          if (hooks_.refusal_frame != nullptr) {
            WriteAll(client,
                     hooks_.refusal_frame(RefusalReason::kShuttingDown));
          }
          continue;  // conn closes the fd on destruction.
        }
        connections_.push_back(conn);
        reader_threads_.emplace_back(
            [this, conn] { ServeConnection(conn); });
      }
    } else {
      SetNonBlocking(client);
      EventLoop* loop = loops_[next_loop_++ % loops_.size()].get();
      auto conn = std::make_shared<Conn>(this, loop, client,
                                         options_.outbox_max_bytes);
      conn->set_handler(hooks_.make_handler(conn.get()));
      if (stopping_.load(std::memory_order_relaxed)) {
        if (hooks_.refusal_frame != nullptr) {
          WriteAll(client,
                   hooks_.refusal_frame(RefusalReason::kShuttingDown));
        }
        continue;  // conn closes the fd on destruction.
      }
      std::lock_guard<std::mutex> lock(loop->mutex);
      loop->incoming.push_back(std::move(conn));
      loop->WakeLocked();
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections_accepted;
    }
  }
}

// ---------------------------------------------------------------------------
// Epoll event loop

void Transport::EventLoopRun(EventLoop* loop) {
  epoll_event events[64];
  for (;;) {
    int ready = ::epoll_wait(loop->epoll_fd, events,
                             static_cast<int>(std::size(events)), 200);
    if (ready < 0) {
      if (errno != EINTR) {
        ZO_COUNTER_INC("svc.epoll.wait_errors");
      }
      ready = 0;
    }
    if (ready > 0 && ZO_FAULT_POINT("svc.epoll.wait.fail")) {
      // Simulated transient epoll_wait failure: this batch of readiness
      // events is dropped. Level-triggered epoll re-reports them on the
      // next wait, so the only observable effect is latency — exactly a
      // kernel hiccup, never lost work.
      ZO_COUNTER_INC("svc.server.injected_epoll_wait_drops");
      ready = 0;
    }
    if (ready > 0) {
      ZO_COUNTER_ADD("svc.epoll.ready_events",
                     static_cast<std::uint64_t>(ready));
    }
    for (int i = 0; i < ready; ++i) {
      if (events[i].data.ptr == nullptr) {
        char buf[256];
        while (::read(loop->wake[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      auto* raw = static_cast<Conn*>(events[i].data.ptr);
      std::shared_ptr<Conn> conn =
          std::static_pointer_cast<Conn>(raw->shared_from_this());
      std::uint32_t mask = events[i].events;
      if ((mask & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP)) != 0) {
        HandleReadable(conn);
      }
      if ((mask & EPOLLOUT) != 0) {
        FlushConnection(loop, conn);
      }
    }
    // Drain the cross-thread mailbox: newly accepted connections, flush
    // notifications from workers, and drain directives.
    std::vector<std::shared_ptr<Conn>> incoming;
    std::vector<std::shared_ptr<Conn>> flushes;
    bool shut_reads = false;
    bool stop_idle = false;
    {
      std::lock_guard<std::mutex> lock(loop->mutex);
      incoming.swap(loop->incoming);
      flushes.swap(loop->flush_queue);
      shut_reads = loop->shutdown_reads;
      stop_idle = loop->stop_when_idle;
      loop->wake_pending = false;
    }
    for (auto& conn : incoming) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.ptr = conn.get();
      if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, conn->fd(), &ev) != 0) {
        continue;  // Dropped; the destructor closes the fd.
      }
      conn->set_registered(true);
      loop->conns.push_back(conn);
      if (shut_reads) {
        // Raced with drain: half-close immediately and process the EOF now
        // (the local SHUT_RD itself produces no fresh epoll event).
        conn->ShutdownRead();
        HandleReadable(conn);
      }
    }
    for (auto& conn : flushes) FlushConnection(loop, conn);
    if (shut_reads && !loop->shut_reads_done) {
      loop->shut_reads_done = true;
      for (auto& conn : loop->conns) {
        conn->ShutdownRead();
        HandleReadable(conn);
      }
    }
    SweepConnections(loop);
    if (stop_idle) {
      if (!loop->drain_deadline_set) {
        loop->drain_deadline_set = true;
        loop->drain_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.drain_flush_timeout_ms);
      }
      for (auto& conn : loop->conns) FlushConnection(loop, conn);
      SweepConnections(loop);
      if (loop->conns.empty()) return;
      if (std::chrono::steady_clock::now() >= loop->drain_deadline) {
        // Peers that stopped reading would hold the drain forever; declare
        // them broken (same contract as the legacy send timeout).
        for (auto& conn : loop->conns) conn->MarkBroken();
        SweepConnections(loop);
        return;
      }
    }
  }
}

void Transport::HandleReadable(const std::shared_ptr<Conn>& conn) {
  if (!conn->registered() || conn->reading_done()) return;
  char chunk[4096];
  // Fairness bound: a client blasting pipelined requests yields the loop
  // after this many reads; level-triggered epoll re-reports the rest.
  int rounds = 16;
  for (;;) {
    if (ZO_FAULT_POINT("svc.epoll.read.fail")) {
      // Simulated mid-stream connection reset: stop reading as if the peer
      // vanished. Reserved slots still get answered and flushed.
      ZO_COUNTER_INC("svc.server.injected_epoll_read_resets");
      conn->AbortReading();
      return;
    }
    ssize_t n = ::recv(conn->fd(), chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      conn->FinishReading();  // Reset or error: treat as EOF.
      return;
    }
    if (n == 0) {
      conn->FinishReading();
      return;
    }
    conn->handler()->OnData(
        std::string_view(chunk, static_cast<std::size_t>(n)));
    // The handler may have torn the read side down (framing violation).
    if (conn->reading_done()) return;
    if (static_cast<std::size_t>(n) < sizeof(chunk)) return;  // Drained.
    if (--rounds == 0) return;
  }
}

void Transport::FlushConnection(EventLoop* loop,
                                const std::shared_ptr<Conn>& conn) {
  if (!conn->registered()) return;
  Conn::FlushResult result = conn->FlushOutbox();
  bool want_write = result == Conn::FlushResult::kWantWrite;
  if (want_write != conn->want_write()) {
    conn->set_want_write(want_write);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | (want_write ? EPOLLOUT : 0u);
    ev.data.ptr = conn.get();
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd(), &ev);
  }
}

void Transport::SweepConnections(EventLoop* loop) {
  auto& conns = loop->conns;
  for (std::size_t i = 0; i < conns.size();) {
    if (conns[i]->IsDone()) {
      // Deregister before dropping the loop's reference: workers may still
      // hold the shared_ptr (and call CompleteSlot, which discards), but no
      // further epoll event can reference the raw pointer.
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conns[i]->fd(), nullptr);
      conns[i]->set_registered(false);
      conns[i] = std::move(conns.back());
      conns.pop_back();
    } else {
      ++i;
    }
  }
}

void Transport::CountOutboxOverflow() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.outbox_overflows;
}

// ---------------------------------------------------------------------------
// Legacy reader model

void Transport::ServeConnection(std::shared_ptr<Conn> conn) {
  // Whatever path exits the read loop, let the connection half-close its
  // write side once all reserved slots are answered.
  struct ReadingGuard {
    Conn* conn;
    ~ReadingGuard() { conn->FinishReading(); }
  } guard{conn.get()};
  char chunk[4096];
  for (;;) {
    if (ZO_FAULT_POINT("svc.recv.reset")) {
      // Simulated mid-stream connection reset: stop reading as if the
      // peer vanished. Reserved slots still get answered and flushed.
      ZO_COUNTER_INC("svc.server.injected_recv_resets");
      ::shutdown(conn->fd(), SHUT_RD);
      return;
    }
    ssize_t n = ::recv(conn->fd(), chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // EOF or error: client is done.
    conn->handler()->OnData(
        std::string_view(chunk, static_cast<std::size_t>(n)));
    // The handler answers framing violations itself and stops the read
    // side; the guard then completes the half-close.
    if (conn->reading_done()) return;
  }
}

// ---------------------------------------------------------------------------
// Drain

void Transport::BeginShutdown() {
  char byte = 's';
  if (stopping_.exchange(true)) {
    if (wake_pipe_[1] >= 0) {
      [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
    }
    return;
  }
  if (wake_pipe_[1] >= 0) {
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  // Half-close every connection: readers see EOF and stop submitting. The
  // event loops need an explicit self-pipe wakeup — a thread parked in
  // epoll_wait notices nothing else.
  for (auto& loop : loops_) {
    std::lock_guard<std::mutex> lock(loop->mutex);
    loop->shutdown_reads = true;
    loop->WakeLocked();
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (const auto& conn : connections_) conn->ShutdownRead();
}

void Transport::JoinReaders() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // Close the listen socket so late connects are refused outright instead
  // of sitting unanswered in the accept backlog.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Legacy readers are joinable once their sockets are half-closed; the
  // epoll loops keep running through the worker-pool drain so completed
  // responses still get flushed.
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    readers.swap(reader_threads_);
  }
  for (std::thread& reader : readers) {
    if (reader.joinable()) reader.join();
  }
}

void Transport::StopAndJoin() {
  // Only after the worker pool is drained may the event loops stop — they
  // still have outboxes to flush. Each loop exits once every connection is
  // retired (flushed + EOF, broken, or past the drain flush timeout), and
  // must be woken explicitly to notice the directive.
  for (auto& loop : loops_) {
    std::lock_guard<std::mutex> lock(loop->mutex);
    loop->stop_when_idle = true;
    loop->WakeLocked();
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.clear();  // Closes fds once workers release their refs.
}

Transport::Stats Transport::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace svc
}  // namespace zeroone
