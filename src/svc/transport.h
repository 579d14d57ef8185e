#ifndef ZEROONE_SVC_TRANSPORT_H_
#define ZEROONE_SVC_TRANSPORT_H_

// The protocol-agnostic connection core of the serving stack.
//
// Transport owns everything below the wire protocol: the listen socket and
// accept thread, a small fixed pool of epoll event-loop threads with
// self-pipe wakeups, nonblocking per-connection IO, byte-bounded outboxes
// with slow-reader disconnection, connection-count admission (max_conns),
// and the graceful-drain state machine. It knows nothing about frames: raw
// bytes read from a socket are handed to the connection's ProtocolHandler,
// and the handler pushes complete response frames (opaque byte strings)
// back through the Channel slot interface.
//
// Channel: what a protocol handler drives. ReserveSlot/CompleteSlot give
// in-arrival-order response delivery with out-of-order completion (workers
// fill slots whenever they finish; the transport flushes the longest
// completed prefix), so every protocol gets pipelining for free.
// AbortReading tears down the read side after an unrecoverable framing
// violation while still answering and flushing reserved slots.
//
// The ZO1 newline protocol (svc/frontend.h) and the HTTP/1.1 gateway
// (svc/http.h) are both ProtocolHandler implementations over this seam;
// the shard router (svc/router.h) reuses the same core for its front
// listeners. tests/svc_epoll_diff_test.cc proves the extraction
// byte-identical to the pre-split server.
//
// Legacy mode (TransportOptions::legacy_readers): one blocking reader
// thread per connection with inline blocking sends — the pre-epoll model,
// kept exclusively as the reference side of the differential battery.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"

namespace zeroone {
namespace svc {

class Transport;
struct EventLoop;

// What a protocol handler sees of its connection. Channels are owned by
// the transport; handlers hold a raw pointer (a handler never outlives its
// connection) and use shared_from_this() to keep the connection alive in
// asynchronous completion callbacks.
class Channel : public std::enable_shared_from_this<Channel> {
 public:
  virtual ~Channel() = default;

  // Reserves the next in-order response slot; returns its sequence number.
  virtual std::uint64_t ReserveSlot() = 0;

  // Fills a slot with a complete, protocol-encoded frame. Thread-safe;
  // called from worker threads as requests finish.
  virtual void CompleteSlot(std::uint64_t seq, std::string frame) = 0;

  // Read-side teardown after a protocol violation: no further input will
  // be parsed, but reserved slots still get answered and flushed.
  virtual void AbortReading() = 0;
};

// Per-connection protocol state machine. OnData is called with raw socket
// bytes on the owning event-loop thread (or the reader thread in legacy
// mode) — never concurrently for one connection.
class ProtocolHandler {
 public:
  virtual ~ProtocolHandler() = default;
  virtual void OnData(std::string_view bytes) = 0;
};

// Why the transport is refusing a connection at accept time. The protocol
// supplies the refusal bytes (a ZO1 OVERLOADED frame, an HTTP 503, ...)
// via TransportHooks::refusal_frame.
enum class RefusalReason { kMaxConns, kShuttingDown };

struct TransportOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; the bound port is Transport::port().
  // Event-loop (epoll) threads multiplexing all connections.
  // 0 = min(4, hw_concurrency). Ignored under legacy_readers.
  std::size_t event_threads = 0;
  // Connection admission limit; 0 = unlimited.
  std::size_t max_conns = 0;
  // Byte bound on one connection's queued-but-unsent responses.
  std::size_t outbox_max_bytes = 8 * 1024 * 1024;
  // Pre-epoll model: one blocking reader thread per connection.
  bool legacy_readers = false;
  // SO_SNDBUF for accepted sockets; 0 = kernel default.
  int so_sndbuf = 0;
  // On EADDRINUSE, keep retrying bind with backoff for this long.
  std::uint64_t bind_retry_ms = 2000;
  // During drain, a connection whose outbox makes no progress for this
  // long is declared broken so StopAndJoin() terminates.
  std::uint64_t drain_flush_timeout_ms = 30000;
};

struct TransportHooks {
  // Builds the per-connection protocol handler. Required.
  std::function<std::unique_ptr<ProtocolHandler>(Channel* channel)>
      make_handler;
  // Protocol-encoded refusal bytes written (blocking, best-effort) to a
  // connection refused at accept time. Null = close without a frame.
  std::function<std::string(RefusalReason)> refusal_frame;
};

// One client connection (transport-internal; protocols only see Channel).
class Conn : public Channel {
 public:
  enum class FlushResult { kIdle, kWantWrite, kBroken, kDone };

  Conn(Transport* transport, EventLoop* loop, int fd, std::size_t outbox_cap);
  ~Conn() override;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  ProtocolHandler* handler() { return handler_.get(); }
  void set_handler(std::unique_ptr<ProtocolHandler> handler) {
    handler_ = std::move(handler);
  }

  // Channel interface (see above).
  std::uint64_t ReserveSlot() override;
  void CompleteSlot(std::uint64_t seq, std::string frame) override;
  void AbortReading() override;

  // Nonblocking drain of the outbox. Called only by the owning event loop.
  FlushResult FlushOutbox();

  // Half-closes the read side; the reader (thread or event loop) observes
  // EOF and stops submitting. Queued responses can still be written.
  void ShutdownRead();

  // Called when reading stops (client EOF, framing error, or drain). Once
  // every reserved slot has been answered and flushed, the write side is
  // half-closed so clients reading until EOF terminate promptly.
  void FinishReading();

  bool reading_done() const;

  // True once the connection can be retired: torn down, or fully answered
  // and flushed after EOF.
  bool IsDone() const;

  void MarkBroken();

  // Loop-thread-only accessors (epoll mode).
  bool registered() const { return registered_; }
  void set_registered(bool registered) { registered_ = registered; }
  bool want_write() const { return want_write_; }
  void set_want_write(bool want) { want_write_ = want; }

 private:
  // Legacy inline flush; see the implementation comment in transport.cc.
  void CompleteSlotLegacy(std::uint64_t seq, std::string frame);
  void MarkBrokenLocked();
  void MaybeShutdownWriteLocked();

  Transport* const transport_;
  EventLoop* const loop_;  // Null in legacy mode.
  const int fd_;
  const std::size_t outbox_cap_;
  std::unique_ptr<ProtocolHandler> handler_;

  mutable std::mutex mutex_;
  std::deque<std::optional<std::string>> pending_;
  std::uint64_t base_seq_ = 0;
  std::deque<std::string> outbox_;   // Completed frames awaiting the socket.
  std::size_t outbox_bytes_ = 0;
  std::size_t write_offset_ = 0;     // Into outbox_.front().
  bool reading_done_ = false;
  bool writing_ = false;  // Legacy: a flusher is in send(), mutex released.
  bool broken_ = false;   // A send failed or the outbox overflowed.
  bool done_ = false;     // Epoll: fully answered + flushed after EOF.

  // Loop-thread-only (epoll mode).
  bool registered_ = false;
  bool want_write_ = false;
};

class Transport {
 public:
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_refused = 0;  // max_conns admission limit.
    std::uint64_t outbox_overflows = 0;     // Slow readers disconnected.
  };

  Transport(const TransportOptions& options, TransportHooks hooks);
  ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Binds and listens (resolving an ephemeral port) without serving yet,
  // so the owner can finish recovery work before any byte is read.
  Status Bind();
  // Starts the event-loop threads and the accept thread. Call after Bind().
  Status Serve();
  // Bind() + Serve().
  Status Start();

  // The port actually bound. Valid after Bind().
  int port() const { return port_; }

  // Event-loop threads serving connections (0 under legacy_readers).
  std::size_t event_threads() const { return loops_.size(); }

  // Drain, phase 1: stop accepting and half-close every connection for
  // reading. Readers observe EOF and stop submitting; in-flight responses
  // still flush. Idempotent, returns immediately.
  void BeginShutdown();
  // Drain, phase 2: join the accept thread and (legacy) reader threads and
  // close the listen socket. After this returns, no new request can enter
  // the system — safe to drain the worker pool.
  void JoinReaders();
  // Drain, phase 3: ask every event loop to exit once its connections are
  // retired (flushed + EOF, broken, or past drain_flush_timeout_ms) and
  // join them. Call only after the worker pool is drained: the loops are
  // what flush the final responses.
  void StopAndJoin();

  bool stopping() const { return stopping_.load(std::memory_order_relaxed); }

  Stats stats() const;

 private:
  friend class Conn;

  void AcceptLoop();
  void ServeConnection(std::shared_ptr<Conn> conn);  // Legacy reader body.
  void EventLoopRun(EventLoop* loop);
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void FlushConnection(EventLoop* loop, const std::shared_ptr<Conn>& conn);
  void SweepConnections(EventLoop* loop);
  void CountOutboxOverflow();

  const TransportOptions options_;
  const TransportHooks hooks_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // [0] polled by AcceptLoop.
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> bound_{false};
  std::atomic<std::size_t> live_connections_{0};

  std::thread accept_thread_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::size_t next_loop_ = 0;  // Accept thread only: round-robin assignment.

  // Legacy model state.
  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Conn>> connections_;
  std::vector<std::thread> reader_threads_;

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace svc
}  // namespace zeroone

#endif  // ZEROONE_SVC_TRANSPORT_H_
