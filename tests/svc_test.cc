// Tests for the zeroone::svc serving subsystem: the LRU result cache, the
// bounded executor, the session lock, the dispatcher's cache/invalidation
// behavior, and the TCP server end to end (concurrent correctness,
// overload rejection, deadlines, graceful drain).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "svc/cache.h"
#include "svc/client.h"
#include "svc/dispatch.h"
#include "svc/executor.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/session.h"

namespace zeroone {
namespace svc {
namespace {

// A small incomplete database: `certain` with kSlowQuery over it takes
// ~10-30ms (4 nulls).
constexpr const char* kFastDb =
    "R(2) = { (c1, _1), (c2, _2), (c3, _3), (c4, _4) }";
// With 5 nulls the same query takes several hundred ms — long enough that
// deadline, overload, and drain behavior are observable, short enough for
// a unit test.
constexpr const char* kSlowDb =
    "R(2) = { (c1, _1), (c2, _2), (c3, _3), (c4, _4), (c5, _5) }";
constexpr const char* kQuery = "Q(x) := exists y . R(x, y)";
// kQuery behind a double negation: the same answers, but outside Pos∀G and
// the UCQs, so `certain` still runs the exponential enumerator instead of
// naïve evaluation (core/exact_plan.h) — the slow work these tests need.
constexpr const char* kSlowQuery = "Q(x) := !(!(exists y . R(x, y)))";

Request MakeRequest(const std::string& command, const std::string& args = "",
                    const std::string& session = "default") {
  Request request;
  request.command = command;
  request.args = args;
  request.session = session;
  return request;
}

// ---------------------------------------------------------------------------
// LruCache

TEST(LruCacheTest, MissThenHit) {
  LruCache cache(4096);
  std::string value;
  EXPECT_FALSE(cache.Get("k", &value));
  cache.Put("k", "v");
  ASSERT_TRUE(cache.Get("k", &value));
  EXPECT_EQ(value, "v");
  LruCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LruCacheTest, OverwriteReplacesValue) {
  LruCache cache(4096);
  cache.Put("k", "old");
  cache.Put("k", "new");
  std::string value;
  ASSERT_TRUE(cache.Get("k", &value));
  EXPECT_EQ(value, "new");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedWithinByteBudget) {
  // Capacity fits exactly two entries (1-byte keys, 1-byte values).
  const std::size_t entry = 2 + LruCache::kEntryOverheadBytes;
  LruCache cache(2 * entry);
  cache.Put("a", "1");
  cache.Put("b", "2");
  std::string value;
  ASSERT_TRUE(cache.Get("a", &value));  // Refresh "a": now "b" is LRU.
  cache.Put("c", "3");                  // Evicts "b".
  EXPECT_TRUE(cache.Get("a", &value));
  EXPECT_FALSE(cache.Get("b", &value));
  EXPECT_TRUE(cache.Get("c", &value));
  LruCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 2 * entry);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(LruCacheTest, RejectsEntriesLargerThanCapacity) {
  LruCache cache(64);  // Smaller than the fixed per-entry overhead.
  cache.Put("k", "v");
  std::string value;
  EXPECT_FALSE(cache.Get("k", &value));
  EXPECT_EQ(cache.stats().oversized_rejections, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(LruCacheTest, EraseIfRemovesMatchingPrefix) {
  LruCache cache(4096);
  cache.Put("s1\x1f k1", "a");
  cache.Put("s1\x1f k2", "b");
  cache.Put("s2\x1f k1", "c");
  std::size_t removed = cache.EraseIf([](std::string_view key) {
    return key.substr(0, 3) == "s1\x1f";
  });
  EXPECT_EQ(removed, 2u);
  std::string value;
  EXPECT_FALSE(cache.Get("s1\x1f k1", &value));
  EXPECT_TRUE(cache.Get("s2\x1f k1", &value));
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(LruCacheTest, ClearEmptiesEverything) {
  LruCache cache(4096);
  cache.Put("a", "1");
  cache.Put("b", "2");
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// ---------------------------------------------------------------------------
// BoundedExecutor

TEST(BoundedExecutorTest, RejectsWhenQueueFull) {
  BoundedExecutor executor(/*threads=*/1, /*queue_capacity=*/1);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> done{0};
  // Occupy the single worker...
  ASSERT_TRUE(executor.TrySubmit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
    ++done;
  }));
  // ...and give the worker a moment to pick the task up, so the next
  // submission lands in the queue rather than going straight to a worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(executor.TrySubmit([&] { ++done; }));  // Fills the queue.
  // Queue full: reject, never block, never drop silently.
  EXPECT_FALSE(executor.TrySubmit([&] { ++done; }));
  EXPECT_GE(executor.stats().rejected, 1u);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  executor.Drain();
  EXPECT_EQ(done.load(), 2);  // Both accepted tasks ran; the reject did not.
}

TEST(BoundedExecutorTest, DrainCompletesAcceptedTasks) {
  std::atomic<int> done{0};
  {
    BoundedExecutor executor(/*threads=*/2, /*queue_capacity=*/16);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(executor.TrySubmit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ++done;
      }));
    }
    executor.Drain();
    EXPECT_EQ(done.load(), 10);
    EXPECT_FALSE(executor.TrySubmit([&] { ++done; }));  // After drain.
  }
  EXPECT_EQ(done.load(), 10);
}

// ---------------------------------------------------------------------------
// SessionMutex

// Three readers relay the shared lock: each releases only once a later
// reader holds it too (or after 1 ms), so between reads the lock is never
// free. A reader-preferring lock lets such readers starve a writer for as
// long as they run; the session lock must admit it once its grace period
// (250 ms) is up.
TEST(SvcSessionMutexTest, WriterIsNotStarvedByOverlappingReaders) {
  SessionMutex mutex;
  std::atomic<bool> stop{false};
  std::atomic<int> acquisitions{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop) {
        std::shared_lock<SessionMutex> lock(mutex);
        int mine = ++acquisitions;
        auto release_by =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
        while (acquisitions == mine &&
               std::chrono::steady_clock::now() < release_by) {
          std::this_thread::yield();
        }
      }
    });
  }
  while (acquisitions == 0) std::this_thread::yield();

  std::promise<void> acquired;
  std::future<void> writer_in = acquired.get_future();
  std::thread writer([&] {
    std::unique_lock<SessionMutex> lock(mutex);
    acquired.set_value();
  });
  bool in_time = writer_in.wait_for(std::chrono::seconds(10)) ==
                 std::future_status::ready;
  stop = true;
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(in_time) << "writer still waiting after 10 s behind readers";
}

// ---------------------------------------------------------------------------
// Dispatcher (in-process, no sockets)

TEST(DispatcherTest, CachesReadsAndInvalidatesOnMutation) {
  Dispatcher dispatcher(Dispatcher::Options{});
  EXPECT_EQ(dispatcher.Execute(MakeRequest("db", kFastDb)).status,
            WireStatus::kOk);
  EXPECT_EQ(dispatcher.Execute(MakeRequest("query", kQuery)).status,
            WireStatus::kOk);

  Response cold = dispatcher.Execute(MakeRequest("certain"));
  ASSERT_EQ(cold.status, WireStatus::kOk);
  Response warm = dispatcher.Execute(MakeRequest("certain"));
  EXPECT_EQ(warm.payload, cold.payload);
  EXPECT_GE(dispatcher.cache().stats().hits, 1u);

  // Mutating the session must invalidate: add a tuple, re-ask.
  EXPECT_EQ(dispatcher.Execute(MakeRequest("db", "R(2) = { (c9, c9) }")).status,
            WireStatus::kOk);
  Response after = dispatcher.Execute(MakeRequest("certain"));
  ASSERT_EQ(after.status, WireStatus::kOk);
  EXPECT_NE(after.payload, cold.payload);  // (c9) is now a certain answer.
  EXPECT_GE(dispatcher.cache().stats().invalidations, 1u);
}

TEST(DispatcherTest, NoCacheRequestsBypassTheCache) {
  Dispatcher dispatcher(Dispatcher::Options{});
  dispatcher.Execute(MakeRequest("db", kFastDb));
  dispatcher.Execute(MakeRequest("query", kQuery));
  Request request = MakeRequest("certain");
  request.no_cache = true;
  dispatcher.Execute(request);
  dispatcher.Execute(request);
  EXPECT_EQ(dispatcher.cache().stats().hits, 0u);
  EXPECT_EQ(dispatcher.cache().stats().insertions, 0u);
}

TEST(DispatcherTest, CancelledChaseLeavesSessionUntouched) {
  Dispatcher dispatcher(Dispatcher::Options{});
  // A repairable FD violation: an uncancelled chase would rewrite the db.
  EXPECT_EQ(
      dispatcher.Execute(MakeRequest("db", "R(2) = { (a, _h1), (a, b) }"))
          .status,
      WireStatus::kOk);
  EXPECT_EQ(dispatcher.Execute(MakeRequest("fd", "R 2 0 1")).status,
            WireStatus::kOk);
  Request show = MakeRequest("show");
  show.no_cache = true;  // Compare live session state, not cache entries.
  Response before = dispatcher.Execute(show);
  ASSERT_EQ(before.status, WireStatus::kOk);

  // A chase abandoned by cancellation must not commit the half-repaired
  // database to the session (or bump its version).
  CancelToken token;
  token.Cancel();
  Response cancelled;
  {
    ScopedCancelToken scoped(&token);
    cancelled = dispatcher.Execute(MakeRequest("chase"));
  }
  EXPECT_EQ(cancelled.status, WireStatus::kDeadlineExceeded);
  Response after = dispatcher.Execute(show);
  ASSERT_EQ(after.status, WireStatus::kOk);
  EXPECT_EQ(after.payload, before.payload);

  // Without deadline pressure the same chase commits the repair.
  Response chased = dispatcher.Execute(MakeRequest("chase"));
  ASSERT_EQ(chased.status, WireStatus::kOk);
  EXPECT_NE(dispatcher.Execute(show).payload, before.payload);
}

TEST(DispatcherTest, SessionsAreIsolated) {
  Dispatcher dispatcher(Dispatcher::Options{});
  dispatcher.Execute(MakeRequest("db", kFastDb, "alpha"));
  dispatcher.Execute(MakeRequest("query", kQuery, "alpha"));
  Response beta = dispatcher.Execute(MakeRequest("certain", "", "beta"));
  EXPECT_EQ(beta.status, WireStatus::kErr);  // beta has no query set.
  Response alpha = dispatcher.Execute(MakeRequest("certain", "", "alpha"));
  EXPECT_EQ(alpha.status, WireStatus::kOk);
}

// ---------------------------------------------------------------------------
// Server end to end

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    server_ = std::make_unique<Server>(options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.message();
  }

  BlockingClient Connect() {
    BlockingClient client;
    Status status = client.Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(status.ok()) << status.message();
    return client;
  }

  // Runs the session preamble (db + query) through `client`.
  void Preamble(BlockingClient& client, const std::string& db,
                const std::string& query = kQuery,
                const std::string& session = "default") {
    StatusOr<Response> r = client.Call(MakeRequest("db", db, session));
    ASSERT_TRUE(r.ok()) << r.status().message();
    ASSERT_EQ(r->status, WireStatus::kOk) << r->payload;
    r = client.Call(MakeRequest("query", query, session));
    ASSERT_TRUE(r.ok()) << r.status().message();
    ASSERT_EQ(r->status, WireStatus::kOk) << r->payload;
  }

  std::unique_ptr<Server> server_;
};

// Acceptance (a): concurrent clients observe answers bit-identical to a
// sequential evaluation of the same commands.
TEST_F(ServerTest, SixteenConcurrentClientsMatchSequentialAnswers) {
  ServerOptions options;
  options.threads = 4;
  options.queue_capacity = 256;
  StartServer(options);

  // Sequential reference: the same session state evaluated in-process.
  Dispatcher reference(Dispatcher::Options{});
  reference.Execute(MakeRequest("db", kFastDb));
  reference.Execute(MakeRequest("query", kQuery));
  const std::string expected_certain =
      reference.Execute(MakeRequest("certain")).payload;
  const std::string expected_possible =
      reference.Execute(MakeRequest("possible")).payload;
  const std::string expected_naive =
      reference.Execute(MakeRequest("naive")).payload;
  ASSERT_FALSE(expected_certain.empty());

  {
    BlockingClient setup = Connect();
    Preamble(setup, kFastDb);
  }

  constexpr int kClients = 16;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      BlockingClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        ++failures;
        return;
      }
      // Alternate cached and uncached so both paths are exercised under
      // concurrency.
      const struct {
        const char* command;
        const std::string* expected;
      } cases[] = {{"certain", &expected_certain},
                   {"possible", &expected_possible},
                   {"naive", &expected_naive}};
      for (int round = 0; round < 2; ++round) {
        for (const auto& c : cases) {
          Request request = MakeRequest(c.command);
          request.no_cache = (i + round) % 2 == 0;
          StatusOr<Response> response = client.Call(request);
          if (!response.ok() || response->status != WireStatus::kOk) {
            ++failures;
            return;
          }
          if (response->payload != *c.expected) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// Acceptance (b): a full bounded queue yields an explicit OVERLOADED
// response — requests are never silently dropped and the server never
// hangs.
TEST_F(ServerTest, FullQueueYieldsOverloaded) {
  ServerOptions options;
  options.threads = 1;
  options.queue_capacity = 1;
  StartServer(options);
  {
    BlockingClient setup = Connect();
    Preamble(setup, kSlowDb, kSlowQuery);
  }

  // Pipeline a burst of slow, uncacheable requests on one connection. The
  // first occupies the worker (~hundreds of ms), the second fits the
  // queue, and with a burst this size at least one must be rejected.
  constexpr int kBurst = 8;
  BlockingClient client = Connect();
  for (int i = 0; i < kBurst; ++i) {
    Request request = MakeRequest("certain");
    request.id = std::to_string(i + 1);
    request.no_cache = true;
    ASSERT_TRUE(client.Send(request).ok());
  }
  int ok = 0, overloaded = 0, other = 0;
  for (int i = 0; i < kBurst; ++i) {
    StatusOr<Response> response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().message();
    if (response->status == WireStatus::kOk) {
      ++ok;
    } else if (response->status == WireStatus::kOverloaded) {
      ++overloaded;
    } else {
      ++other;
    }
  }
  // Every request was answered (no hang, no silent drop)...
  EXPECT_EQ(ok + overloaded + other, kBurst);
  EXPECT_EQ(other, 0);
  // ...some ran, and the overflow was rejected explicitly.
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1);
  EXPECT_EQ(server_->stats().overloaded,
            static_cast<std::uint64_t>(overloaded));
}

// Acceptance (c): a request whose deadline expires mid-evaluation returns
// DEADLINE_EXCEEDED (cooperative cancellation inside the enumeration
// loops), and the cancelled partial result is never served from cache.
TEST_F(ServerTest, ExpiredDeadlineYieldsDeadlineExceeded) {
  StartServer(ServerOptions{});
  BlockingClient client = Connect();
  Preamble(client, kSlowDb, kSlowQuery);

  Request request = MakeRequest("certain");
  request.deadline_ms = 30;  // Far below the ~0.5s evaluation time.
  auto start = std::chrono::steady_clock::now();
  StatusOr<Response> response = client.Call(request);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, WireStatus::kDeadlineExceeded)
      << response->payload;
  // Cancellation is cooperative but prompt: far sooner than completion.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed),
            std::chrono::milliseconds(400));

  // The same query without a deadline must now compute the real answer —
  // the cancelled partial result must not have been cached.
  StatusOr<Response> full = client.Call(MakeRequest("certain"));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->status, WireStatus::kOk);
  EXPECT_NE(full->payload, response->payload);
}

// A deadline that already expired while the request sat in the queue is
// answered without starting the evaluation.
TEST_F(ServerTest, DeadlineCoversQueueTime) {
  ServerOptions options;
  options.threads = 1;
  options.queue_capacity = 4;
  StartServer(options);
  BlockingClient client = Connect();
  Preamble(client, kSlowDb, kSlowQuery);

  Request slow = MakeRequest("certain");
  slow.id = "1";
  slow.no_cache = true;
  ASSERT_TRUE(client.Send(slow).ok());  // Occupies the single worker.
  Request queued = MakeRequest("naive");
  queued.id = "2";
  queued.deadline_ms = 20;  // Will expire long before the worker frees up.
  ASSERT_TRUE(client.Send(queued).ok());

  StatusOr<Response> first = client.Receive();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, WireStatus::kOk);
  StatusOr<Response> second = client.Receive();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, WireStatus::kDeadlineExceeded);
  EXPECT_NE(second->payload.find("not started"), std::string::npos)
      << second->payload;
}

// Acceptance (d): SIGTERM-style drain finishes in-flight requests — every
// accepted request is answered before the server exits.
TEST_F(ServerTest, DrainFinishesInFlightRequests) {
  ServerOptions options;
  options.threads = 2;
  StartServer(options);
  BlockingClient client = Connect();
  Preamble(client, kSlowDb, kSlowQuery);

  Request slow = MakeRequest("certain");
  slow.no_cache = true;
  ASSERT_TRUE(client.Send(slow).ok());
  // Let the request reach a worker, then initiate drain mid-evaluation.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->BeginShutdown();

  // The in-flight response still arrives, complete and correct.
  StatusOr<Response> response = client.Receive();
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, WireStatus::kOk);
  EXPECT_NE(response->payload.find("(c"), std::string::npos)
      << response->payload;

  server_->Wait();
  // New connections are refused (or reset) after drain.
  BlockingClient late;
  if (late.Connect("127.0.0.1", server_->port()).ok()) {
    StatusOr<Response> refused = late.Call(MakeRequest("ping"));
    EXPECT_TRUE(!refused.ok() ||
                refused->status == WireStatus::kShuttingDown);
  }
}

// Responses on one connection come back in request order even when a slow
// request is pipelined before fast ones.
TEST_F(ServerTest, PipelinedResponsesArriveInOrder) {
  ServerOptions options;
  options.threads = 4;
  StartServer(options);
  BlockingClient client = Connect();
  Preamble(client, kFastDb, kSlowQuery);

  const char* ids[] = {"10", "11", "12", "13"};
  Request slow = MakeRequest("certain");
  slow.id = ids[0];
  slow.no_cache = true;
  ASSERT_TRUE(client.Send(slow).ok());
  for (int i = 1; i < 4; ++i) {
    Request fast = MakeRequest("ping");
    fast.id = ids[i];
    ASSERT_TRUE(client.Send(fast).ok());
  }
  for (const char* id : ids) {
    StatusOr<Response> response = client.Receive();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->id, id);
  }
}

// ---------------------------------------------------------------------------
// Adversarial clients (the epoll event loop must shrug all of these off)

// A raw socket for clients that misbehave below the Request abstraction:
// dribbling bytes, half-closing mid-frame, or never reading.
class RawSocket {
 public:
  ~RawSocket() { Close(); }

  bool Connect(int port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (rcvbuf > 0) {
      // Must be set before connect() to shrink the advertised window, so
      // the server's unsent bytes pile up in *its* outbox, not our kernel.
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool SendRaw(std::string_view bytes) {
    while (!bytes.empty()) {
      ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  // Reads until EOF or error; returns everything received.
  std::string ReadAll() {
    std::string all;
    char chunk[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return all;
      all.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd() const { return fd_; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

// Slowloris: a client dribbles a request line a byte at a time. The event
// loop must keep serving everyone else at full speed — the dribbler costs
// an input buffer, not a thread.
TEST_F(ServerTest, SlowlorisClientDoesNotStallOthers) {
  ServerOptions options;
  options.threads = 2;
  options.event_threads = 1;  // Worst case: dribbler shares the only loop.
  StartServer(options);

  RawSocket loris;
  ASSERT_TRUE(loris.Connect(server_->port()));
  const std::string line = "ping\n";
  BlockingClient other = Connect();
  std::uint64_t worst_us = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    ASSERT_TRUE(loris.SendRaw(line.substr(i, 1)));
    // Between dribbled bytes, a well-behaved client must see normal
    // latency on the same event loop.
    auto begin = std::chrono::steady_clock::now();
    StatusOr<Response> response = other.Call(MakeRequest("ping"));
    auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
    worst_us = std::max<std::uint64_t>(worst_us,
                                       static_cast<std::uint64_t>(elapsed));
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response->status, WireStatus::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Once the dribbled line completes, it is answered like any other.
  loris.ShutdownWrite();  // No more requests: the server EOFs back after.
  std::string frame = loris.ReadAll();
  EXPECT_NE(frame.find("ZO1 OK"), std::string::npos) << frame;
  // Generous bound (sanitizer-friendly): pings next to a stalled reader
  // must not take anywhere near a human-visible pause.
  EXPECT_LT(worst_us, 500000u) << "ping latency degraded to " << worst_us
                               << "us beside a slowloris client";
}

// Half-open: the client shuts down its write side mid-frame. The partial
// line is never answered; the server flushes nothing, half-closes back,
// and retires the connection instead of leaking it.
TEST_F(ServerTest, HalfOpenConnectionMidFrameIsRetired) {
  ServerOptions options;
  options.threads = 2;
  StartServer(options);

  {
    RawSocket half;
    ASSERT_TRUE(half.Connect(server_->port()));
    ASSERT_TRUE(half.SendRaw("cert"));  // No newline: an incomplete frame.
    half.ShutdownWrite();
    // EOF with a dangling partial line: no response, just EOF back.
    EXPECT_EQ(half.ReadAll(), "");
  }
  {
    // A complete request followed by SHUT_WR must still be answered: the
    // half-close says "no more requests", not "drop my responses".
    RawSocket half;
    ASSERT_TRUE(half.Connect(server_->port()));
    ASSERT_TRUE(half.SendRaw("ping\n"));
    half.ShutdownWrite();
    std::string frames = half.ReadAll();
    EXPECT_NE(frames.find("ZO1 OK"), std::string::npos) << frames;
  }
  // The server is unscathed.
  BlockingClient client = Connect();
  StatusOr<Response> response = client.Call(MakeRequest("ping"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kOk);
}

// Connection churn: 500 connect/close cycles, alternating between clean
// requests and immediate disconnects, must neither leak connections nor
// degrade the server.
TEST_F(ServerTest, ConnectCloseChurnLeavesServerHealthy) {
  ServerOptions options;
  options.threads = 2;
  options.event_threads = 2;
  StartServer(options);

  for (int i = 0; i < 500; ++i) {
    RawSocket churn;
    ASSERT_TRUE(churn.Connect(server_->port())) << "cycle " << i;
    if (i % 3 == 0) {
      ASSERT_TRUE(churn.SendRaw("ping\n"));
      churn.ShutdownWrite();
      std::string frames = churn.ReadAll();
      EXPECT_NE(frames.find("ZO1 OK"), std::string::npos) << frames;
    }
    churn.Close();
  }
  BlockingClient client = Connect();
  StatusOr<Response> response = client.Call(MakeRequest("ping"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kOk);
  EXPECT_GE(server_->stats().connections_accepted, 500u);
}

// A client that never reads: its responses pile up in the bounded outbox
// until the bound trips, then the connection is torn down — and clients
// sharing the worker pool and event loop never notice.
TEST_F(ServerTest, NeverReadingClientTripsOutboxBoundOnly) {
  ServerOptions options;
  options.threads = 2;
  options.event_threads = 1;     // The victim shares the loop with it.
  options.outbox_max_bytes = 64 * 1024;
  options.so_sndbuf = 8 * 1024;  // Keep kernel buffering from hiding it.
  StartServer(options);

  // ~6KiB per `show` response: enough that a few dozen unsent responses
  // overflow a 64KiB outbox.
  std::string big_db = "R(2) = { ";
  for (int i = 0; i < 200; ++i) {
    big_db += StrCat(i == 0 ? "" : ", ", "(k", i, ", v", i, ")");
  }
  big_db += " }";

  RawSocket glutton;
  ASSERT_TRUE(glutton.Connect(server_->port(), /*rcvbuf=*/4 * 1024));
  ASSERT_TRUE(glutton.SendRaw(
      FormatRequestLine(MakeRequest("db", big_db, "hoard")) + "\n"));
  const std::string show_line =
      FormatRequestLine(MakeRequest("show", "", "hoard")) + "\n";
  // Pipeline `show`s without ever reading. Stop once the server has cut
  // us off (send fails) or after a bounded volume.
  bool cut_off = false;
  for (int i = 0; i < 400 && !cut_off; ++i) {
    cut_off = !glutton.SendRaw(show_line);
  }
  // The overflow trip is asynchronous to our sends; poll the stat.
  for (int i = 0; i < 100 && server_->stats().outbox_overflows == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server_->stats().outbox_overflows, 1u);

  // The well-behaved client is unaffected.
  BlockingClient client = Connect();
  StatusOr<Response> response = client.Call(MakeRequest("ping"));
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, WireStatus::kOk);
}

// --max-conns admission control: connections beyond the cap are refused
// with an explicit OVERLOADED frame, and capacity frees up on disconnect.
TEST_F(ServerTest, MaxConnsRefusesExcessConnections) {
  ServerOptions options;
  options.threads = 2;
  options.max_conns = 2;
  StartServer(options);

  BlockingClient a = Connect();
  BlockingClient b = Connect();
  ASSERT_TRUE(a.Call(MakeRequest("ping")).ok());
  ASSERT_TRUE(b.Call(MakeRequest("ping")).ok());

  RawSocket refused;
  ASSERT_TRUE(refused.Connect(server_->port()));
  std::string frames = refused.ReadAll();  // Server closes after refusing.
  EXPECT_NE(frames.find("ZO1 OVERLOADED"), std::string::npos) << frames;
  EXPECT_NE(frames.find("connection limit"), std::string::npos) << frames;
  EXPECT_GE(server_->stats().connections_refused, 1u);

  a.Close();
  // Retired connections free capacity; retry until the sweep runs.
  bool admitted = false;
  for (int i = 0; i < 100 && !admitted; ++i) {
    BlockingClient c;
    if (c.Connect("127.0.0.1", server_->port()).ok()) {
      StatusOr<Response> response = c.Call(MakeRequest("ping"));
      admitted = response.ok() && response->status == WireStatus::kOk;
    }
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(admitted);
}

// Regression for the drain wakeup bugfix: threads parked in epoll_wait
// need the self-pipe to notice BeginShutdown — with 100 idle connections
// (no traffic, so no I/O events either), drain must complete promptly
// rather than hang until some unrelated event arrives.
TEST_F(ServerTest, DrainWithHundredIdleConnectionsIsFast) {
  ServerOptions options;
  options.threads = 2;
  options.event_threads = 2;
  StartServer(options);

  std::vector<RawSocket> idle(100);
  for (RawSocket& connection : idle) {
    ASSERT_TRUE(connection.Connect(server_->port()));
  }
  // Let the accept/registration pipeline settle so all 100 are parked in
  // the event loops when the drain starts.
  for (int i = 0; i < 100 && server_->stats().connections_accepted < 100;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(server_->stats().connections_accepted, 100u);

  auto begin = std::chrono::steady_clock::now();
  server_->BeginShutdown();
  server_->Wait();
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
  EXPECT_LT(elapsed_ms, 1000) << "drain with idle connections took "
                              << elapsed_ms << "ms";
  // Every idle connection was half-closed: clients see clean EOF.
  for (RawSocket& connection : idle) {
    EXPECT_EQ(connection.ReadAll(), "");
  }
}

// The legacy reader model stays wire-compatible (the differential test
// proves equivalence in depth; this is the cheap always-on smoke).
TEST_F(ServerTest, LegacyReadersStillServe) {
  ServerOptions options;
  options.threads = 2;
  options.legacy_readers = true;
  StartServer(options);
  EXPECT_EQ(server_->event_threads(), 0u);
  BlockingClient client = Connect();
  Preamble(client, kFastDb);
  StatusOr<Response> response = client.Call(MakeRequest("certain"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kOk);
}

}  // namespace
}  // namespace svc
}  // namespace zeroone
