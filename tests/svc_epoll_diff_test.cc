// Differential conformance test for the epoll serving core: the same
// seeded, reproducible script of commands is driven against a server in
// legacy thread-per-connection mode and one in epoll event-loop mode, and
// the two wire transcripts must be byte-identical — raw response frames,
// compared as bytes, not parsed-and-reinterpreted. The script covers every
// response status the server can produce on a live connection: OK, ERR,
// BAD_REQUEST, OVERLOADED, DEADLINE_EXCEEDED (both the mid-evaluation and
// the expired-in-queue variants), and UNAVAILABLE (via a deterministic
// injected fault). Three distinct seeds run in CI.
//
// Determinism notes:
//  - The script is driven sequentially (one outstanding request at a time)
//    except in the explicitly pipelined phases, so thread scheduling cannot
//    reorder responses.
//  - OVERLOADED is produced with threads=1/queue=1 and timing margins of
//    hundreds of milliseconds against an evaluation that takes at least
//    that long, not with races.
//  - Fault sites are process-global, so the registry is configured
//    identically before each server run and cleared after.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "fault/fault.h"
#include "svc/protocol.h"
#include "svc/server.h"

namespace zeroone {
namespace svc {
namespace {

constexpr const char* kFastDb =
    "R(2) = { (c1, _1), (c2, _2), (c3, _3), (c4, _4) }";
// Slow enough (6 nulls, ~1s of `certain`) that a 50ms deadline always
// expires mid-evaluation and a queued request always outlives a 20ms
// deadline, even without sanitizers; sanitizers only widen the margin.
constexpr const char* kSlowDb =
    "R(2) = { (c1, _1), (c2, _2), (c3, _3), (c4, _4), (c5, _5), (c6, _6) }";
constexpr const char* kQuery = "Q(x) := exists y . R(x, y)";
// kQuery behind a double negation: the same answers, but outside Pos∀G and
// the UCQs, so `certain` still runs the exponential enumerator instead of
// naïve evaluation (core/exact_plan.h) — the slow work these tests need.
constexpr const char* kSlowQuery = "Q(x) := !(!(exists y . R(x, y)))";

// A raw TCP client that captures response frames as uninterpreted bytes.
// BlockingClient would parse and could normalize; byte-identity demands the
// wire form itself.
class RawClient {
 public:
  ~RawClient() { Close(); }

  void Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void SendRaw(std::string_view bytes) {
    while (!bytes.empty()) {
      ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  void SendLine(const Request& request) {
    SendRaw(FormatRequestLine(request) + "\n");
  }

  // Appends the next `count` complete frames, as raw bytes, to *out. On
  // EOF or a transport error before `count` frames, appends a marker so
  // the divergence shows up in the transcript comparison.
  void ReadFrames(std::size_t count, std::vector<std::string>* out) {
    while (count > 0) {
      Response parsed;
      StatusOr<std::size_t> consumed = ParseResponseFrame(buffer_, &parsed);
      if (!consumed.ok()) {
        out->push_back("<<frame error: " + consumed.status().message() +
                       ">>");
        return;
      }
      if (*consumed > 0) {
        out->push_back(buffer_.substr(0, *consumed));
        buffer_.erase(0, *consumed);
        --count;
        continue;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        out->push_back("<<eof>>");
        return;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // Reads to EOF; returns any trailing bytes (expected: none).
  std::string ReadUntilEof() {
    char chunk[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return buffer_;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

Request Req(const std::string& command, const std::string& args = "",
            const std::string& session = "default") {
  Request request;
  request.command = command;
  request.args = args;
  request.session = session;
  return request;
}

// One Call round-trip over the raw client: send, capture the raw frame.
void Roundtrip(RawClient& client, const Request& request,
               std::vector<std::string>* transcript) {
  client.SendLine(request);
  client.ReadFrames(1, transcript);
}

// Drives the full scripted session against one server configuration and
// returns the transcript of raw frames (plus synthetic markers and a final
// stats digest). `legacy` selects the reader model; everything else is
// identical between the two runs.
std::vector<std::string> RunTranscript(bool legacy, std::uint32_t seed) {
  static int run_counter = 0;
  std::string snapdir =
      std::filesystem::temp_directory_path() /
      ("zo1_diff_" + std::string(legacy ? "legacy" : "epoll") + "_" +
       std::to_string(seed) + "_" + std::to_string(run_counter++));
  std::filesystem::remove_all(snapdir);
  std::filesystem::create_directories(snapdir);

  // Identical fault-registry state for both runs (sites are
  // process-global): armed later, in the UNAVAILABLE phase.
  fault::Registry::Global().Clear();

  ServerOptions options;
  options.threads = 1;          // One worker: queue timing is deterministic.
  options.queue_capacity = 1;   // One slot: the overload phase fills it.
  options.snapshot_dir = snapdir;
  options.legacy_readers = legacy;
  options.event_threads = 2;
  Server server(options);
  Status started = server.Start();
  EXPECT_TRUE(started.ok()) << started.message();
  EXPECT_EQ(server.event_threads(), legacy ? 0u : 2u);

  std::vector<std::string> transcript;
  {
    RawClient client;
    client.Connect(server.port());

    // Phase A — preamble: a session with nulls and a query.
    Roundtrip(client, Req("db", kFastDb), &transcript);
    Roundtrip(client, Req("query", kQuery), &transcript);

    // Phase B — seeded random script, driven sequentially. Raw engine
    // output (not a distribution) so the same seed gives the same script
    // on any standard library. Random db inserts use constants only: the
    // null count stays fixed, so evaluation stays fast.
    std::mt19937 rng(seed);
    int insert_counter = 0;
    for (int i = 0; i < 40; ++i) {
      std::uint32_t choice = static_cast<std::uint32_t>(rng()) % 10;
      Request request;
      switch (choice) {
        case 0:
        case 1:
          request = Req("certain");
          break;
        case 2:
          request = Req("possible");
          break;
        case 3:
          request = Req("naive");
          break;
        case 4:
          request = Req("ping");
          break;
        case 5:
          request = Req("stats");
          break;
        case 6:
          ++insert_counter;
          request = Req("db", StrCat("R(2) = { (k", insert_counter, ", v",
                                     insert_counter, ") }"));
          break;
        case 7:
          request = Req("query", kQuery);
          break;
        case 8:
          request = Req("save");
          break;
        default:
          request = Req("mu", "(c1");  // Malformed tuple: deterministic ERR.
          break;
      }
      request.id = StrCat("id", i);
      if (static_cast<std::uint32_t>(rng()) % 3 == 0) {
        request.no_cache = true;
      }
      if (static_cast<std::uint32_t>(rng()) % 4 == 0) {
        // A session with no query set: reads answer a deterministic ERR.
        request.session = "alt";
      }
      Roundtrip(client, request, &transcript);
    }

    // Phase C — DEADLINE_EXCEEDED mid-evaluation: certain over the slow
    // session takes hundreds of ms, the deadline is 50ms.
    Roundtrip(client, Req("db", kSlowDb, "slow"), &transcript);
    Roundtrip(client, Req("query", kSlowQuery, "slow"), &transcript);
    {
      Request request = Req("certain", "", "slow");
      request.deadline_ms = 50;
      Roundtrip(client, request, &transcript);
    }

    // Phase D — DEADLINE_EXCEEDED while queued: pipeline a full slow
    // evaluation (no deadline, cache bypassed) and behind it a ping whose
    // 20ms deadline expires long before the single worker gets to it.
    {
      Request slow = Req("certain", "", "slow");
      slow.no_cache = true;
      Request queued = Req("ping");
      queued.deadline_ms = 20;
      client.SendLine(slow);
      // Let the single worker dequeue the slow request (the queue holds
      // only one entry, so the ping must find it empty to be *queued*
      // rather than rejected OVERLOADED). The evaluation runs for hundreds
      // of ms beyond this, so the 20ms deadline still expires in queue.
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      client.SendLine(queued);
      client.ReadFrames(2, &transcript);
    }

    // Phase E — OVERLOADED: occupy the worker with a slow evaluation,
    // park a filler in the single queue slot, then burst three more
    // requests against the full queue. Same-connection ordering guarantees
    // the filler's submit happens before the burst's; the 150ms sleep
    // guarantees the worker has dequeued the slow request (which runs for
    // hundreds of ms) before the filler arrives.
    {
      Request slow = Req("certain", "", "slow");
      slow.no_cache = true;
      client.SendLine(slow);
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      client.SendLine(Req("ping"));  // Occupies the queue slot.
      for (int i = 0; i < 3; ++i) client.SendLine(Req("ping"));
      client.ReadFrames(5, &transcript);
    }

#if ZEROONE_FAULT_ENABLED
    // Phase F — UNAVAILABLE: a deterministically injected mutate fault.
    // Fault-off builds compile the site away, so the phase is skipped
    // there (both serving models skip it identically).
    Status armed =
        fault::Registry::Global().Configure("svc.session.mutate.fail=#1");
    EXPECT_TRUE(armed.ok()) << armed.message();
    Roundtrip(client, Req("db", "R(2) = { (x, y) }"), &transcript);
    fault::Registry::Global().Clear();
#endif
  }

  // Phase G — BAD_REQUEST frames on a fresh connection, ending with an
  // oversized line that poisons the framing: the server answers
  // BAD_REQUEST once more, stops reading, and half-closes after flushing.
  {
    RawClient bad;
    bad.Connect(server.port());
    bad.SendRaw("frobnicate\n");            // Unknown command.
    bad.SendRaw("@id=!! ping\n");           // Bad token character.
    bad.SendRaw("@deadline_ms=abc ping\n");  // Non-numeric deadline.
    bad.SendRaw("\xff\xfe ping\n");         // Invalid UTF-8.
    bad.ReadFrames(4, &transcript);
    bad.SendRaw(std::string(kMaxRequestBytes + 4096, 'a'));
    bad.SendRaw("\n");
    bad.ReadFrames(1, &transcript);
    std::string trailing = bad.ReadUntilEof();
    transcript.push_back("<<after oversized: eof, " +
                         std::to_string(trailing.size()) +
                         " trailing bytes>>");
  }

  server.Shutdown();
  fault::Registry::Global().Clear();

  // Digest of the server-side counters the script determines exactly.
  Server::Stats stats = server.stats();
  transcript.push_back(StrCat(
      "<<stats: conns=", stats.connections_accepted,
      " requests=", stats.requests_received, " bad=", stats.bad_requests,
      " overloaded=", stats.overloaded, " overflows=", stats.outbox_overflows,
      ">>"));
  std::filesystem::remove_all(snapdir);
  return transcript;
}

class SvcEpollDiffTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SvcEpollDiffTest, LegacyAndEpollTranscriptsAreByteIdentical) {
  const std::uint32_t seed = GetParam();
  std::vector<std::string> legacy = RunTranscript(/*legacy=*/true, seed);
  std::vector<std::string> epoll = RunTranscript(/*legacy=*/false, seed);
  ASSERT_EQ(legacy.size(), epoll.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i], epoll[i]) << "transcript diverges at frame " << i;
  }
  // The transcript must actually have exercised every interesting status.
  auto contains = [&](const char* needle) {
    for (const std::string& frame : epoll) {
      if (frame.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("ZO1 OK"));
  EXPECT_TRUE(contains("ZO1 ERR"));
  EXPECT_TRUE(contains("ZO1 BAD_REQUEST"));
  EXPECT_TRUE(contains("ZO1 OVERLOADED"));
  EXPECT_TRUE(contains("ZO1 DEADLINE_EXCEEDED"));
  EXPECT_TRUE(contains("not started"));  // The queued-expiry variant.
#if ZEROONE_FAULT_ENABLED
  EXPECT_TRUE(contains("ZO1 UNAVAILABLE"));  // Needs the injected fault.
#endif
  EXPECT_FALSE(contains("<<frame error"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvcEpollDiffTest,
                         ::testing::Values(11u, 202u, 3003u));

}  // namespace
}  // namespace svc
}  // namespace zeroone
