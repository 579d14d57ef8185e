// Differential serving tests for intra-query parallelism: the same
// deterministic script of commands is replayed against a server running
// serial queries (ServerOptions::par_threads = 1, the ZEROONE_PAR=off
// reference behavior) and one running 8-wide morsel teams, and the two
// wire transcripts must be byte-identical — the pool may change latency,
// never bytes. The script leans on `muk` (the heaviest analytical command,
// dispatched through the sharded parallel counter) alongside the usual
// read/mutate mix.
//
// Two race-shaped tests ride along for the TSan CI job: a mutator hammering
// a session while a second connection runs heavy parallel reads against it,
// and a deadline expiring mid-parallel-query — which must surface as
// DEADLINE_EXCEEDED, discard the partial result, and leave the session
// fully usable. A fault-injection test drives `par.morsel.abort` through
// the wire path and checks the same discard contract.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "fault/fault.h"
#include "par/pool.h"
#include "svc/protocol.h"
#include "svc/server.h"

namespace zeroone {
namespace svc {
namespace {

// Session "default": mutated by the script. Session "mu": never mutated, so
// `muk 6 (c1)` stays within its k >= |C ∪ Const(D)| precondition (four
// constants) for the whole transcript.
constexpr const char* kDb =
    "R(2) = { (c1, _1), (c2, _2), (c3, c1), (c4, c2) }";
constexpr const char* kQuery = "Q(x) := exists y . R(x, y)";
constexpr const char* kJoinQuery = "Q(x) := exists y . R(x, y) & R(y, x)";
constexpr const char* kBooleanQuery =
    "Q() := exists x . exists y . R(x, y) & R(y, x)";
// Five nulls over an 8-constant enumeration: tens of thousands of
// valuations, comfortably heavier than a millisecond — the deadline test
// relies on that.
constexpr const char* kHeavyDb =
    "R(2) = { (c1, _1), (_2, _3), (_4, _5), (c2, c1) }";

// Raw frames, uninterpreted (see svc_epoll_diff_test for rationale).
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
    ASSERT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void SendLine(const Request& request) {
    std::string bytes = FormatRequestLine(request) + "\n";
    std::string_view view = bytes;
    while (!view.empty()) {
      ssize_t n = ::send(fd_, view.data(), view.size(), MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      view.remove_prefix(static_cast<std::size_t>(n));
    }
  }

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

void Roundtrip(RawClient& client, std::vector<std::string>& transcript,
               const Request& request) {
  client.SendLine(request);
  client.ReadFrames(1, &transcript);
}

// Starting a server installs its par_threads budget process-globally;
// restore the ambient budget so test order never matters.
class BudgetGuard {
 public:
  BudgetGuard() : previous_(par::par_threads()) {}
  ~BudgetGuard() { par::SetParThreads(previous_); }

 private:
  std::size_t previous_;
};

std::vector<std::string> RunTranscript(std::size_t par_threads,
                                       std::uint32_t seed) {
  BudgetGuard guard;
  ServerOptions options;
  options.threads = 2;
  options.par_threads = par_threads;
  Server server(options);
  Status started = server.Start();
  EXPECT_TRUE(started.ok()) << started.message();

  std::vector<std::string> transcript;
  {
    RawClient client;
    client.Connect(server.port());
    Roundtrip(client, transcript, Req("db", kDb));
    Roundtrip(client, transcript, Req("query", kQuery));
    // An FD, so `cond` takes the chase (Theorem 5) path.
    Roundtrip(client, transcript, Req("fd", "R 2 0 1"));
    Roundtrip(client, transcript, Req("db", kDb, "mu"));
    Roundtrip(client, transcript, Req("query", kQuery, "mu"));

    // Seeded random script, one request outstanding at a time; `muk` runs
    // against the immutable "mu" session, everything else against
    // "default" (whose inserts keep invalidating cached plans). `certain`,
    // `best` and `cond` run the exact plans' theorem paths; the query
    // switches among two unary queries and a Boolean one.
    std::mt19937 rng(seed);
    int insert_counter = 0;
    bool boolean_query = false;
    for (int i = 0; i < 40; ++i) {
      std::uint32_t choice = static_cast<std::uint32_t>(rng()) % 13;
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
          ++insert_counter;
          request = Req("db", StrCat("R(2) = { (k", insert_counter, ", v",
                                     insert_counter, ") }"));
          break;
        case 5: {
          const char* const queries[] = {kQuery, kJoinQuery, kBooleanQuery};
          const char* query = queries[static_cast<std::uint32_t>(rng()) % 3];
          boolean_query = query == kBooleanQuery;
          request = Req("query", query);
          break;
        }
        case 6:
          request = Req("mu", "(c1)", "mu");
          break;
        case 7:
        case 8:
          request = Req("muk", "6 (c1)", "mu");  // The parallel hot path.
          break;
        case 9:
          request = Req("best");
          break;
        case 10:
        case 11:
          request = Req("cond", boolean_query ? "()" : "(c1)");
          break;
        default:
          request = Req("naive");
          break;
      }
      request.id = StrCat("id", i);
      if (static_cast<std::uint32_t>(rng()) % 3 == 0) {
        request.no_cache = true;
      }
      Roundtrip(client, transcript, request);
    }
    // A fixed tail, so every seed serves the Boolean query through each
    // read path whatever the random script chose.
    Roundtrip(client, transcript, Req("query", kBooleanQuery));
    for (const char* command :
         {"naive", "certain", "possible", "best", "bestmu"}) {
      Roundtrip(client, transcript, Req(command));
    }
    Roundtrip(client, transcript, Req("cond", "()"));
  }

  server.Shutdown();
  return transcript;
}

class SvcParDiffTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SvcParDiffTest, SerialAndParallelTranscriptsAreByteIdentical) {
  const std::uint32_t seed = GetParam();
  std::vector<std::string> serial = RunTranscript(/*par_threads=*/1, seed);
  std::vector<std::string> parallel = RunTranscript(/*par_threads=*/8, seed);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "transcript diverges at frame " << i;
  }
  auto contains = [&](const char* needle) {
    for (const std::string& frame : parallel) {
      if (frame.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("ZO1 OK"));
  EXPECT_TRUE(contains("mu(Q|Sigma) = "));
  EXPECT_FALSE(contains("ZO1 ERR"));
  EXPECT_FALSE(contains("<<frame error"));
  EXPECT_FALSE(contains("<<eof"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvcParDiffTest,
                         ::testing::Values(21u, 404u, 6006u));

TEST(SvcParRaceTest, MutatorAndHeavyParallelReaderShareASession) {
  // TSan target: one connection mutates session "race" while another runs
  // parallel analytical reads against it. Interleaving is free to vary;
  // every request must still get exactly one well-formed response and the
  // server must drain cleanly. k=48 keeps `muk` within its precondition
  // however many insert-constants have landed when it runs.
  BudgetGuard guard;
  ServerOptions options;
  options.threads = 4;
  options.par_threads = 8;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  {
    RawClient setup;
    setup.Connect(server.port());
    std::vector<std::string> frames;
    Roundtrip(setup, frames, Req("db", kDb, "race"));
    Roundtrip(setup, frames, Req("query", kQuery, "race"));
    ASSERT_EQ(frames.size(), 2u);
  }

  std::vector<std::string> reader_frames;
  std::vector<std::string> mutator_frames;
  std::thread reader([&] {
    RawClient client;
    client.Connect(server.port());
    for (int i = 0; i < 12; ++i) {
      Request request = i % 3 == 0 ? Req("certain", "", "race")
                                   : Req("muk", "48 (c1)", "race");
      request.id = StrCat("r", i);
      client.SendLine(request);
      client.ReadFrames(1, &reader_frames);
    }
  });
  std::thread mutator([&] {
    RawClient client;
    client.Connect(server.port());
    for (int i = 0; i < 12; ++i) {
      Request request =
          Req("db", StrCat("R(2) = { (m", i, ", n", i, ") }"), "race");
      request.id = StrCat("m", i);
      client.SendLine(request);
      client.ReadFrames(1, &mutator_frames);
    }
  });
  reader.join();
  mutator.join();
  server.Shutdown();

  ASSERT_EQ(reader_frames.size(), 12u);
  ASSERT_EQ(mutator_frames.size(), 12u);
  for (const std::string& frame : reader_frames) {
    EXPECT_EQ(frame.find("<<"), std::string::npos) << frame;
    EXPECT_EQ(frame.compare(0, 4, "ZO1 "), 0) << frame;
  }
  for (const std::string& frame : mutator_frames) {
    EXPECT_EQ(frame.compare(0, 6, "ZO1 OK"), 0) << frame;
  }
}

TEST(SvcParRaceTest, DeadlineMidParallelQueryLeavesTheSessionIntact) {
  BudgetGuard guard;
  ServerOptions options;
  options.threads = 2;
  options.par_threads = 8;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  RawClient client;
  client.Connect(server.port());
  std::vector<std::string> frames;
  Roundtrip(client, frames, Req("db", kHeavyDb, "heavy"));
  Roundtrip(client, frames, Req("query", kQuery, "heavy"));

  // A reference answer before the deadline casualty...
  Roundtrip(client, frames, Req("certain", "", "heavy"));
  ASSERT_EQ(frames.size(), 3u);
  std::string certain_before = frames.back();

  // ...then the heavy parallel query with a 1 ms budget: 8^5 valuations do
  // not fit, so the team is cancelled mid-run and the partial discarded.
  Request doomed = Req("muk", "8 (c1)", "heavy");
  doomed.deadline_ms = 1;
  Roundtrip(client, frames, doomed);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_NE(frames.back().find("DEADLINE_EXCEEDED"), std::string::npos)
      << frames.back();

  // The session is untouched: the same read reproduces its answer and an
  // unhurried heavy query still completes.
  Roundtrip(client, frames, Req("certain", "", "heavy"));
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames.back(), certain_before);
  Roundtrip(client, frames, Req("muk", "8 (c1)", "heavy"));
  ASSERT_EQ(frames.size(), 6u);
  EXPECT_EQ(frames.back().compare(0, 6, "ZO1 OK"), 0) << frames.back();
  client.Close();
  server.Shutdown();
}

TEST(SvcParRaceTest, MorselAbortFaultSurfacesAsDeadlineAndDiscardsPartials) {
  // The `par.morsel.abort` site cancels the request token mid-team; the
  // dispatcher must answer DEADLINE_EXCEEDED (same contract as
  // plan.vm.cancel) and the session must keep serving once the plan is
  // cleared — byte-identically to the pre-fault answer.
#if !ZEROONE_PAR_ENABLED
  GTEST_SKIP() << "par.morsel.abort compiles away with ZEROONE_PAR=OFF";
#endif
  BudgetGuard guard;
  fault::Registry::Global().Clear();
  ServerOptions options;
  options.threads = 2;
  options.par_threads = 8;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  RawClient client;
  client.Connect(server.port());
  std::vector<std::string> frames;
  Roundtrip(client, frames, Req("db", kDb, "mu"));
  Roundtrip(client, frames, Req("query", kQuery, "mu"));
  Request heavy = Req("muk", "6 (c1)", "mu");
  heavy.no_cache = true;
  Roundtrip(client, frames, heavy);
  ASSERT_EQ(frames.size(), 3u);
  std::string clean_answer = frames.back();
  EXPECT_EQ(clean_answer.compare(0, 6, "ZO1 OK"), 0) << clean_answer;

  ASSERT_TRUE(
      fault::Registry::Global().Configure("par.morsel.abort=#1").ok());
  Roundtrip(client, frames, heavy);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_NE(frames.back().find("DEADLINE_EXCEEDED"), std::string::npos)
      << frames.back();

  fault::Registry::Global().Clear();
  Roundtrip(client, frames, heavy);
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames.back(), clean_answer);
  client.Close();
  server.Shutdown();
}

}  // namespace
}  // namespace svc
}  // namespace zeroone
