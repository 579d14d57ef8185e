// Differential serving test for the compiled evaluation path: the same
// deterministic script of commands is replayed against a server running
// with PlanMode::kInterpret (the PR-5 tree-walking evaluators) and one
// with PlanMode::kCompiled (cost-based plans + bytecode VM, plan cache
// hot), and the two wire transcripts must be byte-identical. The script
// mixes reads, mutations (which bump the session version and so invalidate
// cached plans), repeated queries (which hit the plan cache), and
// @explain=1 requests (whose output is mode-independent: explain always
// compiles against the live state). No timing-sensitive phases — the modes
// differ in speed by design.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/mode.h"
#include "svc/protocol.h"
#include "svc/server.h"

namespace zeroone {
namespace svc {
namespace {

constexpr const char* kDb =
    "R(2) = { (c1, _1), (c2, _2), (c3, c1), (c4, c2) }";
constexpr const char* kQuery = "Q(x) := exists y . R(x, y)";
constexpr const char* kJoinQuery = "Q(x) := exists y . R(x, y) & R(y, x)";

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

std::vector<std::string> RunTranscript(plan::PlanMode mode,
                                       std::uint32_t seed) {
  plan::PlanMode previous = plan::plan_mode();
  plan::SetPlanMode(mode);

  ServerOptions options;
  options.threads = 2;
  Server server(options);
  Status started = server.Start();
  EXPECT_TRUE(started.ok()) << started.message();

  std::vector<std::string> transcript;
  {
    RawClient client;
    client.Connect(server.port());
    Roundtrip(client, transcript, Req("db", kDb));
    Roundtrip(client, transcript, Req("query", kQuery));
    Roundtrip(client, transcript, Req("fd", "R 2 0 1"));

    // Seeded random read/mutate script, one request outstanding at a time.
    // `certain` runs the enumerator under kInterpret and naïve evaluation
    // (Corollary 3) under kCompiled, so its frames cross-check the two.
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
        case 4:
          request = Req("naive");
          break;
        case 5:
          ++insert_counter;
          request = Req("db", StrCat("R(2) = { (k", insert_counter, ", v",
                                     insert_counter, ") }"));
          break;
        case 6:
          request = Req("query",
                        static_cast<std::uint32_t>(rng()) % 2 == 0
                            ? kQuery
                            : kJoinQuery);
          break;
        case 7: {
          // The exact commands' explain frames end with the exact-plan
          // line, which must not depend on the plan mode either.
          const char* const explained[] = {"naive", "certain", "best", "cond"};
          request = Req(explained[i % 4], i % 4 == 3 ? "(c1)" : "");
          request.explain = true;
          break;
        }
        default:
          request = Req("mu", "(c1)");
          break;
      }
      request.id = StrCat("id", i);
      if (static_cast<std::uint32_t>(rng()) % 3 == 0) {
        request.no_cache = true;
      }
      Roundtrip(client, transcript, request);
    }
    // The remaining exact commands, on whichever unary query is current.
    Roundtrip(client, transcript, Req("best"));
    Roundtrip(client, transcript, Req("bestmu"));
    Roundtrip(client, transcript, Req("cond", "(c1)"));
    Roundtrip(client, transcript, Req("compare", "(c1) (c3)"));
  }

  server.Shutdown();
  plan::SetPlanMode(previous);
  return transcript;
}

class SvcPlanDiffTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SvcPlanDiffTest, InterpretedAndCompiledTranscriptsAreByteIdentical) {
  const std::uint32_t seed = GetParam();
  std::vector<std::string> interpreted =
      RunTranscript(plan::PlanMode::kInterpret, seed);
  std::vector<std::string> compiled =
      RunTranscript(plan::PlanMode::kCompiled, seed);
  ASSERT_EQ(interpreted.size(), compiled.size());
  for (std::size_t i = 0; i < interpreted.size(); ++i) {
    EXPECT_EQ(interpreted[i], compiled[i])
        << "transcript diverges at frame " << i;
  }
  auto contains = [&](const char* needle) {
    for (const std::string& frame : compiled) {
      if (frame.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("ZO1 OK"));
  EXPECT_TRUE(contains("plan [enumerate]"));  // @explain=1 frames answered.
  EXPECT_TRUE(contains("mu(Q|Sigma) = "));
  EXPECT_FALSE(contains("ZO1 ERR"));
  EXPECT_FALSE(contains("<<frame error"));
  EXPECT_FALSE(contains("<<eof"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvcPlanDiffTest,
                         ::testing::Values(21u, 404u, 6006u));

}  // namespace
}  // namespace svc
}  // namespace zeroone
