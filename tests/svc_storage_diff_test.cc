// Differential serving test for the indexed storage core: the same
// deterministic script of commands is replayed against a server running
// with PlanMode::kInterpret (the oracle: full scans in every evaluator) and
// one with PlanMode::kCompiled (hash probes on the relations' cached
// indexes), and the two wire transcripts must be byte-identical. Halfway
// through, each server is shut down and a new one is started on the same
// snapshot directory, so the second half is served from relations rebuilt
// by recovery (snapshot load + WAL replay) with cold index caches, and
// mutated again after their indexes warm up. Unlike svc_epoll_diff_test
// this script contains no timing-sensitive phases (no deadlines, no
// overload): evaluation speed differs between the modes by design, so only
// schedule-independent frames are comparable byte-for-byte.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
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

// Replays the seeded read/mutate script, one request outstanding at a
// time, for script steps [first, last).
void RunScript(RawClient& client, std::vector<std::string>& transcript,
               std::mt19937& rng, int* insert_counter, int first, int last) {
  for (int i = first; i < last; ++i) {
    std::uint32_t choice = static_cast<std::uint32_t>(rng()) % 8;
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
        ++*insert_counter;
        request = Req("db", StrCat("R(2) = { (k", *insert_counter, ", v",
                                   *insert_counter, ") }"));
        break;
      case 6:
        request = Req("query", kQuery);
        break;
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
}

std::vector<std::string> RunTranscript(plan::PlanMode mode,
                                       std::uint32_t seed) {
  static int run_counter = 0;
  std::string snapdir =
      std::filesystem::temp_directory_path() /
      ("zo1_storage_diff_" +
       std::string(mode == plan::PlanMode::kInterpret ? "scan" : "indexed") +
       "_" + std::to_string(seed) + "_" + std::to_string(run_counter++));
  std::filesystem::remove_all(snapdir);
  std::filesystem::create_directories(snapdir);

  plan::PlanMode previous = plan::plan_mode();
  plan::SetPlanMode(mode);

  ServerOptions options;
  options.threads = 2;
  options.snapshot_dir = snapdir;
  auto server = std::make_unique<Server>(options);
  Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started.message();

  std::vector<std::string> transcript;
  std::mt19937 rng(seed);
  int insert_counter = 0;
  {
    RawClient client;
    client.Connect(server->port());
    Roundtrip(client, transcript, Req("db", kDb));
    Roundtrip(client, transcript, Req("query", kQuery));
    RunScript(client, transcript, rng, &insert_counter, 0, 15);
  }

  // Restart on the same directory: the session comes back from disk.
  server->Shutdown();
  server = std::make_unique<Server>(options);
  started = server->Start();
  EXPECT_TRUE(started.ok()) << started.message();
  EXPECT_EQ(server->stats().snapshots_loaded, 1u);
  {
    RawClient client;
    client.Connect(server->port());
    Roundtrip(client, transcript, Req("show"));
    RunScript(client, transcript, rng, &insert_counter, 15, 30);
  }

  server->Shutdown();
  server.reset();
  plan::SetPlanMode(previous);
  std::filesystem::remove_all(snapdir);
  return transcript;
}

class SvcStorageDiffTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SvcStorageDiffTest, ScanAndIndexedTranscriptsAreByteIdentical) {
  const std::uint32_t seed = GetParam();
  std::vector<std::string> scan =
      RunTranscript(plan::PlanMode::kInterpret, seed);
  std::vector<std::string> indexed =
      RunTranscript(plan::PlanMode::kCompiled, seed);
  ASSERT_EQ(scan.size(), indexed.size());
  for (std::size_t i = 0; i < scan.size(); ++i) {
    EXPECT_EQ(scan[i], indexed[i]) << "transcript diverges at frame " << i;
  }
  auto contains = [&](const char* needle) {
    for (const std::string& frame : indexed) {
      if (frame.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("ZO1 OK"));
  EXPECT_FALSE(contains("<<frame error"));
  EXPECT_FALSE(contains("<<eof"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvcStorageDiffTest,
                         ::testing::Values(21u, 404u, 6006u));

}  // namespace
}  // namespace svc
}  // namespace zeroone
