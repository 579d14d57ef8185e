// Tests for the HTTP/1.1 gateway (svc/http.h): the JSON-body → request-line
// assembly, the wire-status → HTTP-status mapping, keep-alive and
// pipelining over a live server, the 404/405/413 edges — and the parity
// battery the gateway exists for: for every error class the dispatcher can
// produce (BAD_REQUEST, UNAVAILABLE, DEADLINE_EXCEEDED, OVERLOADED), the
// HTTP JSON payload must be byte-for-byte the string a raw ZO1 client
// receives, because both fronts feed the same RequestSink.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "svc/client.h"
#include "svc/http.h"
#include "svc/protocol.h"
#include "svc/server.h"

namespace zeroone {
namespace svc {
namespace {

// With 5 nulls `certain` takes several hundred ms — long enough that
// deadline and overload behavior are observable (same database svc_test.cc
// uses for those paths).
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
// AssembleQueryLine (pure)

TEST(AssembleQueryLineTest, CommandOnly) {
  StatusOr<std::string> line = AssembleQueryLine(R"({"command": "ping"})");
  ASSERT_TRUE(line.ok()) << line.status().message();
  EXPECT_EQ(*line, "ping");
}

TEST(AssembleQueryLineTest, AllFields) {
  StatusOr<std::string> line = AssembleQueryLine(
      R"json({"command": "certain", "args": "Q(x)", "id": "q7",)json"
      R"json( "session": "alpha", "deadline_ms": 250, "nocache": true,)json"
      R"json( "explain": true})json");
  ASSERT_TRUE(line.ok()) << line.status().message();
  // The assembled line must parse back to the same request.
  StatusOr<Request> parsed = ParseRequestLine(*line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->command, "certain");
  EXPECT_EQ(parsed->args, "Q(x)");
  EXPECT_EQ(parsed->id, "q7");
  EXPECT_EQ(parsed->session, "alpha");
  EXPECT_EQ(parsed->deadline_ms, 250u);
  EXPECT_TRUE(parsed->no_cache);
}

TEST(AssembleQueryLineTest, NullMeansAbsent) {
  StatusOr<std::string> line = AssembleQueryLine(
      R"({"command": "ping", "args": null, "deadline_ms": null})");
  ASSERT_TRUE(line.ok()) << line.status().message();
  EXPECT_EQ(*line, "ping");
}

TEST(AssembleQueryLineTest, RejectsMissingCommand) {
  StatusOr<std::string> line = AssembleQueryLine(R"({"args": "x"})");
  ASSERT_FALSE(line.ok());
  EXPECT_NE(line.status().message().find("command"), std::string::npos)
      << line.status().message();
}

TEST(AssembleQueryLineTest, RejectsUnknownField) {
  EXPECT_FALSE(AssembleQueryLine(R"({"command": "ping", "bogus": 1})").ok());
}

TEST(AssembleQueryLineTest, RejectsDuplicateField) {
  EXPECT_FALSE(
      AssembleQueryLine(R"({"command": "ping", "command": "ping"})").ok());
}

TEST(AssembleQueryLineTest, RejectsNonObjectAndMalformedJson) {
  EXPECT_FALSE(AssembleQueryLine("").ok());
  EXPECT_FALSE(AssembleQueryLine("[1, 2]").ok());
  EXPECT_FALSE(AssembleQueryLine(R"("ping")").ok());
  EXPECT_FALSE(AssembleQueryLine(R"({"command": "ping")").ok());
  EXPECT_FALSE(AssembleQueryLine(R"({"command": "ping"} trailing)").ok());
  EXPECT_FALSE(AssembleQueryLine(R"({"deadline_ms": 1.5, "command": "p"})")
                   .ok());
}

TEST(AssembleQueryLineTest, DecodesStringEscapes) {
  StatusOr<std::string> line = AssembleQueryLine(
      R"({"command": "db", "args": "R(1) = { (\"a\") }\t"})");
  ASSERT_TRUE(line.ok()) << line.status().message();
  EXPECT_NE(line->find("R(1) = { (\"a\") }\t"), std::string::npos) << *line;
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(HttpStatusForTest, FullMapping) {
  EXPECT_EQ(HttpHandler::HttpStatusFor(WireStatus::kOk), 200);
  EXPECT_EQ(HttpHandler::HttpStatusFor(WireStatus::kErr), 422);
  EXPECT_EQ(HttpHandler::HttpStatusFor(WireStatus::kBadRequest), 400);
  EXPECT_EQ(HttpHandler::HttpStatusFor(WireStatus::kOverloaded), 503);
  EXPECT_EQ(HttpHandler::HttpStatusFor(WireStatus::kShuttingDown), 503);
  EXPECT_EQ(HttpHandler::HttpStatusFor(WireStatus::kUnavailable), 503);
  EXPECT_EQ(HttpHandler::HttpStatusFor(WireStatus::kDeadlineExceeded), 504);
}

// ---------------------------------------------------------------------------
// End to end over a live server

// A parsed HTTP/1.1 response.
struct HttpResponse {
  int code = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  std::string Header(const std::string& name) const {
    for (const auto& [key, value] : headers) {
      if (key.size() == name.size() &&
          std::equal(key.begin(), key.end(), name.begin(),
                     [](char a, char b) {
                       return std::tolower(static_cast<unsigned char>(a)) ==
                              std::tolower(static_cast<unsigned char>(b));
                     })) {
        return value;
      }
    }
    return "";
  }
};

// Splits a byte stream of back-to-back HTTP responses (as a pipelined
// keep-alive connection delivers them). Fails the test on framing errors.
std::vector<HttpResponse> SplitHttpResponses(const std::string& stream) {
  std::vector<HttpResponse> responses;
  std::size_t at = 0;
  while (at < stream.size()) {
    HttpResponse response;
    std::size_t head_end = stream.find("\r\n\r\n", at);
    EXPECT_NE(head_end, std::string::npos)
        << "truncated response head at offset " << at;
    if (head_end == std::string::npos) break;
    std::string head = stream.substr(at, head_end - at);
    std::size_t line_end = head.find("\r\n");
    std::string status_line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    EXPECT_EQ(status_line.rfind("HTTP/1.1 ", 0), 0u) << status_line;
    response.code = std::atoi(status_line.c_str() + 9);
    std::size_t content_length = 0;
    std::size_t cursor =
        line_end == std::string::npos ? head.size() : line_end + 2;
    while (cursor < head.size()) {
      std::size_t eol = head.find("\r\n", cursor);
      if (eol == std::string::npos) eol = head.size();
      std::string line = head.substr(cursor, eol - cursor);
      cursor = eol + 2;
      std::size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string key = line.substr(0, colon);
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      if (key == "Content-Length") {
        content_length = static_cast<std::size_t>(std::atoll(value.c_str()));
      }
      response.headers.emplace_back(std::move(key), std::move(value));
    }
    std::size_t body_start = head_end + 4;
    EXPECT_LE(body_start + content_length, stream.size())
        << "truncated response body";
    response.body = stream.substr(body_start, content_length);
    at = body_start + content_length;
    responses.push_back(std::move(response));
  }
  return responses;
}

class RawSocket {
 public:
  ~RawSocket() { Close(); }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
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

  std::string ReadAll() {
    std::string all;
    char chunk[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return all;
      all.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

std::string PostQuery(const std::string& json,
                      const std::string& extra_headers = "") {
  std::string request = "POST /v1/query HTTP/1.1\r\n";
  request += "Host: test\r\n";
  request += extra_headers;
  request += "Content-Length: " + std::to_string(json.size()) + "\r\n\r\n";
  request += json;
  return request;
}

class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    options.http_port = 0;
    server_ = std::make_unique<Server>(options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.message();
    ASSERT_GT(server_->http_port(), 0);
  }

  // Sends `bytes`, half-closes, and returns the parsed response stream.
  std::vector<HttpResponse> Exchange(const std::string& bytes) {
    RawSocket socket;
    EXPECT_TRUE(socket.Connect(server_->http_port()));
    EXPECT_TRUE(socket.SendRaw(bytes));
    socket.ShutdownWrite();
    return SplitHttpResponses(socket.ReadAll());
  }

  // The ZO1 answer for the same request — the parity reference.
  Response Zo1Call(const Request& request) {
    BlockingClient client;
    Status status = client.Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(status.ok()) << status.message();
    StatusOr<Response> response = client.Call(request);
    EXPECT_TRUE(response.ok()) << response.status().message();
    return response.ok() ? *response : Response{};
  }

  // Asserts the HTTP response carries exactly the ZO1 response's payload
  // (and status), i.e. {"status": S, "id": I, "payload": P} with P equal
  // byte-for-byte modulo JSON string escaping.
  void ExpectParity(const HttpResponse& http, const Response& zo1) {
    EXPECT_EQ(http.code, HttpHandler::HttpStatusFor(zo1.status));
    std::string expected = "{\"status\":\"";
    expected += WireStatusName(zo1.status);
    expected += "\",\"id\":\"" + JsonEscape(zo1.id) + "\"";
    expected += ",\"payload\":\"" + JsonEscape(zo1.payload) + "\"}";
    EXPECT_EQ(http.body, expected);
  }

  std::unique_ptr<Server> server_;
};

TEST_F(HttpServerTest, PostQueryAnswersAndKeepsAlive) {
  StartServer(ServerOptions{});
  std::vector<HttpResponse> responses =
      Exchange(PostQuery(R"({"command": "ping", "id": "7"})"));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, 200);
  EXPECT_EQ(responses[0].Header("Connection"), "keep-alive");
  EXPECT_EQ(responses[0].Header("Content-Type"), "application/json");
  EXPECT_EQ(responses[0].body,
            R"({"status":"OK","id":"7","payload":"pong"})");
}

TEST_F(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  StartServer(ServerOptions{});
  std::string bytes;
  for (int i = 0; i < 5; ++i) {
    bytes += PostQuery(R"({"command": "ping", "id": ")" +
                       std::to_string(i) + R"("})");
  }
  std::vector<HttpResponse> responses = Exchange(bytes);
  ASSERT_EQ(responses.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(responses[i].code, 200);
    EXPECT_NE(responses[i].body.find("\"id\":\"" + std::to_string(i) + "\""),
              std::string::npos)
        << responses[i].body;
  }
}

TEST_F(HttpServerTest, ConnectionCloseIsHonored) {
  StartServer(ServerOptions{});
  RawSocket socket;
  ASSERT_TRUE(socket.Connect(server_->http_port()));
  ASSERT_TRUE(socket.SendRaw(PostQuery(R"({"command": "ping"})",
                                       "Connection: close\r\n")));
  // No ShutdownWrite: the server must close on its own after answering.
  std::vector<HttpResponse> responses = SplitHttpResponses(socket.ReadAll());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, 200);
  EXPECT_EQ(responses[0].Header("Connection"), "close");
}

TEST_F(HttpServerTest, Http10DefaultsToClose) {
  StartServer(ServerOptions{});
  RawSocket socket;
  ASSERT_TRUE(socket.Connect(server_->http_port()));
  std::string body = R"({"command": "ping"})";
  ASSERT_TRUE(socket.SendRaw(
      "POST /v1/query HTTP/1.0\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body));
  std::vector<HttpResponse> responses = SplitHttpResponses(socket.ReadAll());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, 200);
  EXPECT_EQ(responses[0].Header("Connection"), "close");
}

TEST_F(HttpServerTest, MetricsEndpointDumpsTheRegistry) {
  StartServer(ServerOptions{});
  // Serve one request first so the counters exist and are nonzero.
  Exchange(PostQuery(R"({"command": "ping"})"));
  std::vector<HttpResponse> responses =
      Exchange("GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, 200);
  EXPECT_NE(responses[0].body.find("svc.server.requests"), std::string::npos)
      << responses[0].body.substr(0, 200);
}

TEST_F(HttpServerTest, UnknownPathIs404KnownPathWrongMethodIs405) {
  StartServer(ServerOptions{});
  std::vector<HttpResponse> responses = Exchange(
      "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /v1/query HTTP/1.1\r\nHost: t\r\n\r\n"
      "POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].code, 404);
  EXPECT_EQ(responses[1].code, 405);
  EXPECT_EQ(responses[2].code, 405);
}

TEST_F(HttpServerTest, OversizedHeadIs413AndCloses) {
  StartServer(ServerOptions{});
  std::string request = "GET /metrics HTTP/1.1\r\nX-Pad: ";
  request += std::string(20 * 1024, 'x');  // Over the 16KB head cap.
  request += "\r\n\r\n";
  RawSocket socket;
  ASSERT_TRUE(socket.Connect(server_->http_port()));
  ASSERT_TRUE(socket.SendRaw(request));
  std::vector<HttpResponse> responses = SplitHttpResponses(socket.ReadAll());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, 413);
  EXPECT_EQ(responses[0].Header("Connection"), "close");
}

TEST_F(HttpServerTest, OversizedBodyIs413) {
  StartServer(ServerOptions{});
  RawSocket socket;
  ASSERT_TRUE(socket.Connect(server_->http_port()));
  // Declared over the body cap: rejected from the header alone, before any
  // body bytes arrive.
  ASSERT_TRUE(socket.SendRaw(
      "POST /v1/query HTTP/1.1\r\nContent-Length: " +
      std::to_string(kMaxRequestBytes + 1) + "\r\n\r\n"));
  std::vector<HttpResponse> responses = SplitHttpResponses(socket.ReadAll());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, 413);
}

TEST_F(HttpServerTest, MalformedJsonBodyIs400WithBadRequestEnvelope) {
  StartServer(ServerOptions{});
  std::vector<HttpResponse> responses = Exchange(PostQuery("not json"));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, 400);
  EXPECT_NE(responses[0].body.find("\"status\":\"BAD_REQUEST\""),
            std::string::npos)
      << responses[0].body;
}

// ---------------------------------------------------------------------------
// Parity battery: HTTP payload == ZO1 payload, error class by error class.

TEST_F(HttpServerTest, ParityBadRequest) {
  StartServer(ServerOptions{});
  Response zo1 = Zo1Call(MakeRequest("bogus"));
  ASSERT_EQ(zo1.status, WireStatus::kBadRequest);
  std::vector<HttpResponse> responses =
      Exchange(PostQuery(R"({"command": "bogus"})"));
  ASSERT_EQ(responses.size(), 1u);
  ExpectParity(responses[0], zo1);
  // The documented string, verbatim, on both fronts.
  EXPECT_EQ(zo1.payload, "unknown command 'bogus' (see docs/serving.md)");
}

TEST_F(HttpServerTest, ParityControlByteInJsonString) {
  StartServer(ServerOptions{});
  // A control byte smuggled through a JSON escape cannot split the
  // assembled request line — it reaches the ZO1 parser as one line and is
  // rejected with the parser's own BAD_REQUEST string.
  std::vector<HttpResponse> responses = Exchange(
      PostQuery(R"({"command": "ping", "args": "a\u0001b"})"));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, 400);
  EXPECT_NE(responses[0].body.find("control byte"), std::string::npos)
      << responses[0].body;
}

TEST_F(HttpServerTest, ParityUnavailableOnReadOnlyFollower) {
  StartServer(ServerOptions{});
  server_->dispatcher().SetReadOnly(true);
  Response zo1 = Zo1Call(MakeRequest("db", "R(1) = { (c1) }"));
  ASSERT_EQ(zo1.status, WireStatus::kUnavailable);
  EXPECT_EQ(zo1.payload,
            "read-only follower: 'db' not applied; retry after failover");
  std::vector<HttpResponse> responses = Exchange(
      PostQuery(R"({"command": "db", "args": "R(1) = { (c1) }"})"));
  ASSERT_EQ(responses.size(), 1u);
  ExpectParity(responses[0], zo1);
}

TEST_F(HttpServerTest, ParityDeadlineExceeded) {
  StartServer(ServerOptions{});
  {
    BlockingClient setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_EQ(setup.Call(MakeRequest("db", kSlowDb))->status, WireStatus::kOk);
    ASSERT_EQ(setup.Call(MakeRequest("query", kSlowQuery))->status,
              WireStatus::kOk);
  }
  Request slow = MakeRequest("certain");
  slow.deadline_ms = 30;  // Far below the ~0.5s evaluation time.
  slow.no_cache = true;
  Response zo1 = Zo1Call(slow);
  ASSERT_EQ(zo1.status, WireStatus::kDeadlineExceeded);
  EXPECT_EQ(zo1.payload,
            "deadline exceeded during 'certain'; partial result discarded");
  std::vector<HttpResponse> responses = Exchange(PostQuery(
      R"({"command": "certain", "deadline_ms": 30, "nocache": true})"));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, 504);
  ExpectParity(responses[0], zo1);
}

TEST_F(HttpServerTest, ParityOverloaded) {
  ServerOptions options;
  options.threads = 1;
  options.queue_capacity = 1;
  StartServer(options);
  {
    BlockingClient setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_EQ(setup.Call(MakeRequest("db", kSlowDb))->status, WireStatus::kOk);
    ASSERT_EQ(setup.Call(MakeRequest("query", kSlowQuery))->status,
              WireStatus::kOk);
  }
  // A pipelined burst of slow uncacheable requests: the first occupies the
  // single worker, one fits the queue, the rest must be OVERLOADED — on
  // both fronts, with the same payload string.
  constexpr int kBurst = 8;
  const std::string kOverloadedPayload =
      "work queue full (capacity 1); retry later";

  std::string zo1_payload;
  {
    BlockingClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    Request request = MakeRequest("certain");
    request.no_cache = true;
    for (int i = 0; i < kBurst; ++i) {
      ASSERT_TRUE(client.Send(request).ok());
    }
    for (int i = 0; i < kBurst; ++i) {
      StatusOr<Response> response = client.Receive();
      ASSERT_TRUE(response.ok()) << response.status().message();
      if (response->status == WireStatus::kOverloaded) {
        zo1_payload = response->payload;
      }
    }
  }
  ASSERT_EQ(zo1_payload, kOverloadedPayload);

  std::string bytes;
  for (int i = 0; i < kBurst; ++i) {
    bytes += PostQuery(R"({"command": "certain", "nocache": true})");
  }
  std::vector<HttpResponse> responses = Exchange(bytes);
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kBurst));
  int overloaded = 0;
  for (const HttpResponse& response : responses) {
    if (response.code != 503) continue;
    ++overloaded;
    EXPECT_NE(
        response.body.find("\"payload\":\"" + JsonEscape(zo1_payload) + "\""),
        std::string::npos)
        << response.body;
  }
  EXPECT_GE(overloaded, 1) << "burst of " << kBurst
                           << " never tripped the admission queue";
}

}  // namespace
}  // namespace svc
}  // namespace zeroone
