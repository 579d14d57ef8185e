// Wire-protocol tests (svc/protocol.h): request/response round-trips plus
// a malformed-input table — truncated frames, oversized payloads, invalid
// UTF-8, unknown commands, bad options — that must produce error Statuses,
// never crashes (this suite is part of the ASan/UBSan and TSan CI jobs).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "svc/protocol.h"

namespace zeroone {
namespace svc {
namespace {

TEST(WireStatusTest, NamesRoundTrip) {
  for (WireStatus status :
       {WireStatus::kOk, WireStatus::kErr, WireStatus::kBadRequest,
        WireStatus::kOverloaded, WireStatus::kDeadlineExceeded,
        WireStatus::kShuttingDown, WireStatus::kUnavailable}) {
    StatusOr<WireStatus> parsed = ParseWireStatus(WireStatusName(status));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, status);
  }
  EXPECT_FALSE(ParseWireStatus("NOPE").ok());
  EXPECT_FALSE(ParseWireStatus("").ok());
}

TEST(RequestLineTest, MinimalCommand) {
  StatusOr<Request> request = ParseRequestLine("ping");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->command, "ping");
  EXPECT_EQ(request->id, "0");
  EXPECT_EQ(request->session, "default");
  EXPECT_EQ(request->deadline_ms, 0u);
  EXPECT_FALSE(request->no_cache);
  EXPECT_TRUE(request->args.empty());
}

TEST(RequestLineTest, AllOptionsAndArgs) {
  StatusOr<Request> request = ParseRequestLine(
      "@id=42 @session=alpha @deadline_ms=250 @nocache mu (a, b)");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, "42");
  EXPECT_EQ(request->session, "alpha");
  EXPECT_EQ(request->deadline_ms, 250u);
  EXPECT_TRUE(request->no_cache);
  EXPECT_EQ(request->command, "mu");
  EXPECT_EQ(request->args, "(a, b)");
}

TEST(RequestLineTest, FormatParsesBackToTheSameRequest) {
  Request request;
  request.id = "7";
  request.session = "s-1.x";
  request.deadline_ms = 1500;
  request.no_cache = true;
  request.command = "certain";
  StatusOr<Request> reparsed = ParseRequestLine(FormatRequestLine(request));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->id, request.id);
  EXPECT_EQ(reparsed->session, request.session);
  EXPECT_EQ(reparsed->deadline_ms, request.deadline_ms);
  EXPECT_EQ(reparsed->no_cache, request.no_cache);
  EXPECT_EQ(reparsed->command, request.command);

  // Defaults are omitted from the canonical form.
  Request plain;
  plain.command = "ping";
  EXPECT_EQ(FormatRequestLine(plain), "ping");
}

TEST(RequestLineTest, ArgsWithUnicodeSurvive) {
  StatusOr<Request> request = ParseRequestLine("db R(1) = { (⊥1) }");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->args, "R(1) = { (⊥1) }");
}

// The malformed-input table: every entry must yield !ok(), never a crash.
TEST(RequestLineTest, MalformedInputsAreRejectedNotCrashed) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "empty line"},
      {"   ", "only whitespace"},
      {"frobnicate", "unknown command"},
      {"PING", "case-sensitive command"},
      {"@id=1", "options but no command"},
      {"@id= ping", "empty option value"},
      {"@id=a!b ping", "bad token character"},
      {"@id=" + std::string(65, 'x') + " ping", "token over 64 bytes"},
      {"@session=bad/name ping", "slash in session token"},
      {"@deadline_ms=abc ping", "non-numeric deadline"},
      {"@deadline_ms=-5 ping", "negative deadline"},
      {"@deadline_ms=99999999999999999999 ping", "deadline overflow"},
      {"@unknown=1 ping", "unknown option"},
      {"@nocache=1 ping", "value on a flag option"},
      {std::string("ping \x01", 6), "control byte in args"},
      {std::string("pi\0ng", 5), "embedded NUL"},
      {"ping \xff\xfe", "invalid UTF-8 bytes"},
      {"ping \xc0\xaf", "overlong UTF-8 encoding"},
      {"ping \xed\xa0\x80", "UTF-16 surrogate in UTF-8"},
      {"ping \xf4\x90\x80\x80", "code point past U+10FFFF"},
      {"ping \xe2\x8a", "truncated UTF-8 sequence"},
      {"certain " + std::string(kMaxRequestBytes, 'a'), "oversized line"},
  };
  for (const auto& [line, label] : cases) {
    StatusOr<Request> request = ParseRequestLine(line);
    EXPECT_FALSE(request.ok()) << "accepted: " << label;
    if (!request.ok()) {
      EXPECT_FALSE(request.status().message().empty()) << label;
    }
  }
}

TEST(RequestLineTest, CommandClassesAreConsistent) {
  // Every mutation and cacheable command must be known; no command is both.
  const char* commands[] = {"ping",  "stats", "db",    "load",  "reset",
                            "show",  "query", "naive", "certain", "possible",
                            "best",  "bestmu", "mu",   "muk",   "poly",
                            "compare", "cond", "fd",   "ind", "constraints",
                            "clear", "chase", "ra",    "dlog"};
  for (const char* command : commands) {
    EXPECT_TRUE(IsKnownCommand(command)) << command;
    EXPECT_FALSE(IsMutationCommand(command) && IsCacheableCommand(command))
        << command << " is both a mutation and cacheable";
  }
  EXPECT_FALSE(IsKnownCommand("nope"));
  EXPECT_TRUE(IsMutationCommand("db"));
  EXPECT_TRUE(IsMutationCommand("query"));
  EXPECT_TRUE(IsCacheableCommand("certain"));
  EXPECT_FALSE(IsCacheableCommand("show"));
  // `save` persists a snapshot of the current state: not a mutation (the
  // version must not change) and never cacheable.
  EXPECT_TRUE(IsKnownCommand("save"));
  EXPECT_FALSE(IsMutationCommand("save"));
  EXPECT_FALSE(IsCacheableCommand("save"));
  // `@explain=1` (and the CLI's --explain) applies to the evaluation
  // commands and `dlog`; setup commands run as usual.
  for (const char* command : {"naive", "certain", "possible", "best", "bestmu",
                              "mu", "muk", "poly", "compare", "cond", "dlog"}) {
    EXPECT_TRUE(IsExplainableCommand(command)) << command;
  }
  for (const char* command : {"db", "query", "fd", "ind", "load", "show",
                              "ra", "chase", "ping", "nope"}) {
    EXPECT_FALSE(IsExplainableCommand(command)) << command;
  }
}

TEST(RequestLineTest, CommandTableHasOneRowPerCommand) {
  std::set<std::string_view> names;
  for (const CommandInfo& info : Commands()) {
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
    EXPECT_EQ(FindCommand(info.name), &info);
    EXPECT_FALSE(info.summary.empty()) << info.name;
  }
  EXPECT_EQ(FindCommand("nope"), nullptr);
}

TEST(ResponseFrameTest, RoundTrips) {
  Response response;
  response.status = WireStatus::kOk;
  response.id = "17";
  response.payload = "line one\nline two\n";
  std::string frame = FormatResponse(response);
  Response parsed;
  StatusOr<std::size_t> consumed = ParseResponseFrame(frame, &parsed);
  ASSERT_TRUE(consumed.ok()) << consumed.status().message();
  EXPECT_EQ(*consumed, frame.size());
  EXPECT_EQ(parsed.status, response.status);
  EXPECT_EQ(parsed.id, response.id);
  EXPECT_EQ(parsed.payload, response.payload);
}

TEST(ResponseFrameTest, EmptyPayloadRoundTrips) {
  Response response;
  response.status = WireStatus::kOverloaded;
  std::string frame = FormatResponse(response);
  Response parsed;
  StatusOr<std::size_t> consumed = ParseResponseFrame(frame, &parsed);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(*consumed, frame.size());
  EXPECT_TRUE(parsed.payload.empty());
}

TEST(ResponseFrameTest, IncompleteFramesAskForMoreBytes) {
  Response response;
  response.payload = "some payload";
  std::string frame = FormatResponse(response);
  // Every strict prefix is "incomplete", consumed == 0, never an error.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    Response parsed;
    StatusOr<std::size_t> consumed =
        ParseResponseFrame(std::string_view(frame).substr(0, cut), &parsed);
    ASSERT_TRUE(consumed.ok()) << "prefix length " << cut << ": "
                               << consumed.status().message();
    EXPECT_EQ(*consumed, 0u) << "prefix length " << cut;
  }
}

TEST(ResponseFrameTest, BackToBackFramesParseOneAtATime) {
  Response first;
  first.id = "1";
  first.payload = "a";
  Response second;
  second.id = "2";
  second.status = WireStatus::kErr;
  second.payload = "b";
  std::string buffer = FormatResponse(first) + FormatResponse(second);
  Response parsed;
  StatusOr<std::size_t> consumed = ParseResponseFrame(buffer, &parsed);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(parsed.id, "1");
  buffer.erase(0, *consumed);
  consumed = ParseResponseFrame(buffer, &parsed);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(parsed.id, "2");
  EXPECT_EQ(parsed.status, WireStatus::kErr);
  EXPECT_EQ(buffer.size(), *consumed);
}

TEST(ResponseFrameTest, MalformedFramesAreRejectedNotCrashed) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"XX1 OK 1 0\n\n", "bad magic"},
      {"ZO1 WHAT 1 0\n\n", "unknown status"},
      {"ZO1 OK 1 abc\npayload\n", "non-numeric length"},
      {"ZO1 OK 1 -1\n\n", "negative length"},
      {"ZO1 OK 1\n", "missing length field"},
      {"ZO1 OK 1 99999999999999999999\n", "length overflow"},
      {"ZO1 OK 1 9999999999\n", "length past the payload cap"},
      {"ZO1 OK 1 1\nab", "missing frame terminator"},
      {std::string("ZO1 OK \x01 1\na\n", 13), "control byte in header"},
  };
  for (const auto& [buffer, label] : cases) {
    Response parsed;
    StatusOr<std::size_t> consumed = ParseResponseFrame(buffer, &parsed);
    EXPECT_FALSE(consumed.ok()) << "accepted: " << label;
  }
}

TEST(ResponseFrameTest, OversizedPayloadsAreTruncatedWithMarker) {
  Response response;
  response.payload = std::string(kMaxPayloadBytes + 100, 'x');
  std::string frame = FormatResponse(response);
  Response parsed;
  StatusOr<std::size_t> consumed = ParseResponseFrame(frame, &parsed);
  ASSERT_TRUE(consumed.ok()) << consumed.status().message();
  EXPECT_LE(parsed.payload.size(), kMaxPayloadBytes);
  EXPECT_NE(parsed.payload.find("[truncated]"), std::string::npos);
}

TEST(Utf8Test, AcceptsAndRejectsCorrectly) {
  EXPECT_TRUE(IsValidUtf8(""));
  EXPECT_TRUE(IsValidUtf8("plain ascii"));
  EXPECT_TRUE(IsValidUtf8("⊥1 ≈ µ"));          // Multi-byte BMP.
  EXPECT_TRUE(IsValidUtf8("\xf0\x9f\x98\x80"));  // U+1F600, 4 bytes.
  EXPECT_FALSE(IsValidUtf8("\x80"));             // Lone continuation.
  EXPECT_FALSE(IsValidUtf8("\xc0\xaf"));         // Overlong '/'.
  EXPECT_FALSE(IsValidUtf8("\xe0\x80\x80"));     // Overlong 3-byte.
  EXPECT_FALSE(IsValidUtf8("\xed\xa0\x80"));     // Surrogate D800.
  EXPECT_FALSE(IsValidUtf8("\xf4\x90\x80\x80")); // Past U+10FFFF.
  EXPECT_FALSE(IsValidUtf8("\xc2"));             // Truncated tail.
}

}  // namespace
}  // namespace svc
}  // namespace zeroone
