#ifndef ZEROONE_SVC_PROTOCOL_H_
#define ZEROONE_SVC_PROTOCOL_H_

// Wire protocol of the zeroone query server (docs/serving.md has the full
// grammar). The protocol is line-oriented and UTF-8:
//
// Request — exactly one line, at most kMaxRequestBytes bytes:
//
//   request  := *(option SP) command [SP args] LF
//   option   := "@id=" token | "@session=" token | "@deadline_ms=" uint
//             | "@nocache" | "@explain=" ("0" | "1")
//   command  := "ping" | "stats" | "db" | "load" | "reset" | "show"
//             | "query" | "naive" | "certain" | "possible" | "best"
//             | "bestmu" | "mu" | "muk" | "poly" | "compare" | "cond"
//             | "fd" | "ind" | "constraints" | "clear" | "chase" | "ra"
//             | "dlog" | "save" | "shiplist" | "ship"
//             (CommandInfo below; the table is in protocol.cc)
//
// `shiplist` and `ship <session> <from_version>` are the log-shipping
// surface a warm standby pulls over (docs/robustness.md): shiplist answers
// `<session> SP <version> LF` per session; ship answers either
// `"RECS" SP count SP more LF *record` (WAL record frames after
// from_version) or `"SNAP" LF snapshot-image` when the log has been
// compacted past the follower's cursor.
//   token    := 1*64( ALPHA / DIGIT / "_" / "-" / "." )
//
// Response — a header line followed by a length-prefixed payload:
//
//   response := "ZO1" SP status SP id SP payload_bytes LF payload LF
//   status   := "OK" | "ERR" | "BAD_REQUEST" | "OVERLOADED"
//             | "DEADLINE_EXCEEDED" | "SHUTTING_DOWN" | "UNAVAILABLE"
//
// The payload is exactly payload_bytes bytes (it may itself contain
// newlines); the trailing LF is a frame terminator, not part of the
// payload. Requests on one connection are answered in submission order.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

namespace zeroone {
namespace svc {

// Hard cap on one request line (including options), chosen to fit any
// realistic inline `db` statement while bounding per-connection memory.
inline constexpr std::size_t kMaxRequestBytes = 64 * 1024;
// Hard cap on one response payload; larger payloads are truncated with a
// trailing marker rather than silently dropped.
inline constexpr std::size_t kMaxPayloadBytes = 4 * 1024 * 1024;
// Cap on @id= and @session= tokens.
inline constexpr std::size_t kMaxTokenBytes = 64;

enum class WireStatus {
  kOk,
  kErr,               // Command-level failure (parse error, bad tuple, ...).
  kBadRequest,        // The request line itself was malformed.
  kOverloaded,        // Bounded queue full; retry later.
  kDeadlineExceeded,  // Evaluation abandoned at the request deadline.
  kShuttingDown,      // Server is draining; no new work accepted.
  kUnavailable,       // Transient server-side failure (e.g. a snapshot
                      // write failed); nothing was applied — safe to retry.
};

std::string_view WireStatusName(WireStatus status);
// Inverse of WireStatusName; errors on unknown names.
StatusOr<WireStatus> ParseWireStatus(std::string_view name);

struct Request {
  std::string id = "0";            // Echoed verbatim in the response.
  std::string session = "default"; // Named database session.
  std::uint64_t deadline_ms = 0;   // 0 = no deadline.
  bool no_cache = false;           // Bypass (and do not fill) the cache.
  bool explain = false;            // Print the query plan, don't execute.
  std::string command;
  std::string args;                // Remainder of the line, trimmed.
};

struct Response {
  WireStatus status = WireStatus::kOk;
  std::string id = "0";
  std::string payload;
};

// One row of the command table (protocol.cc), the single list of commands
// the dispatcher runs and both front ends accept.
struct CommandInfo {
  enum Flag : unsigned {
    // Changes session state (database, query, constraints): bumps the
    // session version and invalidates the session's cache entries. `query`
    // counts: it changes what the evaluation commands operate on.
    kMutation = 1u << 0,
    // A pure read whose output depends only on (session version, command,
    // args), so its successful results are worth caching.
    kCacheable = 1u << 1,
    // `@explain=1` prints the session query's plan (and, for the exact
    // commands, the exact algorithm) instead of evaluating.
    kExplainsQuery = 1u << 2,
    // `@explain=1` prints the datalog program's plan (`dlog`).
    kExplainsProgram = 1u << 3,
  };

  std::string_view name;
  unsigned flags;
  std::string_view args;     // Argument synopsis for help texts.
  std::string_view summary;  // One-line description for help texts.

  bool Has(Flag flag) const { return (flags & flag) != 0; }
};

// Every command, in help order.
std::span<const CommandInfo> Commands();
// The row for `command`, or null for a command the server does not know.
const CommandInfo* FindCommand(std::string_view command);

// Flag lookups on the command table; false for unknown commands.
bool IsKnownCommand(std::string_view command);
bool IsMutationCommand(std::string_view command);
bool IsCacheableCommand(std::string_view command);
// True for commands `@explain=1` (the CLI's --explain) applies to.
bool IsExplainableCommand(std::string_view command);

// Parses one request line (without the trailing LF). Enforces the size cap,
// UTF-8 validity, option syntax, token shape, and command membership; any
// violation is an error Status (never a crash — see svc_protocol_test).
StatusOr<Request> ParseRequestLine(std::string_view line);

// Serializes a request to its canonical line form (no trailing LF).
// Options with default values are omitted. ParseRequestLine round-trips it.
std::string FormatRequestLine(const Request& request);

// Serializes a full response frame (header, payload, terminator). Payloads
// over kMaxPayloadBytes are truncated with a "\n...[truncated]" tail.
std::string FormatResponse(const Response& response);

// Incremental response parse: examines the front of `buffer` and, if it
// holds a complete frame, fills `out` and returns the bytes consumed.
// Returns 0 when the frame is still incomplete; an error Status when the
// buffer cannot be a response frame prefix.
StatusOr<std::size_t> ParseResponseFrame(std::string_view buffer,
                                         Response* out);

// True iff `text` is well-formed UTF-8 (rejects overlongs, surrogates,
// and values past U+10FFFF). Exposed for tests.
bool IsValidUtf8(std::string_view text);

}  // namespace svc
}  // namespace zeroone

#endif  // ZEROONE_SVC_PROTOCOL_H_
