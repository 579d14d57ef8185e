#include "svc/protocol.h"

#include <algorithm>
#include <array>
#include <cctype>

namespace zeroone {
namespace svc {

namespace {

constexpr unsigned kMutation = CommandInfo::kMutation;
constexpr unsigned kCacheable = CommandInfo::kCacheable;
constexpr unsigned kExplainsQuery = CommandInfo::kExplainsQuery;
constexpr unsigned kExplainsProgram = CommandInfo::kExplainsProgram;
constexpr unsigned kEval = kCacheable | kExplainsQuery;

// The command table, in help order. `show`/`constraints`/`stats`/`ping` are
// cheap enough that caching them would only churn the LRU list;
// `load`/`dlog` read server-side files whose contents can change without a
// version bump.
constexpr CommandInfo kCommands[] = {
    {"load", kMutation, "<file>", "load a database file (data/io.h format)"},
    {"db", kMutation, "<statement>", "add one relation statement inline"},
    {"reset", kMutation, "", "drop the database, query and constraints"},
    {"show", 0, "", "print the current database"},
    {"query", kMutation, "<text>", "set the current query (ParseQuery syntax)"},
    {"naive", kEval, "", "naive answers (= almost certainly true, Thm 1)"},
    {"certain", kEval, "", "certain answers (exact; core/exact_plan.h)"},
    {"possible", kEval, "", "possible answers"},
    {"best", kEval, "", "Best(Q,D): support-maximal answers"},
    {"bestmu", kEval, "", "Best_mu(Q,D): best answers almost certainly true"},
    {"mu", kEval, "<tuple>", "mu(Q,D,a) limit (0 or 1, by the 0-1 law)"},
    {"muk", kEval, "<k> <tuple>", "exact mu^k(Q,D,a)"},
    {"poly", kEval, "<tuple>", "support-count polynomial |Supp^k| in k"},
    {"compare", kEval, "<t1> <t2>", "Supp inclusion between two tuples"},
    {"fd", kMutation, "<R> <arity> <l1,..> <rhs>",
     "add a functional dependency"},
    {"ind", kMutation, "<R> <ar> <pos,..> <S> <ar> <pos,..>",
     "add an inclusion dependency"},
    {"constraints", 0, "", "list constraints"},
    {"clear", kMutation, "", "drop all constraints"},
    {"cond", kEval, "<tuple>", "exact conditional mu(Q|Sigma,D,a)"},
    {"chase", kMutation, "", "chase the database with the FD constraints"},
    {"ra", kCacheable, "<expr>", "evaluate a relational-algebra plan (naive)"},
    {"dlog", kExplainsProgram, "<file>",
     "evaluate a datalog program's goal relation (naive)"},
    {"ping", 0, "", "answer pong"},
    {"stats", 0, "", "cache and session counters as JSON"},
    {"save", 0, "", "persist the session now (needs a snapshot directory)"},
    {"shiplist", 0, "", "session versions, for log shipping"},
    {"ship", 0, "<session> <from_version>",
     "log records past a cursor, for log shipping"},
};

bool IsTokenChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '.';
}

bool IsValidToken(std::string_view token) {
  if (token.empty() || token.size() > kMaxTokenBytes) return false;
  return std::all_of(token.begin(), token.end(), IsTokenChar);
}

std::string_view TrimSpaces(std::string_view text) {
  while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
  while (!text.empty() && text.back() == ' ') text.remove_suffix(1);
  return text;
}

StatusOr<std::uint64_t> ParseUint(std::string_view text) {
  if (text.empty() || text.size() > 19) {
    return Status::Error("bad unsigned integer '", text, "'");
  }
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::Error("bad unsigned integer '", text, "'");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

}  // namespace

std::string_view WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "OK";
    case WireStatus::kErr: return "ERR";
    case WireStatus::kBadRequest: return "BAD_REQUEST";
    case WireStatus::kOverloaded: return "OVERLOADED";
    case WireStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case WireStatus::kShuttingDown: return "SHUTTING_DOWN";
    case WireStatus::kUnavailable: return "UNAVAILABLE";
  }
  return "ERR";
}

StatusOr<WireStatus> ParseWireStatus(std::string_view name) {
  constexpr std::array<WireStatus, 7> all = {
      WireStatus::kOk,           WireStatus::kErr,
      WireStatus::kBadRequest,   WireStatus::kOverloaded,
      WireStatus::kDeadlineExceeded, WireStatus::kShuttingDown,
      WireStatus::kUnavailable,
  };
  for (WireStatus status : all) {
    if (WireStatusName(status) == name) return status;
  }
  return Status::Error("unknown wire status '", name, "'");
}

std::span<const CommandInfo> Commands() { return kCommands; }

const CommandInfo* FindCommand(std::string_view command) {
  for (const CommandInfo& info : kCommands) {
    if (info.name == command) return &info;
  }
  return nullptr;
}

bool IsKnownCommand(std::string_view command) {
  return FindCommand(command) != nullptr;
}

bool IsMutationCommand(std::string_view command) {
  const CommandInfo* info = FindCommand(command);
  return info != nullptr && info->Has(CommandInfo::kMutation);
}

bool IsCacheableCommand(std::string_view command) {
  const CommandInfo* info = FindCommand(command);
  return info != nullptr && info->Has(CommandInfo::kCacheable);
}

bool IsExplainableCommand(std::string_view command) {
  const CommandInfo* info = FindCommand(command);
  return info != nullptr &&
         (info->flags & (kExplainsQuery | kExplainsProgram)) != 0;
}

bool IsValidUtf8(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size()) {
    unsigned char c = static_cast<unsigned char>(text[i]);
    std::size_t len;
    std::uint32_t code;
    if (c < 0x80) {
      ++i;
      continue;
    } else if ((c & 0xE0) == 0xC0) {
      len = 2;
      code = c & 0x1F;
    } else if ((c & 0xF0) == 0xE0) {
      len = 3;
      code = c & 0x0F;
    } else if ((c & 0xF8) == 0xF0) {
      len = 4;
      code = c & 0x07;
    } else {
      return false;  // Stray continuation byte or 5+/invalid lead byte.
    }
    if (i + len > text.size()) return false;  // Truncated sequence.
    for (std::size_t j = 1; j < len; ++j) {
      unsigned char cc = static_cast<unsigned char>(text[i + j]);
      if ((cc & 0xC0) != 0x80) return false;
      code = (code << 6) | (cc & 0x3F);
    }
    // Overlong encodings, UTF-16 surrogates, and out-of-range values.
    constexpr std::uint32_t min_for_len[5] = {0, 0, 0x80, 0x800, 0x10000};
    if (code < min_for_len[len]) return false;
    if (code >= 0xD800 && code <= 0xDFFF) return false;
    if (code > 0x10FFFF) return false;
    i += len;
  }
  return true;
}

StatusOr<Request> ParseRequestLine(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    return Status::Error("request line of ", line.size(),
                         " bytes exceeds the ", kMaxRequestBytes,
                         "-byte limit");
  }
  for (char c : line) {
    // All C0 control bytes are rejected, not just the line terminators:
    // this is what lets '\x1f' serve as an unambiguous cache-key separator
    // (svc/dispatch.cc) and keeps payload echoes printable.
    unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7f) {
      return Status::Error("request line contains a control byte (0x",
                           static_cast<int>(u), ")");
    }
  }
  if (!IsValidUtf8(line)) {
    return Status::Error("request line is not valid UTF-8");
  }

  Request request;
  std::string_view rest = TrimSpaces(line);
  while (!rest.empty() && rest.front() == '@') {
    std::size_t space = rest.find(' ');
    std::string_view option = rest.substr(0, space);
    rest = space == std::string_view::npos
               ? std::string_view()
               : TrimSpaces(rest.substr(space + 1));
    if (option == "@nocache") {
      request.no_cache = true;
    } else if (option.rfind("@id=", 0) == 0) {
      std::string_view value = option.substr(4);
      if (!IsValidToken(value)) {
        return Status::Error("bad @id token '", std::string(value), "'");
      }
      request.id = std::string(value);
    } else if (option.rfind("@session=", 0) == 0) {
      std::string_view value = option.substr(9);
      if (!IsValidToken(value)) {
        return Status::Error("bad @session token '", std::string(value), "'");
      }
      request.session = std::string(value);
    } else if (option.rfind("@deadline_ms=", 0) == 0) {
      ZO_ASSIGN_OR_RETURN(request.deadline_ms,
                          ParseUint(option.substr(13)));
    } else if (option.rfind("@explain=", 0) == 0) {
      std::uint64_t value = 0;
      ZO_ASSIGN_OR_RETURN(value, ParseUint(option.substr(9)));
      if (value > 1) {
        return Status::Error("bad @explain value '",
                             std::string(option.substr(9)),
                             "' (expected 0 or 1)");
      }
      request.explain = value != 0;
    } else {
      return Status::Error("unknown request option '", std::string(option),
                           "'");
    }
  }
  if (rest.empty()) {
    return Status::Error("empty request: expected a command");
  }
  std::size_t space = rest.find(' ');
  request.command = std::string(rest.substr(0, space));
  if (!IsKnownCommand(request.command)) {
    return Status::Error("unknown command '", request.command,
                         "' (see docs/serving.md)");
  }
  if (space != std::string_view::npos) {
    request.args = std::string(TrimSpaces(rest.substr(space + 1)));
  }
  return request;
}

std::string FormatRequestLine(const Request& request) {
  std::string line;
  if (request.id != "0") line += StrCat("@id=", request.id, " ");
  if (request.session != "default") {
    line += StrCat("@session=", request.session, " ");
  }
  if (request.deadline_ms != 0) {
    line += StrCat("@deadline_ms=", request.deadline_ms, " ");
  }
  if (request.no_cache) line += "@nocache ";
  if (request.explain) line += "@explain=1 ";
  line += request.command;
  if (!request.args.empty()) line += StrCat(" ", request.args);
  return line;
}

std::string FormatResponse(const Response& response) {
  std::string_view payload = response.payload;
  std::string_view marker;
  if (payload.size() > kMaxPayloadBytes) {
    marker = "\n...[truncated]";
    payload = payload.substr(0, kMaxPayloadBytes - marker.size());
  }
  std::string frame = StrCat("ZO1 ", WireStatusName(response.status), " ",
                             response.id, " ", payload.size() + marker.size(),
                             "\n");
  frame.append(payload);
  frame.append(marker);
  frame.push_back('\n');
  return frame;
}

StatusOr<std::size_t> ParseResponseFrame(std::string_view buffer,
                                         Response* out) {
  std::size_t newline = buffer.find('\n');
  if (newline == std::string_view::npos) {
    if (buffer.size() > kMaxRequestBytes) {
      return Status::Error("response header exceeds ", kMaxRequestBytes,
                           " bytes without a newline");
    }
    return std::size_t{0};  // Header incomplete.
  }
  std::string_view header = buffer.substr(0, newline);
  if (header.rfind("ZO1 ", 0) != 0) {
    return Status::Error("bad response header '", std::string(header), "'");
  }
  header.remove_prefix(4);
  std::size_t space1 = header.find(' ');
  if (space1 == std::string_view::npos) {
    return Status::Error("response header missing id");
  }
  std::size_t space2 = header.find(' ', space1 + 1);
  if (space2 == std::string_view::npos) {
    return Status::Error("response header missing payload length");
  }
  Response response;
  ZO_ASSIGN_OR_RETURN(response.status,
                      ParseWireStatus(header.substr(0, space1)));
  response.id = std::string(
      header.substr(space1 + 1, space2 - space1 - 1));
  if (!IsValidToken(response.id)) {
    return Status::Error("bad response id token");
  }
  ZO_ASSIGN_OR_RETURN(std::uint64_t length,
                      ParseUint(header.substr(space2 + 1)));
  if (length > kMaxPayloadBytes + 32) {
    return Status::Error("response payload length ", length,
                         " exceeds the limit");
  }
  std::size_t frame_size = newline + 1 + length + 1;
  if (buffer.size() < frame_size) return std::size_t{0};  // Payload pending.
  if (buffer[frame_size - 1] != '\n') {
    return Status::Error("response frame missing terminator");
  }
  response.payload = std::string(buffer.substr(newline + 1, length));
  *out = std::move(response);
  return frame_size;
}

}  // namespace svc
}  // namespace zeroone
