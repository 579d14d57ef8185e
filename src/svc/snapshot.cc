#include "svc/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "constraints/fd.h"
#include "constraints/ind.h"
#include "data/io.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "query/parser.h"

namespace zeroone {
namespace svc {

namespace {

bool IsSessionChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
}

bool IsValidSessionName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  return std::all_of(name.begin(), name.end(), IsSessionChar);
}

std::string JoinPositions(const std::vector<std::size_t>& positions) {
  std::string out;
  for (std::size_t p : positions) {
    if (!out.empty()) out += ',';
    out += std::to_string(p);
  }
  return out;
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

StatusOr<std::vector<std::size_t>> ParsePositions(std::string_view text) {
  std::vector<std::size_t> positions;
  while (!text.empty()) {
    std::size_t comma = text.find(',');
    std::string_view item = text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view()
                                           : text.substr(comma + 1);
    ZO_ASSIGN_OR_RETURN(std::uint64_t value, ParseUint(item));
    positions.push_back(static_cast<std::size_t>(value));
  }
  if (positions.empty()) return Status::Error("empty position list");
  return positions;
}

void AppendSection(std::string* body, std::string_view kind,
                   std::string_view content) {
  *body += '[';
  *body += kind;
  *body += ' ';
  *body += std::to_string(content.size());
  *body += "]\n";
  *body += content;
  *body += '\n';
}

// Splits whitespace-separated fields of an fd/ind section payload.
std::vector<std::string_view> SplitFields(std::string_view text) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && text[i] == ' ') ++i;
    std::size_t start = i;
    while (i < text.size() && text[i] != ' ') ++i;
    if (i > start) fields.push_back(text.substr(start, i - start));
  }
  return fields;
}

StatusOr<std::shared_ptr<const FunctionalDependency>> ParseFdSection(
    std::string_view content) {
  std::vector<std::string_view> fields = SplitFields(content);
  if (fields.size() != 4) {
    return Status::Error("fd section needs 4 fields, got ", fields.size());
  }
  ZO_ASSIGN_OR_RETURN(std::uint64_t arity, ParseUint(fields[1]));
  ZO_ASSIGN_OR_RETURN(std::vector<std::size_t> lhs,
                      ParsePositions(fields[2]));
  ZO_ASSIGN_OR_RETURN(std::uint64_t rhs, ParseUint(fields[3]));
  if (arity == 0 || rhs >= arity) {
    return Status::Error("fd rhs ", rhs, " out of range for arity ", arity);
  }
  for (std::size_t p : lhs) {
    if (p >= arity) {
      return Status::Error("fd lhs position ", p, " out of range for arity ",
                           arity);
    }
  }
  return std::make_shared<const FunctionalDependency>(
      std::string(fields[0]), static_cast<std::size_t>(arity), std::move(lhs),
      static_cast<std::size_t>(rhs));
}

StatusOr<std::shared_ptr<const InclusionDependency>> ParseIndSection(
    std::string_view content) {
  std::vector<std::string_view> fields = SplitFields(content);
  if (fields.size() != 6) {
    return Status::Error("ind section needs 6 fields, got ", fields.size());
  }
  ZO_ASSIGN_OR_RETURN(std::uint64_t from_arity, ParseUint(fields[1]));
  ZO_ASSIGN_OR_RETURN(std::vector<std::size_t> from_positions,
                      ParsePositions(fields[2]));
  ZO_ASSIGN_OR_RETURN(std::uint64_t to_arity, ParseUint(fields[4]));
  ZO_ASSIGN_OR_RETURN(std::vector<std::size_t> to_positions,
                      ParsePositions(fields[5]));
  if (from_arity == 0 || to_arity == 0 ||
      from_positions.size() != to_positions.size()) {
    return Status::Error("ind sides disagree: ", from_positions.size(),
                         " vs ", to_positions.size(), " positions");
  }
  for (std::size_t p : from_positions) {
    if (p >= from_arity) {
      return Status::Error("ind position ", p, " out of range for arity ",
                           from_arity);
    }
  }
  for (std::size_t p : to_positions) {
    if (p >= to_arity) {
      return Status::Error("ind position ", p, " out of range for arity ",
                           to_arity);
    }
  }
  return std::make_shared<const InclusionDependency>(
      std::string(fields[0]), static_cast<std::size_t>(from_arity),
      std::move(from_positions), std::string(fields[3]),
      static_cast<std::size_t>(to_arity), std::move(to_positions));
}

// Reads `prefix` + value + LF at `*offset`, advancing past it.
StatusOr<std::string_view> ReadHeaderLine(std::string_view bytes,
                                          std::size_t* offset,
                                          std::string_view prefix) {
  std::size_t newline = bytes.find('\n', *offset);
  if (newline == std::string_view::npos) {
    return Status::Error("truncated header (no '", prefix, "' line)");
  }
  std::string_view line = bytes.substr(*offset, newline - *offset);
  if (line.substr(0, prefix.size()) != prefix) {
    return Status::Error("expected header '", prefix, "', got '", line, "'");
  }
  *offset = newline + 1;
  return line.substr(prefix.size());
}

// Writes all of `data` to `fd`, short-write tolerant. The snap.write.fail
// fault simulates a full disk: half the bytes land, then ENOSPC.
bool WriteAllFd(int fd, std::string_view data) {
  if (ZO_FAULT_POINT("snap.write.fail")) {
    (void)::write(fd, data.data(), data.size() / 2);
    errno = ENOSPC;
    return false;
  }
  while (!data.empty()) {
    ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

StatusOr<std::string> EncodeSnapshot(const std::string& session,
                                     const SessionState& state) {
  if (!IsValidSessionName(session)) {
    return Status::Error("session name '", session,
                         "' cannot be snapshotted");
  }
  std::string body;
  AppendSection(&body, "database", FormatDatabase(state.db));
  if (state.has_query) {
    AppendSection(&body, "query", state.query.ToString());
  }
  for (const ConstraintPtr& constraint : state.constraints) {
    if (const auto* fd =
            dynamic_cast<const FunctionalDependency*>(constraint.get())) {
      AppendSection(&body, "fd",
                    StrCat(fd->relation(), " ", fd->arity(), " ",
                           JoinPositions(fd->lhs()), " ", fd->rhs()));
    } else if (const auto* ind = dynamic_cast<const InclusionDependency*>(
                   constraint.get())) {
      AppendSection(
          &body, "ind",
          StrCat(ind->from_relation(), " ", ind->from_arity(), " ",
                 JoinPositions(ind->from_positions()), " ",
                 ind->to_relation(), " ", ind->to_arity(), " ",
                 JoinPositions(ind->to_positions())));
    } else {
      return Status::Error("constraint '", constraint->ToString(),
                           "' has no snapshot serialization");
    }
  }
  char crc_hex[9];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", Crc32(body));
  std::string out;
  out.reserve(body.size() + 128);
  out += kSnapshotMagic;
  out += '\n';
  out += StrCat("session=", session, "\n");
  out += StrCat("version=", state.version, "\n");
  out += StrCat("body_bytes=", body.size(), "\n");
  out += StrCat("crc32=", crc_hex, "\n");
  out += '\n';
  out += body;
  out += '\n';
  return out;
}

Status DecodeSnapshot(std::string_view bytes, std::string* session,
                      SessionState* state) {
  std::size_t offset = 0;
  ZO_ASSIGN_OR_RETURN(std::string_view magic,
                      ReadHeaderLine(bytes, &offset, ""));
  if (magic != kSnapshotMagic) {
    return Status::Error("bad magic '", magic, "'");
  }
  ZO_ASSIGN_OR_RETURN(std::string_view session_field,
                      ReadHeaderLine(bytes, &offset, "session="));
  if (!IsValidSessionName(session_field)) {
    return Status::Error("bad session name '", session_field, "'");
  }
  ZO_ASSIGN_OR_RETURN(std::string_view version_field,
                      ReadHeaderLine(bytes, &offset, "version="));
  ZO_ASSIGN_OR_RETURN(std::uint64_t version, ParseUint(version_field));
  ZO_ASSIGN_OR_RETURN(std::string_view body_bytes_field,
                      ReadHeaderLine(bytes, &offset, "body_bytes="));
  ZO_ASSIGN_OR_RETURN(std::uint64_t body_bytes, ParseUint(body_bytes_field));
  ZO_ASSIGN_OR_RETURN(std::string_view crc_field,
                      ReadHeaderLine(bytes, &offset, "crc32="));
  if (crc_field.size() != 8) {
    return Status::Error("bad crc32 field '", crc_field, "'");
  }
  std::uint32_t expected_crc = 0;
  for (char c : crc_field) {
    std::uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return Status::Error("bad crc32 field '", crc_field, "'");
    }
    expected_crc = expected_crc * 16 + digit;
  }
  ZO_ASSIGN_OR_RETURN(std::string_view blank,
                      ReadHeaderLine(bytes, &offset, ""));
  if (!blank.empty()) {
    return Status::Error("expected blank line after header");
  }
  if (bytes.size() != offset + body_bytes + 1 || bytes.back() != '\n') {
    return Status::Error("file is ", bytes.size(), " bytes, header says ",
                         offset + body_bytes + 1);
  }
  std::string_view body = bytes.substr(offset, body_bytes);
  std::uint32_t actual_crc = Crc32(body);
  if (actual_crc != expected_crc) {
    return Status::Error("body crc mismatch");
  }

  // The body checks out; parse its sections.
  bool database_seen = false;
  Database db;
  Query query;
  bool has_query = false;
  ConstraintSet constraints;
  std::vector<FunctionalDependency> fds;
  std::size_t at = 0;
  while (at < body.size()) {
    if (body[at] != '[') {
      return Status::Error("expected section at body offset ", at);
    }
    std::size_t close = body.find("]\n", at);
    if (close == std::string_view::npos) {
      return Status::Error("unterminated section header");
    }
    std::string_view header = body.substr(at + 1, close - at - 1);
    std::size_t space = header.find(' ');
    if (space == std::string_view::npos) {
      return Status::Error("section header '", header, "' has no size");
    }
    std::string_view kind = header.substr(0, space);
    ZO_ASSIGN_OR_RETURN(std::uint64_t size,
                        ParseUint(header.substr(space + 1)));
    std::size_t content_start = close + 2;
    if (content_start + size + 1 > body.size() ||
        body[content_start + size] != '\n') {
      return Status::Error("section '", kind, "' overruns the body");
    }
    std::string_view content = body.substr(content_start, size);
    at = content_start + size + 1;
    if (kind == "database") {
      if (database_seen) return Status::Error("duplicate database section");
      database_seen = true;
      ZO_ASSIGN_OR_RETURN(db, ParseDatabase(content));
    } else if (kind == "query") {
      if (has_query) return Status::Error("duplicate query section");
      has_query = true;
      ZO_ASSIGN_OR_RETURN(query, ParseQuery(content));
    } else if (kind == "fd") {
      ZO_ASSIGN_OR_RETURN(std::shared_ptr<const FunctionalDependency> fd,
                          ParseFdSection(content));
      fds.push_back(*fd);
      constraints.push_back(std::move(fd));
    } else if (kind == "ind") {
      ZO_ASSIGN_OR_RETURN(std::shared_ptr<const InclusionDependency> ind,
                          ParseIndSection(content));
      constraints.push_back(std::move(ind));
    } else {
      return Status::Error("unknown section kind '", kind, "'");
    }
  }
  if (!database_seen) return Status::Error("missing database section");

  *session = std::string(session_field);
  state->version = version;
  state->db = std::move(db);
  state->query = std::move(query);
  state->has_query = has_query;
  state->constraints = std::move(constraints);
  state->fds = std::move(fds);
  return Status::Ok();
}

SnapshotStore::SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

std::string SnapshotStore::PathFor(const std::string& session) const {
  return StrCat(dir_, "/", session, kSnapshotSuffix);
}

Status SnapshotStore::Prepare() const {
  if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::Error("cannot create snapshot dir '", dir_,
                         "': ", std::strerror(errno));
  }
  return Status::Ok();
}

Status SnapshotStore::Save(const std::string& session,
                           const SessionState& state) {
  ZO_ASSIGN_OR_RETURN(std::string image, EncodeSnapshot(session, state));
  if (ZO_FAULT_POINT("snap.corrupt")) {
    // Simulated silent corruption (a torn sector the rename dance cannot
    // prevent): flip one body byte. The CRC catches it at load time.
    image[image.size() / 2] ^= 0x20;
  }
  const std::string final_path = PathFor(session);
  const std::string tmp_path =
      StrCat(final_path, ".tmp.", ::getpid(), ".",
             tmp_seq_.fetch_add(1, std::memory_order_relaxed));
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Error("cannot create '", tmp_path,
                         "': ", std::strerror(errno));
  }
  if (!WriteAllFd(fd, image)) {
    Status status = Status::Error("write to '", tmp_path,
                                  "' failed: ", std::strerror(errno));
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return status;
  }
  if (ZO_FAULT_POINT("snap.fsync.fail") || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return Status::Error("fsync '", tmp_path, "' failed");
  }
  if (::close(fd) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::Error("close '", tmp_path,
                         "' failed: ", std::strerror(errno));
  }
  if (ZO_FAULT_POINT("snap.rename.fail") ||
      ::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::Error("rename to '", final_path, "' failed");
  }
  // Make the rename itself durable before acknowledging.
  int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  ZO_COUNTER_INC("svc.snapshot.saved");
  return Status::Ok();
}

SnapshotStore::LoadReport SnapshotStore::LoadAll(SessionRegistry* sessions) {
  LoadReport report;
  std::vector<std::string> names;
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) return report;  // No directory: nothing persisted yet.
  while (dirent* entry = ::readdir(dir)) {
    names.emplace_back(entry->d_name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());

  auto quarantine = [&](const std::string& name, const Status& why) {
    const std::string path = StrCat(dir_, "/", name);
    const std::string aside = StrCat(path, ".corrupt");
    std::fprintf(stderr,
                 "snapshot: quarantining '%s' (%s); moved to '%s'\n",
                 path.c_str(), why.message().c_str(), aside.c_str());
    if (::rename(path.c_str(), aside.c_str()) != 0) {
      std::fprintf(stderr, "snapshot: rename aside failed: %s\n",
                   std::strerror(errno));
    }
    ++report.quarantined;
    ZO_COUNTER_INC("svc.snapshot.quarantined");
  };

  for (const std::string& name : names) {
    if (name.find(std::string(kSnapshotSuffix) + ".tmp.") !=
        std::string::npos) {
      // Leftover from a Save interrupted mid-write: never valid, remove.
      ::unlink(StrCat(dir_, "/", name).c_str());
      ++report.tmp_removed;
      ZO_COUNTER_INC("svc.snapshot.tmp_removed");
      continue;
    }
    if (name.size() <= kSnapshotSuffix.size() ||
        name.substr(name.size() - kSnapshotSuffix.size()) !=
            kSnapshotSuffix) {
      continue;  // Not a snapshot (e.g. an earlier *.corrupt file).
    }
    const std::string stem =
        name.substr(0, name.size() - kSnapshotSuffix.size());
    std::ifstream file(StrCat(dir_, "/", name), std::ios::binary);
    if (!file) {
      quarantine(name, Status::Error("unreadable"));
      continue;
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    const std::string image = contents.str();

    std::string session;
    SessionState loaded;
    Status decoded = DecodeSnapshot(image, &session, &loaded);
    if (!decoded.ok()) {
      quarantine(name, decoded);
      continue;
    }
    if (session != stem) {
      quarantine(name, Status::Error("header session '", session,
                                     "' does not match filename"));
      continue;
    }
    std::shared_ptr<SessionState> target = sessions->GetOrCreate(session);
    {
      std::unique_lock<SessionMutex> lock(target->mutex);
      target->version = loaded.version;
      target->db = std::move(loaded.db);
      target->query = std::move(loaded.query);
      target->has_query = loaded.has_query;
      target->constraints = std::move(loaded.constraints);
      target->fds = std::move(loaded.fds);
      // The on-disk snapshot is exactly this state: `save` can no-op
      // until the next mutation.
      target->persisted_version.store(loaded.version,
                                      std::memory_order_release);
    }
    ++report.loaded;
    ZO_COUNTER_INC("svc.snapshot.loaded");
  }
  return report;
}

}  // namespace svc
}  // namespace zeroone
