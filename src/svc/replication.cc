#include "svc/replication.h"

#include <chrono>
#include <cstdio>
#include <shared_mutex>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/parse.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "svc/client.h"
#include "svc/wal.h"

namespace zeroone {
namespace svc {

namespace {

using Clock = std::chrono::steady_clock;

// Parses one shiplist line `<session> SP <version>`.
bool ParseShipListLine(std::string_view line, std::string* session,
                       std::uint64_t* version) {
  std::size_t space = line.find(' ');
  if (space == std::string_view::npos || space == 0) return false;
  StatusOr<std::uint64_t> value = ParseUint64(line.substr(space + 1));
  if (!value.ok()) return false;
  *session = std::string(line.substr(0, space));
  *version = *value;
  return true;
}

}  // namespace

Replicator::Replicator(Dispatcher* dispatcher,
                       const ReplicatorOptions& options)
    : dispatcher_(dispatcher), options_(options) {}

Replicator::~Replicator() { Stop(); }

void Replicator::Start() {
  if (running_.exchange(true)) return;
  stop_.store(false, std::memory_order_release);
  dispatcher_->SetReadOnly(true);
  thread_ = std::thread(&Replicator::Loop, this);
}

void Replicator::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

Replicator::Stats Replicator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Replicator::Loop() {
  // The promotion clock measures continuous *unreachability*: it resets on
  // every successful pull and on every replication-level failure (the
  // primary answered, so it is provably alive). Only transport failures
  // let it run — promoting while the primary serves writes is split brain.
  Clock::time_point last_contact = Clock::now();
  bool broken = false;
  while (!stop_.load(std::memory_order_acquire)) {
    PullFailureKind kind = PullFailureKind::kNone;
    Status pulled = PullOnce(&kind);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.pulls;
      if (!pulled.ok()) {
        ++stats_.pull_failures;
        if (kind == PullFailureKind::kTransport) ++stats_.transport_failures;
        if (kind == PullFailureKind::kReplication) ++stats_.broken_pulls;
      }
    }
    if (pulled.ok()) {
      last_contact = Clock::now();
      if (broken) {
        broken = false;
        std::fprintf(stderr, "replication: stream healed; following again\n");
      }
      ZO_COUNTER_INC("svc.repl.pulls_ok");
    } else if (kind == PullFailureKind::kReplication) {
      last_contact = Clock::now();
      ZO_COUNTER_INC("svc.repl.pulls_broken");
      if (!broken) {
        broken = true;
        std::fprintf(stderr,
                     "replication: BROKEN — the primary is alive but the "
                     "stream is unusable (%s); alarming, not promoting\n",
                     pulled.message().c_str());
      }
    } else {
      ZO_COUNTER_INC("svc.repl.pulls_failed");
      if (options_.promote_after_ms > 0 &&
          Clock::now() - last_contact >=
              std::chrono::milliseconds(options_.promote_after_ms)) {
        Promote();
        return;  // Promoted standbys stop pulling for good.
      }
    }
    // Sleep in short slices so Stop() is honored promptly.
    Clock::time_point wake =
        Clock::now() + std::chrono::milliseconds(options_.pull_interval_ms);
    while (!stop_.load(std::memory_order_acquire) && Clock::now() < wake) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

void Replicator::Promote() {
  promoted_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.promoted = true;
  }
  dispatcher_->SetReadOnly(false);
  ZO_COUNTER_INC("svc.repl.promoted");
  std::fprintf(stderr,
               "replication: primary unreachable for %llu ms; promoting "
               "standby to primary (mutations now accepted)\n",
               static_cast<unsigned long long>(options_.promote_after_ms));
}

Status Replicator::PullOnce(PullFailureKind* kind_out) {
  PullFailureKind kind = PullFailureKind::kReplication;
  Status status = Pull(&kind);
  if (kind_out != nullptr) {
    *kind_out = status.ok() ? PullFailureKind::kNone : kind;
  }
  return status;
}

Status Replicator::Pull(PullFailureKind* kind) {
  ClientOptions client_options;
  client_options.connect_timeout_ms = options_.io_timeout_ms;
  client_options.io_timeout_ms = options_.io_timeout_ms;
  BlockingClient client(client_options);
  // No response seen yet: a failure here is transport-level (the primary
  // may be dead).
  *kind = PullFailureKind::kTransport;
  ZO_RETURN_IF_ERROR(client.Connect(options_.host, options_.port));

  Request list;
  list.command = "shiplist";
  StatusOr<Response> listed = client.Call(list);
  if (!listed.ok()) return listed.status();  // Still transport: no answer.
  // The primary answered: every failure from here on proves it alive.
  *kind = PullFailureKind::kReplication;
  if (listed->status != WireStatus::kOk) {
    return Status::Error("shiplist answered ",
                         WireStatusName(listed->status), ": ",
                         listed->payload);
  }

  std::istringstream lines(listed->payload);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string session;
    std::uint64_t primary_version = 0;
    if (!ParseShipListLine(line, &session, &primary_version)) {
      return Status::Error("bad shiplist line '", line, "'");
    }
    std::uint64_t cursor = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = cursors_.find(session);
      if (it != cursors_.end()) cursor = it->second;
    }
    if (cursor == 0) {
      // First contact (or a follower restart): resume from whatever the
      // local recovery already holds instead of re-shipping history.
      std::shared_ptr<SessionState> local =
          dispatcher_->sessions().GetOrCreate(session);
      std::shared_lock<SessionMutex> lock(local->mutex);
      cursor = local->version;
    }
    while (cursor < primary_version &&
           !stop_.load(std::memory_order_acquire)) {
      Request ship;
      ship.command = "ship";
      ship.args = StrCat(session, " ", cursor);
      *kind = PullFailureKind::kTransport;  // This call may go unanswered.
      StatusOr<Response> shipped = client.Call(ship);
      if (!shipped.ok()) return shipped.status();
      *kind = PullFailureKind::kReplication;
      if (shipped->status != WireStatus::kOk) {
        return Status::Error("ship ", session, " answered ",
                             WireStatusName(shipped->status), ": ",
                             shipped->payload);
      }
      bool caught_up = false;
      ZO_RETURN_IF_ERROR(
          ApplyShipPayload(session, shipped->payload, &cursor, &caught_up));
      {
        std::lock_guard<std::mutex> lock(mutex_);
        cursors_[session] = cursor;
      }
      if (caught_up) break;
    }
  }
  return Status::Ok();
}

Status Replicator::ApplyShipPayload(const std::string& session,
                                    const std::string& payload,
                                    std::uint64_t* cursor, bool* caught_up) {
  *caught_up = false;
  std::size_t newline = payload.find('\n');
  if (newline == std::string::npos) {
    return Status::Error("ship payload for '", session, "' has no header");
  }
  std::string_view head = std::string_view(payload).substr(0, newline);

  if (head == "SNAP") {
    Status installed =
        dispatcher_->InstallSnapshotImage(payload.substr(newline + 1));
    if (!installed.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.decode_failures;
      return installed;
    }
    std::shared_ptr<SessionState> local =
        dispatcher_->sessions().GetOrCreate(session);
    {
      std::shared_lock<SessionMutex> session_lock(local->mutex);
      *cursor = local->version;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.snapshots_installed;
    ZO_COUNTER_INC("svc.repl.snapshots_installed");
    return Status::Ok();
  }

  constexpr std::string_view kRecsPrefix = "RECS ";
  if (head.substr(0, kRecsPrefix.size()) != kRecsPrefix) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.decode_failures;
    return Status::Error("bad ship header '", head, "' for '", session, "'");
  }
  std::string_view counts = head.substr(kRecsPrefix.size());
  bool more = !counts.empty() && counts.back() == '1';
  std::size_t count = 0;

  std::size_t offset = newline + 1;
  while (offset < payload.size()) {
    WalRecord record;
    StatusOr<std::size_t> consumed = DecodeWalRecord(
        std::string_view(payload).substr(offset), &record);
    if (consumed.ok() && *consumed > 0 &&
        ZO_FAULT_POINT("replay.decode.fail")) {
      // Injected stream corruption: the pull aborts and retries from the
      // last applied cursor — shipped records are idempotent by version.
      consumed = Status::Error("injected fault: replay.decode.fail");
    }
    if (!consumed.ok() || *consumed == 0) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.decode_failures;
      }
      ZO_COUNTER_INC("svc.repl.decode_failed");
      return Status::Error(
          "undecodable shipped record for '", session, "': ",
          consumed.ok() ? "truncated frame" : consumed.status().message());
    }
    offset += *consumed;
    ZO_RETURN_IF_ERROR(dispatcher_->ApplyReplicatedRecord(session, record));
    *cursor = record.version;
    ++count;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.records_applied;
    }
    ZO_COUNTER_INC("svc.repl.records_applied");
  }
  // `RECS 0 0` (nothing past the cursor) means the follower is current.
  *caught_up = (count == 0 && !more);
  return Status::Ok();
}

}  // namespace svc
}  // namespace zeroone
