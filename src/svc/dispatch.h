#ifndef ZEROONE_SVC_DISPATCH_H_
#define ZEROONE_SVC_DISPATCH_H_

// Command execution over named sessions, with result caching.
//
// The Dispatcher runs every command of the table in svc/protocol.cc (load /
// db / query / naive / certain / possible / best / bestmu / mu / muk / poly
// / compare / fd / ind / constraints / clear / cond / chase / ra / dlog,
// plus the server-side ping / stats / save / ship commands) as a request →
// response function. It is the one implementation behind the TCP server,
// the HTTP gateway, zeroone_cli (an in-process read–print loop over it),
// the serving bench and the tests, so concurrent serving can be validated
// against sequential evaluation byte for byte.
//
// Locking: evaluation commands hold the session's shared lock, mutations
// the exclusive lock; see svc/session.h. Caching: successful cacheable
// results are stored under a key that includes the session version (see
// CacheKey); any mutation bumps the version and eagerly erases the
// session's entries.
//
// Deadlines: Execute runs under the calling thread's CancelToken (see
// common/cancel.h). When the token reports cancellation after evaluation,
// the partial result is discarded and a DEADLINE_EXCEEDED response is
// returned; cancelled results are never cached.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "svc/cache.h"
#include "svc/protocol.h"
#include "svc/session.h"
#include "svc/snapshot.h"
#include "svc/wal.h"

namespace zeroone {
namespace svc {

// When a mutation is acknowledged: after its WAL record is written
// (kAsync, survives process death via the page cache) or after the record
// is fsync'd (kFsync, survives power loss).
enum class AckMode { kAsync, kFsync };

class Dispatcher {
 public:
  struct Options {
    std::size_t cache_bytes = 8 * 1024 * 1024;
    // Directory for session snapshots; empty disables persistence (the
    // `save` command then reports ERR and drains do not write).
    std::string snapshot_dir;
    // Per-session write-ahead logging (in snapshot_dir; requires one).
    // Every applied mutation appends one record before it is acknowledged,
    // so acked mutations survive a crash without an explicit `save`.
    bool wal = true;
    AckMode ack_mode = AckMode::kAsync;
    // Fold the log into a snapshot after this many records (0 = never).
    std::uint64_t wal_compact_every = 256;
  };

  explicit Dispatcher(const Options& options);
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // Executes one parsed request to completion (request-line errors are the
  // caller's concern; `request` is assumed well-formed). Thread-safe.
  Response Execute(const Request& request);

  // Execute under a deadline of `deadline_ms` (0 = none) whose clock
  // started at `admitted` — time spent queued counts against it. A request
  // whose deadline expired while queued is answered DEADLINE_EXCEEDED
  // without starting the evaluation; otherwise a CancelToken with the
  // absolute deadline is installed for the call. This is the server's
  // worker-side entry point, shared by the legacy reader and epoll models
  // so both produce byte-identical deadline payloads.
  Response ExecuteAdmitted(const Request& request,
                           std::chrono::steady_clock::time_point admitted,
                           std::uint64_t deadline_ms);

  // The cache key for a cacheable command at one session version:
  //   session \x1f version \x1f command \x1f args \x1f query
  // The current query's canonical ToString() form participates because
  // every evaluation command is implicitly parameterized by it.
  static std::string CacheKey(const Request& request, std::uint64_t version,
                              const std::string& canonical_query);

  LruCache& cache() { return cache_; }
  SessionRegistry& sessions() { return sessions_; }
  // Null when persistence is disabled.
  SnapshotStore* snapshots() { return snapshots_.get(); }
  // Null when write-ahead logging is disabled.
  WalStore* wal() { return wal_.get(); }

  struct RecoveryReport {
    SnapshotStore::LoadReport snapshots;
    std::size_t wal_sessions = 0;         // Sessions with a log on disk.
    std::size_t wal_records_applied = 0;  // Replayed past their snapshot.
    std::size_t wal_records_skipped = 0;  // Already covered by a snapshot.
    // Final-record apply failures (a crash beat the rollback of a command
    // that failed after its append): the unacked record is truncated off.
    std::size_t wal_replay_failed = 0;
    // Mid-log apply failures: replay stops, the failed record and
    // everything after it is quarantined — later records must not apply
    // to a base missing that mutation.
    std::size_t wal_replay_diverged = 0;
    std::size_t wal_truncated_tails = 0;  // Torn tails cut off in place.
    std::size_t wal_quarantined = 0;      // Undecodable spans moved aside.
  };

  // Recovers persistent state: reloads every valid snapshot (quarantining
  // corrupt ones), then replays each session's write-ahead log tail on
  // top. No-op report when persistence is disabled. The server calls this
  // once before accepting traffic.
  RecoveryReport LoadSnapshots();

  // Persists every named session (the drain path), skipping sessions
  // whose version is already persisted. Returns the number of sessions
  // saved; failures are logged to stderr and counted in obs.
  std::size_t SaveAllSessions();

  // Follower mode: while read-only, mutation commands are answered
  // UNAVAILABLE without touching the session (promotion flips this off).
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }
  void SetReadOnly(bool read_only) {
    read_only_.store(read_only, std::memory_order_release);
  }

  // Applies one shipped record to the named session (the follower's
  // replay path): appends it to the local log, runs the command, and
  // adopts the record's version. Records at or below the session's
  // current version are skipped (idempotent re-ship). Bypasses the
  // read-only gate — replication is the one writer on a follower.
  Status ApplyReplicatedRecord(const std::string& session,
                               const WalRecord& record);

  // Installs a full shipped snapshot image (the follower's catch-up path
  // when the primary's log no longer reaches back far enough): decodes,
  // swaps the session state, persists it locally, and resets the local
  // log to the snapshot's version.
  Status InstallSnapshotImage(const std::string& image);

  // Current (name, version) of every named session — the `shiplist`
  // payload and the Replicator's pull cursor source.
  std::vector<std::pair<std::string, std::uint64_t>> SessionVersions();

  // JSON object with cache/session statistics (the `stats` payload).
  std::string StatsJson() const;

 private:
  Response ExecuteSave(const Request& request, SessionState* session);
  Response ExecuteShipList(const Request& request);
  Response ExecuteShip(const Request& request);
  // Folds the session's log into a snapshot once wal_pending reaches the
  // configured threshold. Caller holds the session's exclusive lock.
  void MaybeCompactLocked(const std::string& name, SessionState* session);

  LruCache cache_;
  SessionRegistry sessions_;
  std::unique_ptr<SnapshotStore> snapshots_;
  std::unique_ptr<WalStore> wal_;
  AckMode ack_mode_ = AckMode::kAsync;
  std::uint64_t wal_compact_every_ = 0;
  std::atomic<bool> read_only_{false};
};

}  // namespace svc
}  // namespace zeroone

#endif  // ZEROONE_SVC_DISPATCH_H_
