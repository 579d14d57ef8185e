#ifndef ZEROONE_SVC_SESSION_H_
#define ZEROONE_SVC_SESSION_H_

// Named database sessions.
//
// A session carries a database, a current query, and a constraint set (a
// zeroone_cli shell is one session, `default`, of an in-process
// Dispatcher). Sessions are created on first use (the `@session=` request
// option; "default" otherwise) and live for the Dispatcher's lifetime.
//
// Concurrency: the per-session SessionMutex serializes mutations against
// evaluations — evaluation commands are pure in the session state, so any
// number of them run concurrently under shared locks, while a mutation
// (which also bumps `version`) takes the lock exclusively. The version is
// part of every cache key, so results computed against an old version can
// never be served after a mutation.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "constraints/constraint.h"
#include "constraints/fd.h"
#include "data/database.h"
#include "query/query.h"

namespace zeroone {
namespace svc {

// persisted_version value for a session no snapshot has ever captured.
inline constexpr std::uint64_t kNeverPersisted = ~std::uint64_t{0};

// The session lock: a std::shared_mutex behind a writer gate. glibc's
// std::shared_mutex prefers readers, so readers whose shared holds keep
// overlapping can starve a writer indefinitely. Here, once a writer has
// waited for a grace period (session.cc), new lock_shared() calls queue
// at the gate until it holds the lock, which bounds every mutation's wait
// by the grace period plus the longest read already running. Lock it
// through this type (std::shared_lock<SessionMutex>); a lock taken through
// the base class still excludes writers but skips the gate. Not recursive:
// a thread holding the shared lock must not take it again.
class SessionMutex : public std::shared_mutex {
 public:
  void lock();
  void lock_shared();

 private:
  std::mutex gate_mutex_;
  std::condition_variable gate_open_;
  // Guarded by gate_mutex_: writers blocked in lock(), and when the
  // current grace period began.
  std::size_t waiting_writers_ = 0;
  std::chrono::steady_clock::time_point waiting_since_;
};

struct SessionState {
  // Guards every field below except the atomics. Shared for evaluation,
  // exclusive for mutation (see Dispatcher).
  SessionMutex mutex;

  // Bumped on every successful mutation command.
  std::uint64_t version = 0;

  // The version the last successfully persisted snapshot captured
  // (kNeverPersisted before the first). Atomic because `save` runs under
  // the shared lock yet must publish its success; `save` is a fast no-op
  // when this equals `version`.
  std::atomic<std::uint64_t> persisted_version{kNeverPersisted};

  // Write-ahead-log records appended since the last compaction (guarded
  // by `mutex`; only touched on the exclusive-lock mutation path).
  std::uint64_t wal_pending = 0;

  Database db;
  Query query;
  bool has_query = false;
  ConstraintSet constraints;
  std::vector<FunctionalDependency> fds;
};

class SessionRegistry {
 public:
  SessionRegistry() = default;
  SessionRegistry(const SessionRegistry&) = delete;
  SessionRegistry& operator=(const SessionRegistry&) = delete;

  // Returns the named session, creating it on first use. The returned
  // pointer stays valid for the registry's lifetime.
  std::shared_ptr<SessionState> GetOrCreate(const std::string& name);

  // Session names in deterministic order (for the `stats` command).
  std::vector<std::string> Names() const;

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<SessionState>> sessions_;
};

}  // namespace svc
}  // namespace zeroone

#endif  // ZEROONE_SVC_SESSION_H_
