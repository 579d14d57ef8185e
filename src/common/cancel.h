#ifndef ZEROONE_COMMON_CANCEL_H_
#define ZEROONE_COMMON_CANCEL_H_

// Cooperative cancellation for long-running enumeration loops.
//
// The measure/support machinery is exponential in the number of nulls, so a
// serving layer needs a way to abandon a computation whose deadline has
// passed without killing the process. The library does not use exceptions;
// instead, the enumeration loops (ForEachPoint, ForEachOrbitPoint,
// the datalog fixpoint, the chase) poll the *current* CancelToken — a
// thread-local pointer installed by ScopedCancelToken — and bail out early
// when it reports cancellation. A cancelled computation returns garbage or
// partial results by design: the caller that installed the token must check
// `token.cancelled()` afterwards and discard the result (zeroone::svc turns
// this into a DEADLINE_EXCEEDED response). Code that never installs a token
// pays one thread-local load and one branch per poll.
//
// Tokens are shared across threads: CountGenericSupportParallel re-installs
// the parent's token inside each worker thread, so cancelling the token
// stops every shard.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace zeroone {

// A cancellation flag with an optional absolute deadline. Thread-safe.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // Requests cancellation explicitly (e.g. client disconnect, shutdown).
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  // Sets the absolute deadline after which Poll()/cancelled() report true.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_micros_.store(
        std::chrono::duration_cast<std::chrono::microseconds>(
            deadline.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }

  // True once Cancel() was called or the deadline has passed. Reads the
  // clock when a deadline is set; latches into the cancelled flag so later
  // calls are one relaxed load.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    std::int64_t deadline = deadline_micros_.load(std::memory_order_relaxed);
    if (deadline != kNoDeadline && NowMicros() >= deadline) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  // Cheap periodic check for hot loops: the cancelled flag is tested on
  // every call, the clock only every kClockStride calls (per thread).
  bool Poll() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (deadline_micros_.load(std::memory_order_relaxed) == kNoDeadline) {
      return false;
    }
    thread_local std::uint32_t countdown = 0;
    if (countdown-- != 0) return false;
    countdown = kClockStride;
    return cancelled();
  }

 private:
  static constexpr std::int64_t kNoDeadline = INT64_MAX;
  static constexpr std::uint32_t kClockStride = 64;

  static std::int64_t NowMicros() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  mutable std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_micros_{kNoDeadline};
};

// The token polled by this thread's enumeration loops; nullptr (the
// default) means "never cancelled".
CancelToken* CurrentCancelToken();

// Installs `token` as the current thread's token for the enclosing scope,
// restoring the previous one on destruction. Pass nullptr to shield a scope
// from an outer token.
class ScopedCancelToken {
 public:
  explicit ScopedCancelToken(CancelToken* token);
  ~ScopedCancelToken();
  ScopedCancelToken(const ScopedCancelToken&) = delete;
  ScopedCancelToken& operator=(const ScopedCancelToken&) = delete;

 private:
  CancelToken* previous_;
};

// True when the current thread's computation should stop. The hot-loop
// check: one thread-local load and a branch when no token is installed.
inline bool CancellationRequested() {
  CancelToken* token = CurrentCancelToken();
  return token != nullptr && token->Poll();
}

}  // namespace zeroone

#endif  // ZEROONE_COMMON_CANCEL_H_
