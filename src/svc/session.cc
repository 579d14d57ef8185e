#include "svc/session.h"

#include <chrono>

#include "obs/metrics.h"

namespace zeroone {
namespace svc {

namespace {

// While a writer has waited less than this, readers keep sharing the lock
// as they would under the plain reader-preferring mutex, so short overlaps
// cost reads nothing; past it, new reads queue behind the writer. It is a
// bound on starvation, far above the tens of milliseconds a mutation
// typically waits behind reads.
constexpr std::chrono::milliseconds kWriterGrace{250};

}  // namespace

void SessionMutex::lock() {
  {
    std::lock_guard<std::mutex> gate(gate_mutex_);
    if (waiting_writers_++ == 0) {
      waiting_since_ = std::chrono::steady_clock::now();
    }
  }
  std::shared_mutex::lock();
  {
    std::lock_guard<std::mutex> gate(gate_mutex_);
    // A writer still waiting starts a fresh grace period.
    if (--waiting_writers_ > 0) {
      waiting_since_ = std::chrono::steady_clock::now();
    }
  }
  // Readers released here queue on the base lock until unlock().
  gate_open_.notify_all();
}

void SessionMutex::lock_shared() {
  {
    std::unique_lock<std::mutex> gate(gate_mutex_);
    gate_open_.wait(gate, [this] {
      return waiting_writers_ == 0 ||
             std::chrono::steady_clock::now() - waiting_since_ < kWriterGrace;
    });
  }
  std::shared_mutex::lock_shared();
}

std::shared_ptr<SessionState> SessionRegistry::GetOrCreate(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(name);
  if (it != sessions_.end()) return it->second;
  auto session = std::make_shared<SessionState>();
  sessions_.emplace(name, session);
  ZO_COUNTER_INC("svc.sessions.created");
  return session;
}

std::vector<std::string> SessionRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) names.push_back(name);
  return names;
}

std::size_t SessionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace svc
}  // namespace zeroone
