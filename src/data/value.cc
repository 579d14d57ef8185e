#include "data/value.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <mutex>
#include <ostream>
#include <unordered_map>

#include "obs/metrics.h"

namespace zeroone {

namespace {

// Process-wide intern table for one kind of value. Thread-safe; names are
// never removed, so ids are stable for the process lifetime.
class InternTable {
 public:
  std::uint32_t Intern(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ids_.find(std::string(name));
    if (it != ids_.end()) return it->second;
    std::uint32_t id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
  }

  // Interns prefix+counter for the first counter value whose name is unused.
  std::uint32_t InternFresh(const std::string& prefix) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (true) {
      std::string candidate = prefix + std::to_string(fresh_counter_++);
      if (ids_.find(candidate) == ids_.end()) {
        std::uint32_t id = static_cast<std::uint32_t>(names_.size());
        names_.push_back(candidate);
        ids_.emplace(names_.back(), id);
        return id;
      }
    }
  }

  // Appends a name that Intern never maps to: the id is one that
  // Intern(name) can never return.
  std::uint32_t AddUninterned(std::string name) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint32_t id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(std::move(name));
    return id;
  }

  const std::string& Name(std::uint32_t id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    assert(id < names_.size());
    return names_[id];
  }

 private:
  mutable std::mutex mutex_;
  // Deque so that Name() references stay valid as the table grows.
  std::deque<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::uint64_t fresh_counter_ = 1;
};

InternTable& ConstantTable() {
  static InternTable& table = *new InternTable();
  return table;
}

InternTable& NullTable() {
  static InternTable& table = *new InternTable();
  return table;
}

}  // namespace

Value Value::Constant(std::string_view name) {
  return Value(Kind::kConstant, ConstantTable().Intern(name));
}

Value Value::Int(std::int64_t value) {
  return Constant(std::to_string(value));
}

Value Value::Null(std::string_view label) {
  return Value(Kind::kNull, NullTable().Intern(label));
}

Value Value::FreshNull() {
  return Value(Kind::kNull, NullTable().InternFresh("n"));
}

Value Value::FreshConstant() {
  // Each one stays in the intern table for the life of the process.
  ZO_COUNTER_INC("data.fresh_constants");
  return Value(Kind::kConstant, ConstantTable().InternFresh("@"));
}

std::vector<Value> Value::EnumerationConstants(
    std::size_t n, const std::vector<Value>& avoid) {
  // The pool in draw order. It grows only past the largest draw so far.
  static std::mutex& mutex = *new std::mutex();
  static std::vector<Value>& pool = *new std::vector<Value>();
  std::vector<Value> drawn;
  drawn.reserve(n);
  std::lock_guard<std::mutex> lock(mutex);
  for (std::size_t i = 0; drawn.size() < n; ++i) {
    if (i == pool.size()) {
      ZO_COUNTER_INC("data.fresh_constants");
      pool.push_back(Value(Kind::kConstant, ConstantTable().AddUninterned(
                                                "@" + std::to_string(i))));
    }
    if (std::find(avoid.begin(), avoid.end(), pool[i]) == avoid.end()) {
      drawn.push_back(pool[i]);
    }
  }
  return drawn;
}

const std::string& Value::name() const {
  return kind_ == Kind::kConstant ? ConstantTable().Name(id_)
                                  : NullTable().Name(id_);
}

std::string Value::ToString() const {
  if (kind_ == Kind::kConstant) return name();
  return "⊥" + name();
}

std::ostream& operator<<(std::ostream& os, Value value) {
  return os << value.ToString();
}

void AppendUnique(std::vector<Value>* out, const std::vector<Value>& values) {
  for (Value v : values) {
    if (std::find(out->begin(), out->end(), v) == out->end()) {
      out->push_back(v);
    }
  }
}

std::vector<Value> MakeConstantEnumeration(const std::vector<Value>& required,
                                           std::size_t k) {
  std::vector<Value> enumeration;
  enumeration.reserve(k);
  for (Value v : required) {
    assert(v.is_constant() && "enumeration prefix must be constants");
    bool duplicate = false;
    for (Value seen : enumeration) {
      if (seen == v) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) enumeration.push_back(v);
  }
  assert(enumeration.size() <= k &&
         "k must be at least the number of required constants");
  std::vector<Value> extension =
      Value::EnumerationConstants(k - enumeration.size(), enumeration);
  enumeration.insert(enumeration.end(), extension.begin(), extension.end());
  return enumeration;
}

}  // namespace zeroone
