#include "data/value.h"

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
  while (enumeration.size() < k) {
    enumeration.push_back(Value::FreshConstant());
  }
  return enumeration;
}

}  // namespace zeroone
