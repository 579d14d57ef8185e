#ifndef ZEROONE_DATA_VALUE_H_
#define ZEROONE_DATA_VALUE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace zeroone {

// A database element: either a constant from the countably infinite set
// Const, or a marked (labeled) null from Null, following the standard model
// of incompleteness (Section 2 of the paper). Values are interned: a Value
// is a cheap (kind, id) pair; names live in a process-wide table. Two
// constants are equal iff they have the same name; two nulls are equal iff
// they have the same label (this is what makes nulls "marked": repeated
// occurrences of ⊥1 denote the same unknown value).
class Value {
 public:
  enum class Kind : std::uint8_t { kConstant = 0, kNull = 1 };

  // Constructs the constant named "0" — prefer the factories below.
  Value() = default;

  // The constant with the given name (interning it on first use).
  static Value Constant(std::string_view name);
  // The constant whose name is the decimal form of `value`.
  static Value Int(std::int64_t value);
  // The null with the given label (without the ⊥ sigil), e.g. Null("1") is
  // the null printed as ⊥1.
  static Value Null(std::string_view label);
  // A null with a globally fresh, never previously used label.
  static Value FreshNull();
  // A constant with a globally fresh name (used to implement bijective
  // valuations). Each one stays interned for the life of the process.
  static Value FreshConstant();
  // The first n enumeration constants outside `avoid`, from one
  // process-wide pool. Enumeration constants are constants that no name
  // can intern (Constant(name) never returns one), so they lie outside
  // C ∪ Const(D) of every parsed query and loaded database by
  // construction, and every enumeration reuses the same few: the pool
  // grows only to the largest draw. A caller that needs two disjoint sets
  // takes both from one draw. They print as "@<n>" but must never reach a
  // payload: only valuations of an enumeration take them as values.
  static std::vector<Value> EnumerationConstants(
      std::size_t n, const std::vector<Value>& avoid = {});

  Kind kind() const { return kind_; }
  bool is_constant() const { return kind_ == Kind::kConstant; }
  bool is_null() const { return kind_ == Kind::kNull; }

  // Dense id within its kind; ids are assigned in interning order.
  std::uint32_t id() const { return id_; }

  // Display name: the constant's name, or "⊥" + label for nulls.
  std::string ToString() const;
  // The raw interned name (constant name or null label, without sigil).
  const std::string& name() const;

  friend bool operator==(Value a, Value b) {
    return a.kind_ == b.kind_ && a.id_ == b.id_;
  }
  friend bool operator!=(Value a, Value b) { return !(a == b); }
  // Total order: constants before nulls, then by interning order. Used only
  // for deterministic container ordering, never for query semantics.
  friend bool operator<(Value a, Value b) {
    if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
    return a.id_ < b.id_;
  }

 private:
  Value(Kind kind, std::uint32_t id) : kind_(kind), id_(id) {}

  Kind kind_ = Kind::kConstant;
  std::uint32_t id_ = 0;
};

std::ostream& operator<<(std::ostream& os, Value value);

// Appends each of `values` not yet in `*out`, keeping first-occurrence
// order (the null and prefix lists of the measure instances).
void AppendUnique(std::vector<Value>* out, const std::vector<Value>& values);

// Builds an enumeration c₁, …, c_k of k distinct constants whose prefix is
// the given `required` constants (deduplicated, order preserved), extended
// with enumeration constants (Value::EnumerationConstants). This realizes the paper's convention that
// the enumeration of Const is irrelevant once {c₁,…,c_k} ⊇ C ∪ Const(D):
// measures are computed over exactly such enumerations.
// Precondition: k >= number of distinct required constants.
std::vector<Value> MakeConstantEnumeration(const std::vector<Value>& required,
                                           std::size_t k);

}  // namespace zeroone

#endif  // ZEROONE_DATA_VALUE_H_
