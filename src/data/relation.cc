#include "data/relation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"

namespace zeroone {

namespace {

// Lexicographic comparison of two rows of the same arity.
bool RowLess(const Value* a, const Value* b, std::size_t arity) {
  for (std::size_t i = 0; i < arity; ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
  }
  return false;
}

bool RowEq(const Value* a, const Value* b, std::size_t arity) {
  for (std::size_t i = 0; i < arity; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// FNV-1a over the (kind, id) pairs of a probe key.
struct KeyHash {
  std::size_t operator()(const std::vector<Value>& key) const {
    std::uint64_t h = 1469598103934665603ull;
    for (Value v : key) {
      h ^= static_cast<std::uint64_t>(v.kind());
      h *= 1099511628211ull;
      h ^= static_cast<std::uint64_t>(v.id());
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

struct Relation::Index {
  // Bucket values are ascending sorted positions (not arena ids), built by
  // walking the relation in iteration order, so probe results enumerate
  // rows in the same deterministic order a full scan would.
  std::unordered_map<std::vector<Value>, std::vector<std::uint32_t>, KeyHash>
      buckets;
};

Relation::Relation() = default;

Relation::Relation(std::string name, std::size_t arity)
    : name_(std::move(name)), arity_(arity) {}

Relation::~Relation() = default;

Relation::Relation(const Relation& other)
    : name_(other.name_),
      arity_(other.arity_),
      arena_(other.arena_),
      sorted_(other.sorted_) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  arity_ = other.arity_;
  arena_ = other.arena_;
  sorted_ = other.sorted_;
  InvalidateIndexes();
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : name_(std::move(other.name_)),
      arity_(other.arity_),
      arena_(std::move(other.arena_)),
      sorted_(std::move(other.sorted_)) {
  other.arena_.clear();
  other.sorted_.clear();
  other.InvalidateIndexes();
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  arity_ = other.arity_;
  arena_ = std::move(other.arena_);
  sorted_ = std::move(other.sorted_);
  other.arena_.clear();
  other.sorted_.clear();
  other.InvalidateIndexes();
  InvalidateIndexes();
  return *this;
}

std::size_t Relation::LowerBound(const Value* values) const {
  std::size_t lo = 0;
  std::size_t hi = sorted_.size();
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (RowLess(RowData(sorted_[mid]), values, arity_)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void Relation::Insert(const Tuple& tuple) {
  assert(tuple.arity() == arity_ && "tuple arity mismatch");
  InsertRow(tuple.values().data());
}

void Relation::Insert(std::initializer_list<Value> values) {
  assert(values.size() == arity_ && "tuple arity mismatch");
  InsertRow(values.begin());
}

void Relation::InsertRow(const Value* values) {
  std::size_t pos = LowerBound(values);
  if (pos < sorted_.size() && RowEq(RowData(sorted_[pos]), values, arity_)) {
    return;
  }
  // `values` may point into our own arena (self-insertion of a row view);
  // appending could reallocate out from under it, so copy first if so.
  if (arity_ > 0 && values >= arena_.data() &&
      values < arena_.data() + arena_.size()) {
    std::vector<Value> copy(values, values + arity_);
    arena_.insert(arena_.end(), copy.begin(), copy.end());
  } else {
    arena_.insert(arena_.end(), values, values + arity_);
  }
  auto id = static_cast<std::uint32_t>(sorted_.size());
  sorted_.insert(sorted_.begin() + static_cast<std::ptrdiff_t>(pos), id);
  InvalidateIndexes();
}

void Relation::Compact(std::size_t arity, std::vector<Value>& arena,
                       std::size_t rows, std::vector<std::uint32_t>& sorted) {
  std::vector<std::uint32_t> order(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  const Value* base = arena.data();
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return RowLess(base + static_cast<std::size_t>(a) * arity,
                             base + static_cast<std::size_t>(b) * arity,
                             arity);
            });
  // Rewrite the arena in sorted order, dropping duplicates, so arena ids
  // coincide with sorted positions after a bulk load.
  std::vector<Value> compacted;
  compacted.reserve(arena.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const Value* row = base + static_cast<std::size_t>(order[i]) * arity;
    if (kept > 0 &&
        RowEq(compacted.data() + (kept - 1) * arity, row, arity)) {
      continue;
    }
    compacted.insert(compacted.end(), row, row + arity);
    ++kept;
  }
  if (arity == 0) kept = rows > 0 ? 1 : 0;
  arena = std::move(compacted);
  sorted.resize(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    sorted[i] = static_cast<std::uint32_t>(i);
  }
}

void Relation::MergeFreshRows(const std::vector<Value>& fresh,
                              std::size_t rows) {
  if (rows == 0) return;
  // Invariant: the arena holds exactly sorted_.size() rows (duplicates are
  // never stored), so new arena ids start at sorted_.size().
  auto first_id = static_cast<std::uint32_t>(sorted_.size());
  arena_.insert(arena_.end(), fresh.begin(), fresh.end());
  std::vector<std::uint32_t> merged;
  merged.reserve(sorted_.size() + rows);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < sorted_.size() && j < rows) {
    // No equality case: fresh rows are not present in the relation.
    if (RowLess(RowData(first_id + static_cast<std::uint32_t>(j)),
                RowData(sorted_[i]), arity_)) {
      merged.push_back(first_id + static_cast<std::uint32_t>(j));
      ++j;
    } else {
      merged.push_back(sorted_[i]);
      ++i;
    }
  }
  for (; i < sorted_.size(); ++i) merged.push_back(sorted_[i]);
  for (; j < rows; ++j) {
    merged.push_back(first_id + static_cast<std::uint32_t>(j));
  }
  sorted_ = std::move(merged);
  InvalidateIndexes();
}

void Relation::InsertBatch(const std::vector<Tuple>& tuples) {
  if (tuples.empty()) return;
  if (arity_ == 0) {
    if (!sorted_.empty()) return;
    sorted_.push_back(0);
    InvalidateIndexes();
    return;
  }
  // Sort + dedup the batch alone, drop rows already present, then merge
  // the survivors into the sorted permutation in one linear pass. This
  // keeps bulk loads O(k log k) in the batch and semi-naive delta merges
  // linear in the relation instead of re-sorting it every round.
  std::vector<Value> batch;
  batch.reserve(tuples.size() * arity_);
  std::size_t rows = 0;
  for (const Tuple& t : tuples) {
    assert(t.arity() == arity_ && "tuple arity mismatch");
    batch.insert(batch.end(), t.begin(), t.end());
    ++rows;
  }
  std::vector<std::uint32_t> batch_sorted;
  Compact(arity_, batch, rows, batch_sorted);
  std::vector<Value> fresh;
  fresh.reserve(batch.size());
  std::size_t fresh_rows = 0;
  for (std::size_t r = 0; r < batch_sorted.size(); ++r) {
    const Value* row = batch.data() + r * arity_;
    if (Contains(row)) continue;
    fresh.insert(fresh.end(), row, row + arity_);
    ++fresh_rows;
  }
  MergeFreshRows(fresh, fresh_rows);
}

void Relation::InsertBatch(const Relation& other) {
  assert(other.arity_ == arity_ && "relation arity mismatch");
  if (other.empty()) return;
  if (arity_ == 0) {
    if (!sorted_.empty()) return;
    sorted_.push_back(0);
    InvalidateIndexes();
    return;
  }
  // `other` already iterates sorted and deduplicated; keep its absent rows.
  std::vector<Value> fresh;
  fresh.reserve(other.arena_.size());
  std::size_t fresh_rows = 0;
  for (std::uint32_t id : other.sorted_) {
    const Value* row = other.RowData(id);
    if (Contains(row)) continue;
    fresh.insert(fresh.end(), row, row + arity_);
    ++fresh_rows;
  }
  MergeFreshRows(fresh, fresh_rows);
}

void Relation::AssignSortedRows(std::vector<Value>* arena, std::size_t rows) {
  assert(arena->size() == rows * arity_ && "arena size must match the rows");
  arena_.swap(*arena);
  sorted_.resize(arity_ == 0 ? std::min<std::size_t>(rows, 1) : rows);
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    sorted_[i] = static_cast<std::uint32_t>(i);
  }
  InvalidateIndexes();
}

bool Relation::Contains(const Tuple& tuple) const {
  assert(tuple.arity() == arity_ && "tuple arity mismatch");
  return Contains(tuple.values().data());
}

bool Relation::Contains(const Value* values) const {
  std::size_t pos = LowerBound(values);
  return pos < sorted_.size() && RowEq(RowData(sorted_[pos]), values, arity_);
}

Relation::Row Relation::row(std::size_t i) const {
  assert(i < sorted_.size() && "row index out of range");
  return Row(RowData(sorted_[i]), arity_);
}

std::vector<Tuple> Relation::Tuples() const {
  std::vector<Tuple> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    out.push_back(row(i).ToTuple());
  }
  return out;
}

Relation::Mask Relation::MaskOfColumns(const std::vector<std::size_t>& cols) {
  Mask mask = 0;
  for (std::size_t c : cols) {
    assert(c < kMaxIndexedColumns && "column beyond indexable range");
    mask |= Mask{1} << c;
  }
  return mask;
}

Relation::RowIdSpan Relation::Probe(Mask mask,
                                    const std::vector<Value>& key) const {
  assert(mask != 0 && "probe mask must select at least one column");
  assert(arity_ <= kMaxIndexedColumns && "arity beyond indexable range");
  assert((arity_ >= 64 || (mask >> arity_) == 0) &&
         "mask selects nonexistent columns");
  assert(static_cast<std::size_t>(std::popcount(mask)) == key.size() &&
         "probe key width must match the mask");

  std::lock_guard<std::mutex> lock(index_mutex_);
  auto it = indexes_.find(mask);
  if (it == indexes_.end()) {
    auto index = std::make_unique<Index>();
    std::vector<Value> row_key(key.size());
    for (std::size_t pos = 0; pos < sorted_.size(); ++pos) {
      const Value* row = RowData(sorted_[pos]);
      std::size_t k = 0;
      for (Mask bits = mask; bits != 0; bits &= bits - 1) {
        row_key[k++] = row[std::countr_zero(bits)];
      }
      index->buckets[row_key].push_back(static_cast<std::uint32_t>(pos));
    }
    it = indexes_.emplace(mask, std::move(index)).first;
    ZO_COUNTER_INC("relation.index.builds");
  }
  auto bucket = it->second->buckets.find(key);
  if (bucket == it->second->buckets.end()) {
    ZO_COUNTER_INC("relation.index.probe_misses");
    return RowIdSpan();
  }
  ZO_COUNTER_INC("relation.index.probe_hits");
  return RowIdSpan(bucket->second.data(), bucket->second.size());
}

void Relation::InvalidateIndexes() {
  std::lock_guard<std::mutex> lock(index_mutex_);
  indexes_.clear();
  stats_.reset();
}

RelationStats Relation::Stats() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (stats_ == nullptr) {
    auto stats = std::make_shared<RelationStats>();
    stats->rows = sorted_.size();
    stats->distinct_per_column.assign(arity_, 0);
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t c = 0; c < arity_; ++c) {
      seen.clear();
      for (std::uint32_t id : sorted_) {
        Value v = RowData(id)[c];
        seen.insert((static_cast<std::uint64_t>(v.kind()) << 32) | v.id());
      }
      stats->distinct_per_column[c] = seen.size();
    }
    stats_ = std::move(stats);
    ZO_COUNTER_INC("relation.stats.builds");
  }
  return *stats_;
}

std::string Relation::Row::ToString() const {
  return ToTuple().ToString();
}

bool operator<(Relation::Row a, Relation::Row b) {
  // Matches Tuple::operator< (std::vector lexicographic comparison).
  std::size_t n = a.arity_ < b.arity_ ? a.arity_ : b.arity_;
  for (std::size_t i = 0; i < n; ++i) {
    if (a.data_[i] < b.data_[i]) return true;
    if (b.data_[i] < a.data_[i]) return false;
  }
  return a.arity_ < b.arity_;
}

bool operator==(const Relation& a, const Relation& b) {
  if (a.name_ != b.name_ || a.arity_ != b.arity_ ||
      a.sorted_.size() != b.sorted_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.sorted_.size(); ++i) {
    if (!RowEq(a.RowData(a.sorted_[i]), b.RowData(b.sorted_[i]), a.arity_)) {
      return false;
    }
  }
  return true;
}

bool operator<(const Relation& a, const Relation& b) {
  if (a.name_ != b.name_) return a.name_ < b.name_;
  if (a.arity_ != b.arity_) return a.arity_ < b.arity_;
  // Lexicographic on the sorted tuple sequence, as with the historical
  // std::vector<Tuple> comparison.
  std::size_t n = std::min(a.sorted_.size(), b.sorted_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Value* ra = a.RowData(a.sorted_[i]);
    const Value* rb = b.RowData(b.sorted_[i]);
    if (RowLess(ra, rb, a.arity_)) return true;
    if (RowLess(rb, ra, a.arity_)) return false;
  }
  return a.sorted_.size() < b.sorted_.size();
}

std::string Relation::ToString() const {
  std::string result = name_ + " = {";
  for (std::size_t i = 0; i < size(); ++i) {
    if (i > 0) result += ", ";
    result += row(i).ToString();
  }
  result += "}";
  return result;
}

void Relation::Builder::Add(const Tuple& tuple) {
  assert(tuple.arity() == arity_ && "tuple arity mismatch");
  arena_.insert(arena_.end(), tuple.begin(), tuple.end());
  ++rows_;
}

void Relation::Builder::Add(std::initializer_list<Value> values) {
  assert(values.size() == arity_ && "tuple arity mismatch");
  arena_.insert(arena_.end(), values.begin(), values.end());
  ++rows_;
}

void Relation::Builder::AddRow(const Value* values) {
  arena_.insert(arena_.end(), values, values + arity_);
  ++rows_;
}

Relation Relation::Builder::Build() && {
  Relation out(std::move(name_), arity_);
  out.arena_ = std::move(arena_);
  Compact(arity_, out.arena_, rows_, out.sorted_);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Relation& relation) {
  return os << relation.ToString();
}

}  // namespace zeroone
