#ifndef ZEROONE_DATA_RELATION_H_
#define ZEROONE_DATA_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/tuple.h"

namespace zeroone {

// Cheap cardinality statistics of one relation, used by the query planner
// (src/plan) to cost join and atom orders. `distinct_per_column[c]` is the
// exact number of distinct values in column c (cheap to maintain at our
// scales; a sketch could replace it without changing the interface).
struct RelationStats {
  std::size_t rows = 0;
  std::vector<std::size_t> distinct_per_column;
};

// A (possibly incomplete) relation instance: a finite set of k-ary tuples
// over Const ∪ Null.
//
// Storage layout: tuples live in one contiguous arity-strided Value arena
// (row r occupies arena_[r*arity, (r+1)*arity)), appended in insertion
// order and never moved. A maintained permutation `sorted_` lists row ids
// in lexicographic content order, so iteration, ToString, operator== and
// operator< are deterministic and identical to the historical
// sorted-vector-of-Tuple representation. A Relation is a set in the
// mathematical sense: duplicate inserts are dropped.
//
// Probe API: evaluators ask for the rows matching fixed values on a set of
// columns via Probe(mask, key). Hash indexes are built lazily per column
// mask, cached, and invalidated by any mutation. Building is guarded by a
// mutex so concurrent read-only evaluations (the svc layer runs queries on
// one session under a shared lock) may race to build the same index safely;
// mutations require exclusive ownership, as with any non-const method.
class Relation {
 public:
  // Bitmask of bound columns: bit i set means column i is fixed. Indexable
  // arities are capped at 64 columns; evaluators fall back to scans beyond
  // that (no workload in this repo comes close).
  using Mask = std::uint64_t;
  static constexpr std::size_t kMaxIndexedColumns = 64;

  // A borrowed, non-owning view of one row in the arena. Valid until the
  // next mutation of (or assignment to) the owning Relation. Deliberately
  // not implicitly convertible to Tuple: materializing is a copy and must
  // be visible (ToTuple) at the call site.
  class Row {
   public:
    Row() = default;
    Row(const Value* data, std::size_t arity) : data_(data), arity_(arity) {}

    std::size_t arity() const { return arity_; }
    std::size_t size() const { return arity_; }
    Value operator[](std::size_t i) const { return data_[i]; }
    const Value* data() const { return data_; }
    const Value* begin() const { return data_; }
    const Value* end() const { return data_ + arity_; }

    Tuple ToTuple() const {
      return Tuple(std::vector<Value>(data_, data_ + arity_));
    }
    // "(a, b, ⊥1)", matching Tuple::ToString.
    std::string ToString() const;

    // Content comparison (same semantics as comparing the Tuples).
    friend bool operator==(Row a, Row b) {
      if (a.arity_ != b.arity_) return false;
      for (std::size_t i = 0; i < a.arity_; ++i) {
        if (a.data_[i] != b.data_[i]) return false;
      }
      return true;
    }
    friend bool operator!=(Row a, Row b) { return !(a == b); }
    friend bool operator<(Row a, Row b);

   private:
    const Value* data_ = nullptr;
    std::size_t arity_ = 0;
  };

  // Forward iterator over rows in sorted (deterministic) order.
  class const_iterator {
   public:
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    const_iterator(const Relation* rel, std::size_t pos)
        : rel_(rel), pos_(pos) {}

    Row operator*() const { return rel_->row(pos_); }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++pos_;
      return old;
    }
    friend bool operator==(const_iterator a, const_iterator b) {
      return a.rel_ == b.rel_ && a.pos_ == b.pos_;
    }
    friend bool operator!=(const_iterator a, const_iterator b) {
      return !(a == b);
    }

   private:
    const Relation* rel_ = nullptr;
    std::size_t pos_ = 0;
  };

  // The row ids (ascending sorted positions, usable with row()) matching a
  // probe. Borrowed from the index; valid until the next mutation.
  class RowIdSpan {
   public:
    RowIdSpan() = default;
    RowIdSpan(const std::uint32_t* data, std::size_t count)
        : data_(data), count_(count) {}

    const std::uint32_t* begin() const { return data_; }
    const std::uint32_t* end() const { return data_ + count_; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

   private:
    const std::uint32_t* data_ = nullptr;
    std::size_t count_ = 0;
  };

  // Accumulates rows and produces a sorted, deduplicated Relation with one
  // sort at Build time. Use for bulk loads (I/O, snapshots, valuation
  // images, chase rebuilds) instead of per-tuple Insert.
  class Builder {
   public:
    Builder(std::string name, std::size_t arity)
        : name_(std::move(name)), arity_(arity) {}

    void Add(const Tuple& tuple);
    void Add(std::initializer_list<Value> values);
    // Appends `arity()` values starting at `values`.
    void AddRow(const Value* values);
    std::size_t arity() const { return arity_; }

    Relation Build() &&;

   private:
    std::string name_;
    std::size_t arity_;
    std::size_t rows_ = 0;
    std::vector<Value> arena_;
  };

  // Constructors are out of line: inline definitions would instantiate the
  // index map's destructor against the incomplete Index type.
  Relation();
  Relation(std::string name, std::size_t arity);

  ~Relation();

  // Copies carry the data but not the cached indexes (rebuilt lazily).
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const std::string& name() const { return name_; }
  std::size_t arity() const { return arity_; }
  std::size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  // Inserts a tuple (idempotent). Precondition: tuple.arity() == arity().
  void Insert(const Tuple& tuple);
  void Insert(std::initializer_list<Value> values);
  // Inserts the row of `arity()` values starting at `values`. The pointer
  // may alias this relation's own arena.
  void InsertRow(const Value* values);
  // Bulk insert: append everything, then sort + dedup once. Equivalent to
  // inserting each tuple individually, without the quadratic memmove cost.
  void InsertBatch(const std::vector<Tuple>& tuples);
  // Bulk insert of every row of `other` (same arity required).
  void InsertBatch(const Relation& other);
  // Replaces the contents with `rows` rows stored back to back in `*arena`,
  // which must be strictly ascending (sorted, no duplicates). The storage
  // is swapped with `*arena`, so a caller that rebuilds one relation over
  // and over (the valuation image) reuses both buffers.
  void AssignSortedRows(std::vector<Value>* arena, std::size_t rows);

  bool Contains(const Tuple& tuple) const;
  // Allocation-free membership probe over `arity()` values.
  bool Contains(const Value* values) const;

  // The i-th row in sorted (iteration) order, 0 <= i < size().
  Row row(std::size_t i) const;
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  // Materializes all rows as Tuples, in iteration order.
  std::vector<Tuple> Tuples() const;

  // Rows whose columns selected by `mask` equal `key`, where `key` lists
  // the fixed values in ascending column order. Builds (and caches) a hash
  // index for `mask` on first use; any mutation invalidates all indexes.
  // Preconditions: mask != 0, mask only covers existing columns, and
  // key.size() == popcount(mask).
  RowIdSpan Probe(Mask mask, const std::vector<Value>& key) const;

  // The mask selecting exactly `columns` (each < arity, < 64).
  static Mask MaskOfColumns(const std::vector<std::size_t>& columns);

  // Cardinality statistics for the planner. Computed lazily, cached in the
  // arena beside the hash indexes, and invalidated by the same mutations
  // that invalidate them, so repeated planning against an unchanged
  // relation is a mutex acquisition plus a small copy.
  RelationStats Stats() const;

  // "R = {(1, ⊥1), (2, 2)}".
  std::string ToString() const;

  friend bool operator==(const Relation& a, const Relation& b);
  friend bool operator!=(const Relation& a, const Relation& b) {
    return !(a == b);
  }
  // Lexicographic on (name, arity, tuple sequence); enables ordered sets of
  // relations and databases.
  friend bool operator<(const Relation& a, const Relation& b);

 private:
  struct Index;

  // First sorted position whose row compares >= the given values.
  std::size_t LowerBound(const Value* values) const;
  // Pointer to the start of arena row `id` (an arena row id, not a sorted
  // position).
  const Value* RowData(std::uint32_t id) const {
    return arena_.data() + static_cast<std::size_t>(id) * arity_;
  }
  void InvalidateIndexes();
  // Merges `rows` sorted, deduplicated, not-yet-present rows (back to back
  // in `fresh`) into the arena and the sorted permutation in one pass.
  void MergeFreshRows(const std::vector<Value>& fresh, std::size_t rows);
  // Sorts + dedups arena rows in place and resets sorted_ to the identity
  // permutation. Shared by InsertBatch and Builder::Build.
  static void Compact(std::size_t arity, std::vector<Value>& arena,
                      std::size_t rows, std::vector<std::uint32_t>& sorted);

  std::string name_;
  std::size_t arity_ = 0;
  // Row r (an arena id) occupies arena_[r*arity_, (r+1)*arity_). For 0-ary
  // relations the arena stays empty; sorted_ alone carries the row count.
  std::vector<Value> arena_;
  // Permutation of arena row ids in lexicographic content order. Size of
  // this vector == number of rows.
  std::vector<std::uint32_t> sorted_;
  // Lazily built per-mask hash indexes. The mutex serializes concurrent
  // lazy builds from const readers; mutations (which clear the cache) are
  // already exclusive by the usual const-correctness contract.
  mutable std::mutex index_mutex_;
  mutable std::map<Mask, std::unique_ptr<Index>> indexes_;
  // Lazily computed Stats() snapshot; shares the index cache's lifecycle.
  mutable std::shared_ptr<const RelationStats> stats_;
};

std::ostream& operator<<(std::ostream& os, const Relation& relation);

}  // namespace zeroone

#endif  // ZEROONE_DATA_RELATION_H_
