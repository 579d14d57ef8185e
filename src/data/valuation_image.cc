#include "data/valuation_image.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace zeroone {

namespace {

bool RowLess(const Value* a, const Value* b, std::size_t arity) {
  for (std::size_t i = 0; i < arity; ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
  }
  return false;
}

bool RowEq(const Value* a, const Value* b, std::size_t arity) {
  return std::equal(a, a + arity, b);
}

}  // namespace

ValuationImage::ValuationImage(const Database& db, std::vector<Value> nulls,
                               Mode mode)
    : base_(&db), nulls_(std::move(nulls)), mode_(mode), image_(db) {
  for (std::size_t i = 0; i < nulls_.size(); ++i) {
    assert(nulls_[i].is_null() && "a valuation image lists nulls");
    slot_of_.emplace_back(nulls_[i], static_cast<std::uint32_t>(i));
  }
  std::sort(slot_of_.begin(), slot_of_.end());
  point_ = nulls_;
  slot_changed_.assign(nulls_.size(), 0);
  adom_ = db.ActiveDomain();
  if (mode_ == Mode::kMaterialize) return;

  for (const auto& [name, rel] : db.relations()) {
    Patched patched;
    const std::size_t arity = rel.arity();
    for (std::size_t pos = 0; pos < rel.size(); ++pos) {
      Relation::Row row = rel.row(pos);
      std::size_t first_slot = patched.slots.size();
      bool mentions = false;
      for (Value v : row) {
        std::int32_t slot = v.is_null() ? SlotOf(v) : -1;
        mentions = mentions || slot >= 0;
        patched.slots.push_back(slot);
      }
      if (!mentions) {
        patched.slots.resize(first_slot);
        continue;
      }
      patched.rows.push_back(static_cast<std::uint32_t>(pos));
      for (std::size_t c = 0; c < arity; ++c) {
        std::int32_t slot = patched.slots[first_slot + c];
        if (slot >= 0) {
          patched.depends.push_back(static_cast<std::uint32_t>(slot));
        }
      }
    }
    if (patched.rows.empty()) continue;  // Never rebuilt.
    std::sort(patched.depends.begin(), patched.depends.end());
    patched.depends.erase(
        std::unique(patched.depends.begin(), patched.depends.end()),
        patched.depends.end());
    patched.base = &rel;
    patched.target = &image_.mutable_relation(name);
    patched_.push_back(std::move(patched));
  }
  constants_ = db.Constants();
  for (Value null : db.Nulls()) {
    std::int32_t slot = SlotOf(null);
    if (slot >= 0) {
      domain_slots_.push_back(static_cast<std::uint32_t>(slot));
    } else {
      fixed_nulls_.push_back(null);
    }
  }
}

std::int32_t ValuationImage::SlotOf(Value null) const {
  auto it = std::lower_bound(
      slot_of_.begin(), slot_of_.end(), null,
      [](const std::pair<Value, std::uint32_t>& entry, Value key) {
        return entry.first < key;
      });
  if (it == slot_of_.end() || it->first != null) return -1;
  return static_cast<std::int32_t>(it->second);
}

void ValuationImage::Assign(const std::vector<Value>& point) {
  assert(point.size() == nulls_.size() && "one value per listed null");
  if (mode_ == Mode::kMaterialize) {
    point_ = point;
    image_ = ToValuation().Apply(*base_);
    adom_ = image_.ActiveDomain();
    return;
  }
  bool any_changed = false;
  for (std::size_t i = 0; i < point.size(); ++i) {
    assert((point[i].is_constant() || point[i] == nulls_[i]) &&
           "a null maps to a constant or to itself");
    slot_changed_[i] = point[i] != point_[i];
    any_changed = any_changed || slot_changed_[i];
    point_[i] = point[i];
  }
  if (!any_changed) return;
  for (Patched& patched : patched_) {
    for (std::uint32_t slot : patched.depends) {
      if (slot_changed_[slot]) {
        Rebuild(&patched);
        break;
      }
    }
  }
  for (std::uint32_t slot : domain_slots_) {
    if (slot_changed_[slot]) {
      RebuildDomain();
      break;
    }
  }
}

void ValuationImage::Assign(const Valuation& v) {
  std::vector<Value> point(nulls_.size());
  for (std::size_t i = 0; i < nulls_.size(); ++i) {
    point[i] = v.Apply(nulls_[i]);
  }
  Assign(point);
}

void ValuationImage::Rebuild(Patched* p) {
  const Relation& base = *p->base;
  const std::size_t arity = base.arity();
  // Patch the null-bearing rows; keep only those the point changes.
  p->patched.clear();
  p->changed.assign(p->rows.size(), 0);
  std::size_t changed_rows = 0;
  for (std::size_t j = 0; j < p->rows.size(); ++j) {
    Relation::Row row = base.row(p->rows[j]);
    const std::int32_t* slots = p->slots.data() + j * arity;
    bool differs = false;
    for (std::size_t c = 0; c < arity; ++c) {
      Value v = slots[c] < 0 ? row[c] : point_[slots[c]];
      differs = differs || v != row[c];
      p->patched.push_back(v);
    }
    if (differs) {
      p->changed[j] = 1;
      ++changed_rows;
    } else {
      p->patched.resize(p->patched.size() - arity);
    }
  }
  const Value* patched = p->patched.data();
  p->order.resize(changed_rows);
  for (std::size_t i = 0; i < changed_rows; ++i) {
    p->order[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(p->order.begin(), p->order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return RowLess(patched + a * arity, patched + b * arity, arity);
            });
  // Merge D's unchanged rows (already in order) with the sorted changed
  // rows; equal rows are adjacent, so one look back deduplicates.
  p->merged.clear();
  std::size_t rows_out = 0;
  auto emit = [&](const Value* row) {
    if (rows_out > 0 &&
        RowEq(p->merged.data() + (rows_out - 1) * arity, row, arity)) {
      return;
    }
    p->merged.insert(p->merged.end(), row, row + arity);
    ++rows_out;
  };
  std::size_t next_null_row = 0;
  std::size_t next_changed = 0;
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    if (next_null_row < p->rows.size() && p->rows[next_null_row] == pos) {
      if (p->changed[next_null_row++]) continue;
    }
    const Value* kept = base.row(pos).data();
    while (next_changed < changed_rows &&
           RowLess(patched + p->order[next_changed] * arity, kept, arity)) {
      emit(patched + p->order[next_changed++] * arity);
    }
    emit(kept);
  }
  while (next_changed < changed_rows) {
    emit(patched + p->order[next_changed++] * arity);
  }
  p->target->AssignSortedRows(&p->merged, rows_out);
}

void ValuationImage::RebuildDomain() {
  mapped_ = fixed_nulls_;
  for (std::uint32_t slot : domain_slots_) mapped_.push_back(point_[slot]);
  std::sort(mapped_.begin(), mapped_.end());
  mapped_.erase(std::unique(mapped_.begin(), mapped_.end()), mapped_.end());
  adom_.clear();
  std::set_union(constants_.begin(), constants_.end(), mapped_.begin(),
                 mapped_.end(), std::back_inserter(adom_));
}

Value ValuationImage::Apply(Value value) const {
  if (!value.is_null()) return value;
  std::int32_t slot = SlotOf(value);
  return slot < 0 ? value : point_[slot];
}

Tuple ValuationImage::Apply(const Tuple& tuple) const {
  std::vector<Value> values;
  values.reserve(tuple.arity());
  for (Value v : tuple) values.push_back(Apply(v));
  return Tuple(std::move(values));
}

Valuation ValuationImage::ToValuation() const {
  Valuation v;
  for (std::size_t i = 0; i < nulls_.size(); ++i) {
    if (point_[i] != nulls_[i]) v.Bind(nulls_[i], point_[i]);
  }
  return v;
}

}  // namespace zeroone
