#ifndef ZEROONE_DATA_VALUATION_IMAGE_H_
#define ZEROONE_DATA_VALUATION_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/database.h"
#include "data/tuple.h"
#include "data/valuation.h"
#include "data/value.h"

namespace zeroone {

// v(D) for one point after another of an exponential enumeration, without
// copying D per point. Built once per enumeration from D and the
// instance's ordered null list; a point is a flat array with point[i] =
// v(nulls[i]), a constant, or nulls[i] itself for a null the valuation
// leaves unbound (so partial valuations work too). Nulls of D outside the
// list always map to themselves.
//
// Per point (kPatch):
// - relations whose rows are all constants are never rebuilt, so their
//   lazily built indexes survive across points;
// - a relation with null-bearing rows is rebuilt only when a null it
//   mentions changed value since the last point: its rows that the point
//   leaves unchanged are merged, in D's order, with the changed rows
//   patched from the point and sorted;
// - adom(v(D)) is the sorted, deduplicated image of adom(D).
// kMaterialize instead runs Valuation::Apply on D and takes ActiveDomain()
// of the result at every point: the definitions themselves, kept as the
// reference the patched image is checked against.
//
// Equal, at every point, to Valuation::Apply(D) (operator== and ToString)
// with active domain v(D).ActiveDomain(). D must outlive the image. Not
// thread-safe: parallel enumerations build one image per worker.
class ValuationImage {
 public:
  enum class Mode { kPatch, kMaterialize };

  // The image at the identity point (every null unbound), i.e. D itself.
  ValuationImage(const Database& db, std::vector<Value> nulls,
                 Mode mode = Mode::kPatch);
  ValuationImage(const ValuationImage&) = delete;
  ValuationImage& operator=(const ValuationImage&) = delete;

  const std::vector<Value>& nulls() const { return nulls_; }

  // Moves the image to `point` (point.size() == nulls().size(); each entry
  // a constant or the null itself).
  void Assign(const std::vector<Value>& point);
  // The point v(nulls[i]) for each i.
  void Assign(const Valuation& v);

  // v(D) and adom(v(D)) at the current point.
  const Database& database() const { return image_; }
  const std::vector<Value>& active_domain() const { return adom_; }
  const std::vector<Value>& point() const { return point_; }

  // v(x) and v(ā) at the current point.
  Value Apply(Value value) const;
  Tuple Apply(const Tuple& tuple) const;
  // The current point as a Valuation binding each bound null.
  Valuation ToValuation() const;

 private:
  // One relation of D with null-bearing rows, and its rebuild buffers.
  struct Patched {
    const Relation* base = nullptr;
    Relation* target = nullptr;
    // Sorted positions in `base` of the rows that mention a listed null,
    // and per such row and column the null's slot in the point (or -1).
    std::vector<std::uint32_t> rows;
    std::vector<std::int32_t> slots;
    // The slots the relation mentions, deduplicated.
    std::vector<std::uint32_t> depends;
    std::vector<char> changed;
    std::vector<Value> patched;
    std::vector<std::uint32_t> order;
    std::vector<Value> merged;
  };

  // Slot of a listed null, or -1.
  std::int32_t SlotOf(Value null) const;
  void Rebuild(Patched* relation);
  void RebuildDomain();

  const Database* base_;
  std::vector<Value> nulls_;
  // (null, slot), sorted by null.
  std::vector<std::pair<Value, std::uint32_t>> slot_of_;
  Mode mode_;
  std::vector<Value> point_;
  std::vector<char> slot_changed_;
  Database image_;
  std::vector<Patched> patched_;
  // adom(D) split into Const(D) and the slots of D's listed nulls (D's
  // unlisted nulls map to themselves and sit in `fixed_nulls_`).
  std::vector<Value> constants_;
  std::vector<Value> fixed_nulls_;
  std::vector<std::uint32_t> domain_slots_;
  std::vector<Value> mapped_;
  std::vector<Value> adom_;
};

}  // namespace zeroone

#endif  // ZEROONE_DATA_VALUATION_IMAGE_H_
