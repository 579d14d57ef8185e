#include "core/owa.h"

#include <cassert>
#include <vector>

#include "core/support.h"
#include "core/valuation_engine.h"
#include "query/eval.h"

namespace zeroone {

namespace {

// All tuples over `domain` of the given arity.
std::vector<Tuple> AllTuples(const std::vector<Value>& domain,
                             std::size_t arity) {
  std::vector<Tuple> result;
  if (arity == 0) {
    result.push_back(Tuple{});
    return result;
  }
  if (domain.empty()) return result;
  std::vector<std::size_t> indices(arity, 0);
  while (true) {
    std::vector<Value> values;
    values.reserve(arity);
    for (std::size_t i : indices) values.push_back(domain[i]);
    result.push_back(Tuple(std::move(values)));
    std::size_t p = 0;
    while (p < arity && ++indices[p] == domain.size()) indices[p++] = 0;
    if (p == arity) break;
  }
  return result;
}

}  // namespace

StatusOr<Rational> OwaMK(const Query& query, const Database& db,
                         std::size_t k, std::size_t max_cells) {
  if (!query.is_boolean()) {
    return Status::Error("OwaMK: only Boolean queries are supported");
  }
  SupportInstance instance = MakeSupportInstance(query, db, Tuple{});
  if (k < instance.prefix.size()) {
    return Status::Error("OwaMK: k must cover C ∪ Const(D)");
  }
  std::vector<Value> domain = MakeConstantEnumeration(instance.prefix, k);

  // The candidate cells: every possible tuple of every relation.
  struct Cell {
    std::string relation;
    Tuple tuple;
  };
  std::vector<Cell> cells;
  for (const auto& [name, rel] : db.relations()) {
    for (const Tuple& t : AllTuples(domain, rel.arity())) {
      cells.push_back(Cell{name, t});
    }
  }
  if (cells.size() > max_cells) {
    return Status::Error("OwaMK: 2^" + std::to_string(cells.size()) +
                         " candidate databases exceed the guard; lower k or "
                         "shrink the schema");
  }

  // Precompute the images v(D) for all valuations into the domain, as tuple
  // bitmasks over `cells` — a database E ⊇ v(D) iff mask(E) ⊇ mask(v(D)).
  auto mask_of = [&](const Database& complete) {
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (complete.HasRelation(cells[i].relation) &&
          complete.relation(cells[i].relation).Contains(cells[i].tuple)) {
        mask |= std::uint64_t{1} << i;
      }
    }
    return mask;
  };
  std::vector<std::uint64_t> image_masks;
  ValuationImage image(db, instance.nulls, EngineImageMode());
  std::vector<Value> point(instance.nulls.size());
  ForEachPoint(&point, 0, domain, [&] {
    image.Assign(point);
    image_masks.push_back(mask_of(image.database()));
    return true;
  });

  // Enumerate all complete databases over the domain.
  BigInt member_count(0);
  BigInt satisfying_count(0);
  std::uint64_t total = std::uint64_t{1} << cells.size();
  for (std::uint64_t e = 0; e < total; ++e) {
    bool contains_some_image = false;
    for (std::uint64_t image : image_masks) {
      if ((e & image) == image) {
        contains_some_image = true;
        break;
      }
    }
    if (!contains_some_image) continue;
    member_count += BigInt(1);
    // Materialize E and evaluate Q.
    Database candidate(db.schema());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (e & (std::uint64_t{1} << i)) {
        candidate.mutable_relation(cells[i].relation).Insert(cells[i].tuple);
      }
    }
    if (EvaluateMembership(query, candidate, Tuple{})) {
      satisfying_count += BigInt(1);
    }
  }
  if (member_count.is_zero()) return Rational(0);
  return Rational(satisfying_count, member_count);
}

}  // namespace zeroone
