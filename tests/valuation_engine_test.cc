// Tests for the per-valuation engine (core/valuation_engine.h) and the
// valuation image under it (data/valuation_image.h).
//
// - The image equals the definitions at every point: Valuation::Apply(D)
//   compared with == and ToString, and adom(v(D)) equal to
//   v(D).ActiveDomain(), over random databases, for total and partial
//   valuations, nulls that occur only in the tuple, and valuations that
//   collapse rows, moving the one image from point to point.
// - The engine's counts are byte-identical at every par width: MuKParallel
//   and ComputeSupportPolynomial at widths 1, 2, 4 and 8.
// - The orbit walk visits exactly one point of each orbit of the bounded
//   range under the permutations fixing A, as many as the closed form
//   Σ_t S(m,t)·Σ_j C(t,j)·(a)_j (Bell(m) for a = 0), and its shards cover
//   each point once.
// - Machine-word tallies fold into BigInt without losing the top bit.
//
// The suite names carry "Parallel" and "PlanDiff" so that the TSan job
// and the ZEROONE_PLAN=interpret differential step both select them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/partitions.h"

#include "core/support.h"
#include "core/support_polynomial.h"
#include "core/valuation_engine.h"
#include "data/database.h"
#include "data/valuation.h"
#include "data/valuation_image.h"
#include "gen/random_db.h"
#include "gen/random_query.h"
#include "obs/metrics.h"
#include "par/pool.h"

namespace zeroone {
namespace {

Database RandomDb(std::uint64_t seed) {
  RandomDatabaseOptions options;
  options.relations = {{"R", 2, 6}, {"S", 1, 3}, {"T", 3, 4}};
  options.constant_pool = 3;
  options.null_pool = 4;
  options.null_probability = 0.35;
  options.seed = seed;
  return GenerateRandomDatabase(options);
}

// Expects the image at its current point to be v(D) by the definitions,
// where v binds exactly the listed nulls the point does not leave alone.
void ExpectImageIsApply(const ValuationImage& image, const Database& db,
                        const std::string& where) {
  Valuation v;
  for (std::size_t i = 0; i < image.nulls().size(); ++i) {
    if (image.point()[i] != image.nulls()[i]) {
      v.Bind(image.nulls()[i], image.point()[i]);
    }
  }
  Database applied = v.Apply(db);
  EXPECT_TRUE(image.database() == applied) << where;
  EXPECT_EQ(image.database().ToString(), applied.ToString()) << where;
  EXPECT_EQ(image.active_domain(), applied.ActiveDomain()) << where;
  EXPECT_EQ(image.ToValuation(), v) << where;
}

TEST(ImageParallelPlanDiffTest, PatchedImageIsApplyAtEveryPoint) {
  std::size_t collapsed = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Database db = RandomDb(seed);
    std::vector<Value> nulls = db.Nulls();
    // A null that occurs only in the tuple rides along at the end.
    Value tuple_null = Value::Null("only_in_tuple" + std::to_string(seed));
    nulls.push_back(tuple_null);
    // Small ranges make collisions, so rows collapse into one another.
    std::vector<Value> range = db.Constants();
    range.push_back(Value::Constant("fresh_" + std::to_string(seed)));

    ValuationImage image(db, nulls);
    ExpectImageIsApply(image, db, "identity, seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::vector<Value> point(nulls.size());
    for (int step = 0; step < 30; ++step) {
      // Each null is bound with probability 3/4 (partial valuations),
      // and a step changes only some of them, as the odometer does.
      for (std::size_t i = 0; i < nulls.size(); ++i) {
        if (step > 0 && rng() % 3 == 0) continue;
        point[i] = rng() % 4 == 0 ? nulls[i] : range[rng() % range.size()];
      }
      image.Assign(point);
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      ExpectImageIsApply(image, db, where);
      Tuple tuple{tuple_null, db.Constants().empty() ? tuple_null
                                                     : db.Constants()[0]};
      Valuation v = image.ToValuation();
      EXPECT_EQ(image.Apply(tuple), v.Apply(tuple)) << where;
      if (image.database().TupleCount() < db.TupleCount()) ++collapsed;
    }
  }
  EXPECT_GT(collapsed, 0u) << "no point collapsed two rows into one";
}

TEST(ImageParallelPlanDiffTest, OdometerAndValuationAssignAgree) {
  Database db = RandomDb(7);
  std::vector<Value> domain =
      MakeConstantEnumeration(db.Constants(), db.Constants().size() + 2);
  ValuationImage patched(db, db.Nulls());
  ValuationImage materialized(db, db.Nulls(),
                              ValuationImage::Mode::kMaterialize);
  std::vector<Value> point(db.Nulls().size());
  std::size_t points = 0;
  ForEachPoint(&point, 0, domain, [&] {
    patched.Assign(point);
    Valuation v;
    for (std::size_t i = 0; i < point.size(); ++i) {
      v.Bind(db.Nulls()[i], point[i]);
    }
    materialized.Assign(v);
    EXPECT_TRUE(patched.database() == materialized.database());
    EXPECT_EQ(patched.active_domain(), materialized.active_domain());
    ++points;
    return true;
  });
  std::size_t expected = 1;
  for (std::size_t i = 0; i < point.size(); ++i) expected *= domain.size();
  EXPECT_EQ(points, expected);
}

TEST(ImageParallelPlanDiffTest, RowsCollapseAndComeBack) {
  Database db;
  Relation& r = db.AddRelation("R", 2);
  r.Insert({Value::Constant("a"), Value::Null("c1")});
  r.Insert({Value::Constant("a"), Value::Constant("b")});
  r.Insert({Value::Null("c2"), Value::Constant("b")});
  ValuationImage image(db, {Value::Null("c1"), Value::Null("c2")});
  image.Assign({Value::Constant("b"), Value::Constant("a")});
  EXPECT_EQ(image.database().ToString(), "R = {(a, b)}");
  EXPECT_EQ(image.active_domain(),
            (std::vector<Value>{Value::Constant("a"), Value::Constant("b")}));
  // Unbinding ⊥c1 again brings its row back beside the collapsed pair.
  image.Assign({Value::Null("c1"), Value::Constant("a")});
  ExpectImageIsApply(image, db, "partial");
  EXPECT_EQ(image.database().relation("R").size(), 2u);
}

// Runs `body` under the given team width, restoring the previous budget.
template <typename Fn>
auto WithThreads(std::size_t threads, Fn&& body) {
  std::size_t previous = par::par_threads();
  par::SetParThreads(threads);
  auto result = body();
  par::SetParThreads(previous);
  return result;
}

TEST(WidthParallelPlanDiffTest, CountsAreIdenticalAtEveryWidth) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomDatabaseOptions options;
    options.relations = {{"R", 2, 5}, {"S", 1, 2}};
    options.constant_pool = 3;
    options.null_pool = 3;
    options.null_probability = 0.4;
    options.seed = 500 + seed;
    Database db = GenerateRandomDatabase(options);
    RandomQueryOptions q_options;
    q_options.relations = {{"R", 2}, {"S", 1}};
    q_options.free_variables = 1;
    q_options.existential_variables = 2;
    q_options.clauses = 2;
    q_options.atoms_per_clause = 2;
    q_options.seed = 600 + seed;
    Query query = GenerateRandomFo(q_options, 0.35);
    Tuple tuple{db.Constants().empty() ? Value::Constant("c0")
                                       : db.Constants()[0]};
    const std::size_t k =
        MakeSupportInstance(query, db, tuple).prefix.size() + 2;
    std::string muk[4];
    std::string poly[4];
    const std::size_t widths[] = {1, 2, 4, 8};
    for (std::size_t w = 0; w < 4; ++w) {
      muk[w] = WithThreads(widths[w], [&] {
        return MuKParallel(query, db, tuple, k, widths[w]).ToString();
      });
      poly[w] = WithThreads(widths[w], [&] {
        return ComputeSupportPolynomial(query, db, tuple).count.ToString();
      });
    }
    EXPECT_EQ(muk[0], MuK(query, db, tuple, k).ToString()) << query.ToString();
    for (std::size_t w = 1; w < 4; ++w) {
      EXPECT_EQ(muk[w], muk[0]) << "width " << widths[w] << " "
                                << query.ToString();
      EXPECT_EQ(poly[w], poly[0]) << "width " << widths[w] << " "
                                  << query.ToString();
    }
  }
}

// The representative ForEachOrbitPoint visits for a point's orbit: values
// outside A renamed to fresh[0], fresh[1], … in order of first appearance.
std::vector<Value> CanonicalPoint(const std::vector<Value>& point,
                                  const std::vector<Value>& prefix,
                                  const std::vector<Value>& fresh) {
  std::vector<Value> seen;
  std::vector<Value> canonical;
  for (Value v : point) {
    if (std::find(prefix.begin(), prefix.end(), v) != prefix.end()) {
      canonical.push_back(v);
      continue;
    }
    auto it = std::find(seen.begin(), seen.end(), v);
    if (it == seen.end()) it = seen.insert(seen.end(), v);
    canonical.push_back(fresh[it - seen.begin()]);
  }
  return canonical;
}

// Σ_t S(m,t)·Σ_j C(t,j)·(a)_j: kernel partitions with injective partial
// maps of their blocks into A.
std::uint64_t OrbitCount(std::size_t m, std::size_t a) {
  std::uint64_t total = 0;
  for (std::size_t t = 0; t <= m; ++t) {
    std::uint64_t maps = 0;
    for (std::size_t j = 0; j <= std::min(t, a); ++j) {
      // C(t,j)·(a)_j, built factor by factor; each division is exact.
      std::uint64_t ways = 1;
      for (std::size_t i = 0; i < j; ++i) {
        ways = ways * (t - i) * (a - i) / (i + 1);
      }
      maps += ways;
    }
    total += static_cast<std::uint64_t>(*StirlingSecond(m, t).ToInt64()) * maps;
  }
  return total;
}

std::vector<Value> Prefix(std::size_t a) {
  std::vector<Value> prefix;
  for (std::size_t i = 0; i < a; ++i) {
    prefix.push_back(Value::Constant("a" + std::to_string(i)));
  }
  return prefix;
}

TEST(OrbitWalkTest, VisitsOnePointPerOrbit) {
  for (std::size_t m = 0; m <= 5; ++m) {
    for (std::size_t a = 0; a <= 3; ++a) {
      const std::vector<Value> prefix = Prefix(a);
      const std::vector<Value> fresh = Value::EnumerationConstants(m, prefix);
      std::vector<Value> point(m);
      std::set<std::vector<Value>> visited;
      std::uint64_t count = 0;
      EXPECT_TRUE(ForEachOrbitPoint(&point, prefix, fresh, [&](std::size_t f) {
        ++count;
        // Canonical, with f free blocks: fresh[0..f) and nothing beyond.
        EXPECT_EQ(CanonicalPoint(point, prefix, fresh), point);
        std::set<Value> free_values;
        for (Value v : point) {
          if (std::find(prefix.begin(), prefix.end(), v) == prefix.end()) {
            free_values.insert(v);
          }
        }
        EXPECT_EQ(free_values.size(), f);
        visited.insert(point);
        return true;
      }));
      EXPECT_EQ(visited.size(), count) << "a point visited twice";
      EXPECT_EQ(count, OrbitCount(m, a)) << "m = " << m << ", a = " << a;
      if (a == 0) {
        EXPECT_EQ(count,
                  static_cast<std::uint64_t>(*BellNumber(m).ToInt64()));
      }
      // Every point of (A ∪ fresh)^m lies in the orbit of a visited one.
      std::vector<Value> domain = prefix;
      domain.insert(domain.end(), fresh.begin(), fresh.end());
      std::vector<Value> any(m);
      ForEachPoint(&any, 0, domain, [&] {
        EXPECT_EQ(visited.count(CanonicalPoint(any, prefix, fresh)), 1u);
        return true;
      });
    }
  }
}

TEST(OrbitWalkParallelTest, ShardsCoverEveryPointOnce) {
  for (std::size_t m : {0u, 1u, 3u, 5u}) {
    for (std::size_t a : {0u, 2u, 5u}) {
      const std::vector<Value> prefix = Prefix(a);
      const std::vector<Value> fresh = Value::EnumerationConstants(m, prefix);
      std::vector<Value> point(m);
      std::multiset<std::vector<Value>> whole;
      ForEachOrbitPoint(&point, prefix, fresh, [&](std::size_t) {
        whole.insert(point);
        return true;
      });
      for (std::size_t count : {2u, 3u, 16u, 64u}) {
        std::multiset<std::vector<Value>> sharded;
        for (std::size_t index = 0; index < count; ++index) {
          ForEachOrbitPoint(
              &point, prefix, fresh,
              [&](std::size_t) {
                sharded.insert(point);
                return true;
              },
              OrbitShard{index, count});
        }
        EXPECT_EQ(sharded, whole)
            << "m = " << m << ", a = " << a << ", shards " << count;
      }
    }
  }
}

#if ZEROONE_OBS_ENABLED
TEST(OrbitWalkTest, StopsOnRequestAndCountsVisitedPoints) {
  obs::Counter& maps =
      obs::Registry::Global().GetCounter("support.partition_maps_enumerated");
  obs::Counter& partitions =
      obs::Registry::Global().GetCounter("support.partitions_enumerated");
  const std::vector<Value> prefix = Prefix(5);
  const std::vector<Value> fresh = Value::EnumerationConstants(4, prefix);
  std::vector<Value> point(4);
  std::uint64_t before = maps.value();
  std::uint64_t partitions_before = partitions.value();
  EXPECT_TRUE(ForEachOrbitPoint(&point, prefix, fresh,
                                [](std::size_t) { return true; }));
  EXPECT_EQ(maps.value() - before, 1540u);
  EXPECT_EQ(partitions.value() - partitions_before, 15u);  // B(4).
  before = maps.value();
  std::uint64_t visits = 0;
  EXPECT_FALSE(ForEachOrbitPoint(&point, prefix, fresh, [&](std::size_t) {
    return ++visits < 10;
  }));
  EXPECT_EQ(visits, 10u);
  EXPECT_EQ(maps.value() - before, 10u);
}
#endif

TEST(EngineTallyTest, FoldKeepsEveryBit) {
  EXPECT_EQ(TallyToBigInt(0).ToString(), "0");
  EXPECT_EQ(TallyToBigInt(12345).ToString(), "12345");
  EXPECT_EQ(TallyToBigInt(~std::uint64_t{0}).ToString(),
            "18446744073709551615");
}

}  // namespace
}  // namespace zeroone
