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
// - Machine-word tallies fold into BigInt without losing the top bit.
//
// The suite names carry "Parallel" and "PlanDiff" so that the TSan job
// and the ZEROONE_PLAN=interpret differential step both select them.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/support.h"
#include "core/support_polynomial.h"
#include "core/valuation_engine.h"
#include "data/database.h"
#include "data/valuation.h"
#include "data/valuation_image.h"
#include "gen/random_db.h"
#include "gen/random_query.h"
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

TEST(EngineTallyTest, FoldKeepsEveryBit) {
  EXPECT_EQ(TallyToBigInt(0).ToString(), "0");
  EXPECT_EQ(TallyToBigInt(12345).ToString(), "12345");
  EXPECT_EQ(TallyToBigInt(~std::uint64_t{0}).ToString(),
            "18446744073709551615");
}

}  // namespace
}  // namespace zeroone
