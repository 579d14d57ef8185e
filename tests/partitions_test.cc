// Tests for the counting functions of common/partitions.h and for the
// kernel partitions the orbit walk (ForEachOrbitPoint) enumerates with them:
// with no constants A it visits the set partitions of the nulls, one
// restricted-growth point each, and with A it visits each partition once
// per injective partial map of its blocks into A.

#include "common/partitions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/valuation_engine.h"
#include "data/value.h"

namespace zeroone {
namespace {

TEST(PartitionsTest, BellNumbers) {
  const char* expected[] = {"1",   "1",   "2",    "5",    "15",
                            "52",  "203", "877",  "4140", "21147",
                            "115975"};
  for (std::size_t n = 0; n <= 10; ++n) {
    EXPECT_EQ(BellNumber(n).ToString(), expected[n]) << n;
  }
  // A large one, against the published value B(20).
  EXPECT_EQ(BellNumber(20).ToString(), "51724158235372");
}

TEST(PartitionsTest, StirlingSecond) {
  EXPECT_EQ(StirlingSecond(0, 0).ToString(), "1");
  EXPECT_EQ(StirlingSecond(4, 2).ToString(), "7");
  EXPECT_EQ(StirlingSecond(10, 3).ToString(), "9330");
  EXPECT_EQ(StirlingSecond(5, 6).ToString(), "0");
  EXPECT_EQ(StirlingSecond(5, 0).ToString(), "0");
  // Σ_t S(n,t) = B(n).
  for (std::size_t n = 1; n <= 8; ++n) {
    BigInt sum(0);
    for (std::size_t t = 0; t <= n; ++t) sum += StirlingSecond(n, t);
    EXPECT_EQ(sum.ToString(), BellNumber(n).ToString()) << n;
  }
}

std::uint64_t ToU64(const BigInt& n) {
  return static_cast<std::uint64_t>(*n.ToInt64());
}

std::vector<Value> Prefix(std::size_t a) {
  std::vector<Value> prefix;
  for (std::size_t i = 0; i < a; ++i) {
    prefix.push_back(Value::Constant("a" + std::to_string(i)));
  }
  return prefix;
}

// With A empty, the walk visits one point per set partition of the m nulls:
// B(m) points, S(m,t) of them with t blocks.
TEST(PartitionsTest, EnumerationMatchesBellNumber) {
  for (std::size_t m = 0; m <= 7; ++m) {
    const std::vector<Value> fresh = Value::EnumerationConstants(m, {});
    std::vector<Value> point(m);
    std::vector<std::uint64_t> by_blocks(m + 1, 0);
    std::uint64_t count = 0;
    EXPECT_TRUE(ForEachOrbitPoint(&point, {}, fresh, [&](std::size_t f) {
      ++count;
      ++by_blocks.at(f);
      return true;
    }));
    EXPECT_EQ(count, ToU64(BellNumber(m))) << m;
    for (std::size_t t = 0; t <= m; ++t) {
      EXPECT_EQ(by_blocks[t], ToU64(StirlingSecond(m, t)))
          << "m = " << m << ", t = " << t;
    }
  }
}

// With A empty, each point read as block indices into `fresh` is a
// restricted-growth string (x_0 = 0, x_i ≤ 1 + max(x_0..x_{i−1})), and
// no two points are the same string.
TEST(PartitionsTest, RestrictedGrowthInvariant) {
  for (std::size_t m = 0; m <= 6; ++m) {
    const std::vector<Value> fresh = Value::EnumerationConstants(m, {});
    std::vector<Value> point(m);
    std::set<std::vector<std::size_t>> seen;
    ForEachOrbitPoint(&point, {}, fresh, [&](std::size_t f) {
      std::vector<std::size_t> rgs;
      std::size_t next = 0;
      for (Value v : point) {
        auto it = std::find(fresh.begin(), fresh.end(), v);
        EXPECT_NE(it, fresh.end());
        const std::size_t block = static_cast<std::size_t>(it - fresh.begin());
        EXPECT_LE(block, next);
        if (block == next) ++next;
        rgs.push_back(block);
      }
      EXPECT_EQ(next, f);
      EXPECT_TRUE(seen.insert(rgs).second) << "a partition visited twice";
      return true;
    });
    EXPECT_EQ(seen.size(), ToU64(BellNumber(m))) << m;
  }
}

// With |A| = a, the points with t blocks of which j are sent into A number
// S(m,t)·C(t,j)·(a)_j: each partition with each injective partial map of
// its blocks into A. Blocks are the classes of equal values, so distinct
// blocks mapped into A get distinct constants.
TEST(PartitionsTest, InjectivePartialMapCount) {
  for (std::size_t m = 0; m <= 5; ++m) {
    for (std::size_t a = 0; a <= 4; ++a) {
      const std::vector<Value> prefix = Prefix(a);
      const std::vector<Value> fresh = Value::EnumerationConstants(m, prefix);
      std::vector<Value> point(m);
      // counts[t][j]: points with t blocks, j of them in A.
      std::vector<std::vector<std::uint64_t>> counts(
          m + 1, std::vector<std::uint64_t>(m + 1, 0));
      ForEachOrbitPoint(&point, prefix, fresh, [&](std::size_t f) {
        std::set<Value> blocks(point.begin(), point.end());
        std::size_t in_a = 0;
        for (Value v : blocks) {
          if (std::find(prefix.begin(), prefix.end(), v) != prefix.end()) {
            ++in_a;
          }
        }
        EXPECT_EQ(blocks.size() - in_a, f);
        ++counts[blocks.size()][in_a];
        return true;
      });
      for (std::size_t t = 0; t <= m; ++t) {
        for (std::size_t j = 0; j <= t; ++j) {
          // C(t,j)·(a)_j, built factor by factor; each division is exact.
          std::uint64_t ways = j <= a ? 1 : 0;
          for (std::size_t i = 0; i < j && ways != 0; ++i) {
            ways = ways * (t - i) * (a - i) / (i + 1);
          }
          EXPECT_EQ(counts[t][j], ToU64(StirlingSecond(m, t)) * ways)
              << "m = " << m << ", a = " << a << ", t = " << t
              << ", j = " << j;
        }
      }
    }
  }
}

}  // namespace
}  // namespace zeroone
