#ifndef ZEROONE_COMMON_PARTITIONS_H_
#define ZEROONE_COMMON_PARTITIONS_H_

#include <cstddef>

#include "common/bigint.h"

namespace zeroone {

// Counting functions of the partition-polynomial algorithm (proof of
// Theorem 3): a valuation's kernel is a set partition of the nulls, and
// ForEachOrbitPoint (core/valuation_engine.h) walks those partitions with
// the maps of their blocks into the constants A.

// The Bell number B(n): how many set partitions {0,…,n−1} has. Computed via
// the Bell triangle with exact arithmetic.
BigInt BellNumber(std::size_t n);

// The Stirling number of the second kind S(n, t): partitions of an n-set
// into exactly t nonempty blocks.
BigInt StirlingSecond(std::size_t n, std::size_t t);

}  // namespace zeroone

#endif  // ZEROONE_COMMON_PARTITIONS_H_
