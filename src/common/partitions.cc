#include "common/partitions.h"

#include <algorithm>
#include <vector>

namespace zeroone {

BigInt BellNumber(std::size_t n) {
  // Bell triangle: row 0 is [1]; each row starts with the previous row's
  // last entry, and each subsequent entry adds the entry to the left and the
  // entry above-left. B(n) is the first entry of row n.
  std::vector<BigInt> row = {BigInt(1)};
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<BigInt> next;
    next.reserve(row.size() + 1);
    next.push_back(row.back());
    for (const BigInt& above : row) {
      next.push_back(next.back() + above);
    }
    row = std::move(next);
  }
  return row.front();
}

BigInt StirlingSecond(std::size_t n, std::size_t t) {
  if (t > n) return BigInt(0);
  if (n == 0) return BigInt(1);  // t == 0 here.
  if (t == 0) return BigInt(0);
  // S(n, t) = t·S(n−1, t) + S(n−1, t−1), by rows.
  std::vector<BigInt> row(t + 1, BigInt(0));
  row[0] = BigInt(1);  // S(0, 0).
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = std::min(i, t); j >= 1; --j) {
      row[j] = BigInt(static_cast<std::int64_t>(j)) * row[j] + row[j - 1];
    }
    row[0] = BigInt(0);  // S(i, 0) == 0 for i >= 1.
  }
  return row[t];
}

}  // namespace zeroone
