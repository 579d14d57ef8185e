#include "bench.h"

#include <algorithm>
#include <cmath>

namespace zeroone {
namespace perfbench {

const char* OpClassName(OpClass cls) {
  switch (cls) {
    case OpClass::kRead:
      return "read";
    case OpClass::kMeasure:
      return "measure";
    case OpClass::kWrite:
      return "write";
    case OpClass::kQuerySet:
      return "query";
  }
  return "?";
}

svc::Request ToRequest(const Op& op, const std::string& id) {
  svc::Request request;
  request.id = id;
  request.session = op.session;
  request.no_cache = op.no_cache;
  request.command = op.command;
  request.args = op.args;
  return request;
}

namespace {

// The rows of a tuple-list payload, sorted; false if `payload` is not one.
bool SortedRows(const std::string& payload, std::vector<std::string>* rows) {
  std::size_t at = 0;
  while (at < payload.size()) {
    std::size_t nl = payload.find('\n', at);
    if (nl == std::string::npos) return false;  // Lists end with a newline.
    std::string line = payload.substr(at, nl - at);
    if (line.rfind("  (", 0) != 0) return false;
    rows->push_back(std::move(line));
    at = nl + 1;
  }
  std::sort(rows->begin(), rows->end());
  return !rows->empty();
}

}  // namespace

Verdict CheckResponse(const svc::Response& response, const std::string& id,
                      const std::string& expected, bool* reordered) {
  if (reordered != nullptr) *reordered = false;
  if (response.status != svc::WireStatus::kOk) return Verdict::kNotOk;
  if (response.id != id) return Verdict::kWrongId;
  if (response.payload == expected) return Verdict::kCorrect;
  std::vector<std::string> got, want;
  if (SortedRows(response.payload, &got) && SortedRows(expected, &want) &&
      got == want) {
    if (reordered != nullptr) *reordered = true;
    return Verdict::kCorrect;
  }
  return Verdict::kWrongPayload;
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kCorrect:
      return "correct";
    case Verdict::kWrongPayload:
      return "wrong payload";
    case Verdict::kNotOk:
      return "non-OK status";
    case Verdict::kWrongId:
      return "wrong response id";
  }
  return "?";
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::uint64_t SubSeed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t x = seed;
  for (char c : tag) x = x * 1099511628211ULL + static_cast<unsigned char>(c);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
}  // namespace zeroone
