#include "constraints/parse.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

namespace zeroone {

namespace {

// Splits a comma list of numbers, e.g. "0,2".
StatusOr<std::vector<std::size_t>> ParsePositions(const std::string& text) {
  std::vector<std::size_t> positions;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) return Status::Error("empty position in '", text, "'");
    std::size_t value = 0;
    for (char c : item) {
      if (c < '0' || c > '9') {
        return Status::Error("bad position list '", text, "'");
      }
      value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    positions.push_back(value);
  }
  if (positions.empty()) return Status::Error("empty position list");
  return positions;
}

Status CheckInRange(const char* what, const std::vector<std::size_t>& positions,
                    std::size_t arity) {
  for (std::size_t p : positions) {
    if (p >= arity) {
      return Status::Error(what, " position ", p, " out of range for arity ",
                           arity);
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<FunctionalDependency> ParseFdArgs(const std::string& args) {
  std::stringstream arg_stream(args);
  std::string relation;
  std::size_t arity = 0;
  std::string lhs_text;
  std::size_t rhs = 0;
  arg_stream >> relation >> arity >> lhs_text >> rhs;
  if (relation.empty() || arity == 0) {
    return Status::Error("usage: fd <R> <arity> <l1,l2,..> <rhs>");
  }
  ZO_ASSIGN_OR_RETURN(std::vector<std::size_t> lhs, ParsePositions(lhs_text));
  ZO_RETURN_IF_ERROR(CheckInRange("fd rhs", {rhs}, arity));
  ZO_RETURN_IF_ERROR(CheckInRange("fd lhs", lhs, arity));
  if (std::find(lhs.begin(), lhs.end(), rhs) != lhs.end()) {
    return Status::Error("fd rhs position ", rhs,
                         " is also on the left-hand side");
  }
  return FunctionalDependency(relation, arity, std::move(lhs), rhs);
}

StatusOr<std::shared_ptr<InclusionDependency>> ParseIndArgs(
    const std::string& args) {
  std::stringstream arg_stream(args);
  std::string from, to, from_pos, to_pos;
  std::size_t from_arity = 0, to_arity = 0;
  arg_stream >> from >> from_arity >> from_pos >> to >> to_arity >> to_pos;
  if (from.empty() || to.empty() || from_arity == 0 || to_arity == 0) {
    return Status::Error(
        "usage: ind <R> <arity> <pos,..> <S> <arity> <pos,..>");
  }
  ZO_ASSIGN_OR_RETURN(std::vector<std::size_t> fp, ParsePositions(from_pos));
  ZO_ASSIGN_OR_RETURN(std::vector<std::size_t> tp, ParsePositions(to_pos));
  ZO_RETURN_IF_ERROR(CheckInRange("ind", fp, from_arity));
  ZO_RETURN_IF_ERROR(CheckInRange("ind", tp, to_arity));
  if (fp.size() != tp.size()) {
    return Status::Error("ind position lists differ in length (", fp.size(),
                         " vs ", tp.size(), ")");
  }
  return std::make_shared<InclusionDependency>(from, from_arity, std::move(fp),
                                               to, to_arity, std::move(tp));
}

}  // namespace zeroone
