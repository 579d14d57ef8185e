// Experiment E15 (Theorem 1 beyond first-order logic).
//
// Paper claim: the 0–1 law "holds for a very large class of queries — the
// only condition we need is genericity", explicitly covering datalog and
// fixed-point logics, which have no classical logical 0–1 law story in this
// setting. Reachability (transitive closure) is the canonical non-FO
// generic query.
//
// Measured: (a) µ from the definition (partition-polynomial) is 0/1 and
// matches naive datalog evaluation across random incomplete graphs;
// (b) µ^k convergence for an almost-certain and an almost-impossible
// reachability fact; (c) semi-naive evaluation scaling on growing graphs.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "data/io.h"
#include "data/relation.h"
#include "datalog/eval.h"
#include "datalog/measure.h"
#include "datalog/parser.h"
#include "gen/random_db.h"
#include "plan/mode.h"

using namespace zeroone;

namespace {

constexpr const char* kTransitiveClosure = R"(
  T(X, Y) :- E(X, Y).
  T(X, Z) :- E(X, Y), T(Y, Z).
  ?- T
)";

Database RandomGraph(std::size_t edges, std::size_t nodes, std::size_t nulls,
                     std::uint64_t seed) {
  RandomDatabaseOptions options;
  options.relations = {{"E", 2, edges}};
  options.constant_pool = nodes;
  options.null_pool = nulls;
  options.null_probability = nulls == 0 ? 0.0 : 0.3;
  options.seed = seed;
  return GenerateRandomDatabase(options);
}

void ZeroOneLawSweep(bench::Experiment* experiment) {
  DatalogProgram program = ParseDatalogProgram(kTransitiveClosure).value();
  std::size_t checked = 0;
  std::size_t zero_one = 0;
  std::size_t match_naive = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Database db = RandomGraph(4, 3, 2, seed + 70000);
    std::vector<Value> adom = db.ActiveDomain();
    for (Value x : adom) {
      for (Value y : adom) {
        Tuple t{x, y};
        Rational mu = DatalogMuViaPolynomial(program, db, t);
        ++checked;
        zero_one += static_cast<std::size_t>(mu == Rational(0) ||
                                             mu == Rational(1));
        match_naive += static_cast<std::size_t>(
            (mu == Rational(1)) == (DatalogMuLimit(program, db, t) == 1));
      }
    }
  }
  std::printf("reachability over random incomplete graphs: %zu pairs, "
              "mu in {0,1} for %zu, mu == naive for %zu   (claim: all — "
              "the 0-1 law needs only genericity, not FO)\n\n",
              checked, zero_one, match_naive);
  experiment->Claim(checked > 0 && zero_one == checked,
                    "datalog mu is 0 or 1 on every reachability pair");
  experiment->Claim(match_naive == checked,
                    "datalog mu == 1 exactly on naive datalog answers");
}

void ConvergenceTable() {
  DatalogProgram program = ParseDatalogProgram(kTransitiveClosure).value();
  // Likely path: a → ⊥1 → b (certain); unlikely path: needs v(⊥1) = v(⊥2).
  Database likely = ParseDatabase("E(2) = { (a, _be1), (_be1, b) }").value();
  Database unlikely =
      ParseDatabase("E(2) = { (a, _be2), (_be3, b) }").value();
  Tuple ab{Value::Constant("a"), Value::Constant("b")};
  std::printf("mu^k of reach(a,b):\n%6s %16s %16s\n", "k", "via shared ⊥",
              "via two nulls");
  for (std::size_t k = 3; k <= 12; k += 3) {
    std::printf("%6zu %16.6f %16.6f\n", k,
                DatalogMuK(program, likely, ab, k).ToDouble(),
                DatalogMuK(program, unlikely, ab, k).ToDouble());
  }
  std::printf("(claim: left column ≡ 1 — the shared null is a real path; "
              "right column = (3k-3)/k² → 0)\n\n");
}

void IndexedSemiNaiveTable(bench::Experiment* experiment) {
  // The semi-naive join E(X, Y), T(Y, Z): under the oracle's full scans
  // (ZEROONE_PLAN=interpret) every delta tuple is matched against all of T;
  // under compiled plans the bound join column pins the T candidates.
  // Timed once per plan mode on a sparse graph whose closure dwarfs the
  // edge set.
  Database db = RandomGraph(/*edges=*/1200, /*nodes=*/700, /*nulls=*/0, 9090);
  DatalogProgram program = ParseDatalogProgram(kTransitiveClosure).value();
  auto timed = [&](plan::PlanMode mode, std::size_t* answers) {
    plan::PlanMode previous = plan::plan_mode();
    plan::SetPlanMode(mode);
    auto start = std::chrono::steady_clock::now();
    std::vector<Tuple> closure = EvaluateDatalog(program, db);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    plan::SetPlanMode(previous);
    *answers = closure.size();
    return ms;
  };
  std::size_t scan_answers = 0;
  std::size_t indexed_answers = 0;
  double scan_ms = timed(plan::PlanMode::kInterpret, &scan_answers);
  double indexed_ms = timed(plan::PlanMode::kCompiled, &indexed_answers);
  std::printf("indexed storage on semi-naive closure (%zu facts): scan "
              "%.1f ms, indexed %.1f ms (%.1fx)\n\n",
              scan_answers, scan_ms, indexed_ms,
              indexed_ms > 0 ? scan_ms / indexed_ms : 0.0);
  experiment->Claim(scan_answers == indexed_answers,
                    "indexed and scan storage agree on the closure");
  experiment->Claim(scan_ms >= 5.0 * indexed_ms,
                    "hash probes run the semi-naive closure at least 5x "
                    "faster than full scans");
}

void BM_TransitiveClosure(benchmark::State& state) {
  std::size_t edges = static_cast<std::size_t>(state.range(0));
  Database db = RandomGraph(edges, edges / 2 + 2, 0, 4242);
  DatalogProgram program = ParseDatalogProgram(kTransitiveClosure).value();
  for (auto _ : state) {
    std::vector<Tuple> closure = EvaluateDatalog(program, db);
    benchmark::DoNotOptimize(closure.size());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(edges));
}
BENCHMARK(BM_TransitiveClosure)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity();

void BM_StratifiedNegation(benchmark::State& state) {
  std::size_t edges = static_cast<std::size_t>(state.range(0));
  Database db = RandomGraph(edges, edges / 2 + 2, 0, 777);
  // Non-reachability requires the full closure plus a negation stratum.
  DatalogProgram program = ParseDatalogProgram(R"(
    T(X, Y)  :- E(X, Y).
    T(X, Z)  :- E(X, Y), T(Y, Z).
    N(X)     :- E(X, Y).
    N(Y)     :- E(X, Y).
    Far(X, Y) :- N(X), N(Y), !T(X, Y).
    ?- Far
  )").value();
  for (auto _ : state) {
    std::vector<Tuple> result = EvaluateDatalog(program, db);
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_StratifiedNegation)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  bench::Experiment experiment("datalog");
  std::printf("E15: the 0-1 law beyond FO — datalog reachability\n");
  std::printf("-------------------------------------------------\n");
  ZeroOneLawSweep(&experiment);
  ConvergenceTable();
  IndexedSemiNaiveTable(&experiment);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("(claim shape: semi-naive closure scales polynomially; the "
              "measure machinery applies to it unchanged)\n");
  return experiment.Finish();
}
