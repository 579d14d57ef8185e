// Experiment E17: the framework at workload scale.
//
// The paper motivates the measure with data-integration practice: systems
// run naive evaluation on large integrated tables and need to know what the
// results mean. This bench runs the full pipeline on the intro scenario
// scaled up — customers × orders with a null fraction — and reports the
// costs that matter operationally:
//   - naive evaluation (the almost-certainty classifier, Thm 1 / Cor 2),
//   - the Theorem 8 polynomial-time Sep on a pair of answers,
//   - Monte-Carlo µ^k estimation for one answer,
// all of which stay tractable, versus the exact certainty check, which is
// feasible only while the null count is small.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "core/measure.h"
#include "core/sampling.h"
#include "core/ucq_compare.h"
#include "gen/scenarios.h"
#include "par/pool.h"
#include "plan/mode.h"
#include "query/eval.h"
#include "query/matcher.h"
#include "query/parser.h"

using namespace zeroone;

namespace {

IntroExample Scaled(std::size_t customers) {
  return ScaledIntroExample(customers, /*orders_per_customer=*/5,
                            /*null_fraction=*/0.2,
                            /*seed=*/1234 + customers);
}

void BM_NaiveEvaluationScale(benchmark::State& state) {
  IntroExample example = Scaled(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<Tuple> naive = NaiveEvaluate(example.query, example.db);
    benchmark::DoNotOptimize(naive.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaiveEvaluationScale)->Arg(8)->Arg(16)->Arg(32);

void BM_UcqMembershipScale(benchmark::State& state) {
  // Membership of one tuple via the backtracking matcher on the UCQ part
  // (R1 alone): polynomial and far below the generic evaluator's cost.
  IntroExample example = Scaled(static_cast<std::size_t>(state.range(0)));
  StatusOr<Query> positive = ParseQuery("Q(x, y) := R1(x, y)");
  Tuple probe = example.db.relation("R1").row(0).ToTuple();
  for (auto _ : state) {
    StatusOr<bool> member = UcqMembership(*positive, example.db, probe);
    benchmark::DoNotOptimize(member.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UcqMembershipScale)->Arg(32)->Arg(128)->Arg(512);

void BM_SampledMuScale(benchmark::State& state) {
  // 500-sample estimate of µ^k for one naive answer — the practical
  // instrument once exact enumeration is out of reach.
  IntroExample example = Scaled(static_cast<std::size_t>(state.range(0)));
  std::vector<Tuple> naive = NaiveEvaluate(example.query, example.db);
  if (naive.empty()) {
    state.SkipWithError("no naive answers at this scale");
    return;
  }
  Tuple probe = naive.front();
  for (auto _ : state) {
    MuEstimate estimate =
        EstimateMuK(example.query, example.db, probe, 500, 500, 7);
    benchmark::DoNotOptimize(estimate.estimate);
  }
}
BENCHMARK(BM_SampledMuScale)->Arg(8)->Arg(16);

void ScaleTable(bench::Experiment* experiment) {
  std::printf("%12s %10s %10s %14s %16s\n", "customers", "tuples", "nulls",
              "naive answers", "all mu = 1?");
  bool every_scale = true;
  for (std::size_t customers : {20u, 50u, 100u, 200u}) {
    IntroExample example = Scaled(customers);
    std::vector<Tuple> naive = NaiveEvaluate(example.query, example.db);
    bool all_one = true;
    for (const Tuple& t : naive) {
      all_one = all_one && MuLimit(example.query, example.db, t) == 1;
    }
    every_scale = every_scale && all_one;
    std::printf("%12zu %10zu %10zu %14zu %16s\n", customers,
                example.db.TupleCount(), example.db.Nulls().size(),
                naive.size(), all_one ? "yes" : "NO");
  }
  std::printf("(claim: Theorem 1 at every scale — naive answers are exactly "
              "the almost-certainly-true ones, and the classifier costs one "
              "evaluation regardless of the null count)\n\n");
  experiment->Claim(every_scale,
                    "Theorem 1 holds at every workload scale (all naive "
                    "answers have mu = 1)");
}

// Evaluates `query` naively under the given plan mode and team width and
// reports the wall time; the answers come back through *answers so the
// claims can also check that both sides agree.
double TimedNaiveMs(plan::PlanMode mode, std::size_t threads,
                    const Query& query, const Database& db,
                    std::vector<Tuple>* answers) {
  plan::PlanMode previous_plan = plan::plan_mode();
  plan::SetPlanMode(mode);
  std::size_t previous_threads = par::par_threads();
  par::SetParThreads(threads);
  auto start = std::chrono::steady_clock::now();
  std::vector<Tuple> result = NaiveEvaluate(query, db);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  par::SetParThreads(previous_threads);
  plan::SetPlanMode(previous_plan);
  *answers = std::move(result);
  return ms;
}

// The 2-cycle join workload: R holds the functional graph i -> 7i+1
// (mod rows), which has no 2-cycles, plus the reverse edge of every
// `back_edge_every`-th one (0: none), each of which closes a 2-cycle.
Database FunctionalGraphDb(std::size_t rows, std::size_t back_edge_every) {
  Database db;
  Relation& r = db.AddRelation("R", 2);
  std::vector<Tuple> batch;
  batch.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    Value from = Value::Int(static_cast<std::int64_t>(i));
    Value to = Value::Int(static_cast<std::int64_t>((i * 7 + 1) % rows));
    batch.push_back(Tuple{from, to});
    if (back_edge_every != 0 && i % back_edge_every == 0) {
      batch.push_back(Tuple{to, from});
    }
  }
  r.InsertBatch(batch);
  return db;
}

void OracleJoinTable(bench::Experiment* experiment) {
  // The oracle (ZEROONE_PLAN=interpret) against production on the 2-cycle
  // join, both serial. The oracle walks the formula over the full active
  // domain: every existential quantifier sweeps all n values per
  // candidate. Production runs the cost-based plan on the VM, where the
  // bound column of R(x, y) pins the candidates for y to a hash probe.
  constexpr std::size_t kRows = 1500;
  Database db = FunctionalGraphDb(kRows, /*back_edge_every=*/10);
  Query join = ParseQuery("Q(x) := exists y . R(x, y) & R(y, x)").value();
  std::vector<Tuple> oracle_answers;
  std::vector<Tuple> compiled_answers;
  double oracle_ms = TimedNaiveMs(plan::PlanMode::kInterpret, 1, join, db,
                                  &oracle_answers);
  double compiled_ms = TimedNaiveMs(plan::PlanMode::kCompiled, 1, join, db,
                                    &compiled_answers);
  std::printf("oracle vs production on the %zu-node join (%zu tuples): "
              "oracle %.1f ms, compiled %.1f ms (%.1fx), answers %zu/%zu\n\n",
              kRows, db.TupleCount(), oracle_ms, compiled_ms,
              compiled_ms > 0 ? oracle_ms / compiled_ms : 0.0,
              oracle_answers.size(), compiled_answers.size());
  experiment->Claim(!oracle_answers.empty() &&
                        oracle_answers == compiled_answers,
                    "compiled plans and the full-scan oracle return the same "
                    "non-empty answers on the join query");
  experiment->Claim(oracle_ms >= 5.0 * compiled_ms,
                    "compiled plans with hash probes evaluate the join "
                    "workload at least 5x faster than the full-scan oracle");
}

void ParallelQueryTable(bench::Experiment* experiment) {
  // The 2-cycle join workload again, scaled up so each outer candidate does
  // real work, timed serial vs a 4-worker morsel team. The answers claim is
  // unconditional (the differential battery's contract, re-checked here on
  // the bench workload); the >= 3x speedup claim is only meaningful when
  // the machine actually has >= 4 hardware threads, so on smaller boxes it
  // is recorded as skipped with the measured ratio embedded.
  constexpr std::size_t kRows = 20000;
  Database db = FunctionalGraphDb(kRows, /*back_edge_every=*/0);
  Query join = ParseQuery("Q(x) := exists y . R(x, y) & R(y, x)").value();
  std::vector<Tuple> serial_answers;
  std::vector<Tuple> parallel_answers;
  // Warm once so one-time plan-cache compilation does not pollute either
  // side of the ratio.
  TimedNaiveMs(plan::PlanMode::kCompiled, 1, join, db, &serial_answers);
  double serial_ms =
      TimedNaiveMs(plan::PlanMode::kCompiled, 1, join, db, &serial_answers);
  double parallel_ms =
      TimedNaiveMs(plan::PlanMode::kCompiled, 4, join, db, &parallel_answers);
  double ratio = parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
  unsigned hw = std::thread::hardware_concurrency();
  std::printf("morsel parallelism on the %zu-row join: serial %.1f ms, "
              "4 threads %.1f ms (%.2fx, %u hardware threads), answers "
              "%zu/%zu\n\n",
              kRows, serial_ms, parallel_ms, ratio, hw,
              serial_answers.size(), parallel_answers.size());
  experiment->Claim(serial_answers == parallel_answers,
                    "serial and 4-thread morsel teams return byte-identical "
                    "answers on the join workload");
  char ratio_claim[160];
  if (hw >= 4) {
    std::snprintf(ratio_claim, sizeof(ratio_claim),
                  "a 4-worker morsel team evaluates the join workload at "
                  "least 3x faster than serial (measured %.2fx on %u "
                  "hardware threads)",
                  ratio, hw);
    experiment->Claim(ratio >= 3.0, ratio_claim);
  } else {
    std::snprintf(ratio_claim, sizeof(ratio_claim),
                  "morsel speedup check skipped: only %u hardware threads "
                  "(measured %.2fx at 4 workers; needs >= 4 threads for the "
                  "3x bar)",
                  hw, ratio);
    experiment->Claim(true, ratio_claim);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Experiment experiment("scale");
  std::printf("E17: the framework at workload scale\n");
  std::printf("------------------------------------\n");
  ScaleTable(&experiment);
  OracleJoinTable(&experiment);
  ParallelQueryTable(&experiment);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return experiment.Finish();
}
