// Experiment E19: plan caching on the serving path.
//
// A dashboard-style serving workload re-runs the same query against a
// session between mutations. With the src/plan subsystem the dispatcher
// installs a plan-cache scope keyed on (session, version), so the first
// request compiles a cost-based bytecode program and every subsequent
// request executes the cached program directly.
//
// This bench drives Dispatcher::Execute with repeated `naive` requests
// under @nocache — the *result* cache is bypassed, so every request really
// evaluates; only the *plan* cache is hot — and compares hot-cache serving
// against compiled serving that clears the plan cache before every request.
// Payloads are separately checked against the oracle (ZEROONE_PLAN=
// interpret) on a smaller graph: its full-domain sweep is cubic in the
// triangle query. The JSON metrics block picks up the
// plan.{compile,cache_hit,exec} counters for the run.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "plan/cache.h"
#include "plan/mode.h"
#include "svc/dispatch.h"
#include "svc/protocol.h"

using namespace zeroone;

namespace {

constexpr std::size_t kRows = 800;
constexpr std::size_t kOracleRows = 200;
constexpr int kRequests = 30;

// The query hunts for triangles, a three-way self-join that makes
// per-binding evaluator overhead visible.
constexpr const char* kQuery =
    "Q(x) := exists y . exists z . R(x, y) & R(y, z) & R(z, x)";

// R holds the functional graph i -> 7i+1 (mod rows), which has no
// triangles, plus the triangle i -> i+1 -> i+2 -> i at every 50th node, so
// the answer set is not empty.
std::string GraphDbText(std::size_t rows) {
  std::string text = "R(2) = {";
  auto edge = [&](std::size_t from, std::size_t to) {
    if (text.back() != '{') text += ",";
    text += " (n" + std::to_string(from) + ", n" + std::to_string(to) + ")";
  };
  for (std::size_t i = 0; i < rows; ++i) {
    edge(i, (i * 7 + 1) % rows);
    if (i % 50 == 0) {
      edge(i, i + 1);
      edge(i + 1, i + 2);
      edge(i + 2, i);
    }
  }
  text += " }";
  return text;
}

svc::Request NaiveRequest(const std::string& session) {
  svc::Request request;
  request.session = session;
  request.command = "naive";
  request.no_cache = true;
  return request;
}

bool SetUp(svc::Dispatcher* dispatcher, const std::string& session,
           std::size_t rows) {
  svc::Request setup = NaiveRequest(session);
  setup.command = "db";
  setup.args = GraphDbText(rows);
  bool ok = dispatcher->Execute(setup).status == svc::WireStatus::kOk;
  setup.command = "query";
  setup.args = kQuery;
  return ok && dispatcher->Execute(setup).status == svc::WireStatus::kOk;
}

// Runs `requests` identical naive evaluations of `session` under `mode`,
// clearing the plan cache before each one when `cold`, and returns the
// total wall time; *all_ok reports that every payload was OK and equal to
// the first, which comes back through *payload.
double TimedRequestsMs(svc::Dispatcher* dispatcher,
                       const std::string& session, plan::PlanMode mode,
                       int requests, bool cold, std::string* payload,
                       bool* all_ok) {
  plan::PlanMode previous = plan::plan_mode();
  plan::SetPlanMode(mode);
  *all_ok = true;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < requests; ++i) {
    if (cold) plan::PlanCache::Global().Clear();
    svc::Response response = dispatcher->Execute(NaiveRequest(session));
    *all_ok = *all_ok && response.status == svc::WireStatus::kOk;
    if (i == 0) {
      *payload = response.payload;
    } else {
      *all_ok = *all_ok && response.payload == *payload;
    }
  }
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  plan::SetPlanMode(previous);
  return ms;
}

}  // namespace

int main() {
  bench::Experiment experiment("plan");
  std::printf("E19: plan caching on the serving path\n");
  std::printf("-------------------------------------\n");

  svc::Dispatcher dispatcher(svc::Dispatcher::Options{});
  experiment.Claim(SetUp(&dispatcher, "bench", kRows) &&
                       SetUp(&dispatcher, "oracle", kOracleRows),
                   "session setup (db + query) succeeded");

  std::string oracle_payload;
  std::string served_payload;
  bool oracle_ok = false;
  bool served_ok = false;
  double oracle_ms =
      TimedRequestsMs(&dispatcher, "oracle", plan::PlanMode::kInterpret, 1,
                      /*cold=*/false, &oracle_payload, &oracle_ok);
  TimedRequestsMs(&dispatcher, "oracle", plan::PlanMode::kCompiled, 1,
                  /*cold=*/false, &served_payload, &served_ok);
  std::printf("oracle check on the %zu-row triangle join: oracle %.1f ms, "
              "payloads %s (%zu bytes)\n",
              kOracleRows, oracle_ms,
              oracle_payload == served_payload ? "identical" : "DIFFER",
              served_payload.size());

  std::string cold_payload;
  std::string hot_payload;
  bool cold_ok = false;
  bool hot_ok = false;
  double cold_ms =
      TimedRequestsMs(&dispatcher, "bench", plan::PlanMode::kCompiled,
                      kRequests, /*cold=*/true, &cold_payload, &cold_ok);
  plan::PlanCache::Stats before = plan::PlanCache::Global().stats();
  double hot_ms =
      TimedRequestsMs(&dispatcher, "bench", plan::PlanMode::kCompiled,
                      kRequests, /*cold=*/false, &hot_payload, &hot_ok);
  plan::PlanCache::Stats after = plan::PlanCache::Global().stats();

  std::printf("%d repeated naive requests (@nocache, %zu-row triangle "
              "join):\n  cache cleared %.1f ms (%.2f ms/req)\n  cache hot "
              "%10.1f ms (%.2f ms/req)  speedup %.1fx\n  plan cache: %llu "
              "hits, %llu misses during the hot run\n\n",
              kRequests, kRows, cold_ms, cold_ms / kRequests, hot_ms,
              hot_ms / kRequests, hot_ms > 0 ? cold_ms / hot_ms : 0.0,
              static_cast<unsigned long long>(after.hits - before.hits),
              static_cast<unsigned long long>(after.misses - before.misses));

  experiment.Claim(oracle_ok && served_ok && cold_ok && hot_ok &&
                       cold_payload == hot_payload,
                   "every request succeeded with a stable payload");
  experiment.Claim(oracle_payload == served_payload &&
                       oracle_payload.find("(n") != std::string::npos,
                   "compiled serving and the oracle return byte-identical, "
                   "non-empty payloads");
  experiment.Claim(after.hits - before.hits >=
                       static_cast<std::uint64_t>(kRequests - 1),
                   "the plan cache served every request after the first");
  experiment.Claim(cold_ms >= 5.0 * hot_ms,
                   "hot-plan-cache serving is at least 5x faster than "
                   "compiling every request on the repeated-query workload");
  return experiment.Finish();
}
