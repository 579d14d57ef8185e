#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "data/io.h"
#include "gen/random_db.h"
#include "par/pool.h"
#include "plan/mode.h"
#include "svc/dispatch.h"

namespace zeroone {
namespace perfbench {
namespace {

// Threads the oracle spreads distinct requests over. Each request still
// runs serially (width 1); only independent requests overlap.
constexpr std::size_t kOracleThreads = 4;
// Closed-loop connections per workload. Two leave headroom on a 4-thread
// host, so the window measures the server rather than the scheduler.
constexpr std::size_t kReadConnections = 2;
constexpr std::size_t kMeasureConnections = 2;
constexpr std::size_t kWriteMixReaders = 3;
constexpr std::size_t kProbesPerQuery = 16;
constexpr std::size_t kReadCycles = 3;     // Distinct cycles per stream.
// Zipf support of the mu probes: wide for serve_read, so most probes miss
// the result cache and p50 lies clear of the hit/miss step; narrow for
// write_mix, whose readers then mostly hit between writes and leave the
// writer gaps in the shared lock.
constexpr std::size_t kReadCandidates = 128;
constexpr std::size_t kWriteMixCandidates = 16;

// serve_read / write_mix instance: R(2) and S(2) with 10k rows each.
constexpr std::size_t kReadRows = 10000;
constexpr std::size_t kReadConstants = 1250;
constexpr std::size_t kReadNulls = 20;
constexpr double kReadNullProbability = 0.01;

struct Shape {
  const char* name;
  std::size_t rows;
  std::size_t nulls;
  std::size_t constants;
  double null_probability;
};
// measure_exact shapes. Null-heavy cost is bound by partitions of the
// nulls (Bell(m)·(a+1)^m); row-heavy cost by copying v(D) per valuation.
// A request's cost depends on the drawn data (certain answers stop at the
// first falsifying valuation), so a run spreads its window over many
// instances: its latency percentiles then describe the shape, not one draw.
constexpr Shape kShapes[] = {{"null_heavy", 16, 4, 5, 0.3},
                             {"row_heavy", 60, 3, 10, 0.03}};
constexpr std::size_t kInstancesPerShape = 8;
constexpr std::size_t kMukK = 12;

// write_mix: the writer's think time between inserts.
constexpr std::uint64_t kWriterThinkMs = 5;
constexpr std::size_t kWriterStream = 200000;

// serve_read's six queries: a selective join, a join pinned to a constant,
// a Boolean ∃ join, a negation, a ∀∃ query and one with more than 1k
// answers (c3, c5 and c7 exist in every seed's pool of 1250 constants).
constexpr const char* kReadQueries[] = {
    "Q(x) := exists y . R(x, y) & S(y, x)",
    "Q(y) := exists z . R(c7, z) & S(z, y)",
    "Q() := exists x . exists y . R(x, y) & S(y, x)",
    "Q(x) := R(x, c3) & !S(c3, x)",
    "Q(x) := R(x, c5) & forall y . (S(x, y) -> exists z . R(y, z))",
    "Q(x) := exists y . R(x, y) & !S(y, x)",
};

// measure_exact's join, negation and Boolean query.
constexpr const char* kMeasureQueries[] = {
    "Q(x) := exists y . R(x, y) & S(y, c0)",
    "Q(x) := exists y . R(x, y) & !S(y, x)",
    "Q() := exists x . exists y . R(x, y) & S(y, x)",
};

constexpr const char* kWriteMixQuery = "Q(x) := exists y . R(x, y) & S(y, x)";

// The oracle: one serial, interpreting Dispatcher. Setup lines run at once;
// evaluation requests are queued (deduplicated) and computed together.
class Oracle {
 public:
  Oracle() : dispatcher_(svc::Dispatcher::Options()) {}

  bool Run(const std::string& session, const std::string& command,
           const std::string& args, std::string* payload) {
    svc::Request request;
    request.session = session;
    request.command = command;
    request.args = args;
    request.no_cache = true;
    svc::Response response = dispatcher_.Execute(request);
    if (response.status != svc::WireStatus::kOk) {
      std::cerr << "perfbench: oracle rejected '" << command << " " << args
                << "' on session " << session << ": " << response.payload
                << "\n";
      return false;
    }
    *payload = std::move(response.payload);
    return true;
  }

  // Returns the index the payload will occupy in `table`.
  std::size_t Enqueue(const std::string& session, const std::string& command,
                      const std::string& args, std::vector<std::string>* table) {
    std::string key = session + '\x1f' + command + '\x1f' + args;
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    std::size_t slot = table->size();
    table->emplace_back();
    index_.emplace(key, slot);
    queued_.push_back({slot, session, command, args});
    return slot;
  }

  bool RunQueued(std::vector<std::string>* table) {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> ok{true};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kOracleThreads; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next++; i < queued_.size(); i = next++) {
          const Queued& q = queued_[i];
          if (!Run(q.session, q.command, q.args, &(*table)[q.slot])) {
            ok = false;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    evaluated_ += queued_.size();
    queued_.clear();
    return ok;
  }

  std::size_t evaluated() const { return evaluated_; }

 private:
  struct Queued {
    std::size_t slot;
    std::string session, command, args;
  };
  svc::Dispatcher dispatcher_;
  std::map<std::string, std::size_t> index_;
  std::vector<Queued> queued_;
  std::size_t evaluated_ = 0;
};

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  out.close();
  if (!out) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return false;
  }
  return true;
}

Database MakeDatabase(std::size_t rows, std::size_t constants,
                      std::size_t nulls, double null_probability,
                      std::uint64_t seed) {
  RandomDatabaseOptions options;
  options.relations = {{"R", 2, rows}, {"S", 2, rows}};
  options.constant_pool = constants;
  options.null_pool = nulls;
  options.null_probability = null_probability;
  options.seed = seed;
  return GenerateRandomDatabase(options);
}

// Answer tuples of a `naive`-style payload, constant-only ones only (the
// probe syntax writes constants; answers holding nulls are never probed).
std::vector<std::string> ConstantAnswers(const std::string& payload) {
  std::vector<std::string> answers;
  std::istringstream lines(payload);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t start = line.find('(');
    if (start == std::string::npos || line.find("(none)") != std::string::npos)
      continue;
    std::string tuple = line.substr(start);
    if (tuple.find("\xe2\x8a\xa5") != std::string::npos) continue;  // ⊥
    answers.push_back(tuple);
  }
  return answers;
}

std::string ConstantTuple(std::size_t arity, std::size_t constants,
                          std::mt19937_64* rng) {
  std::uniform_int_distribution<std::size_t> pick(0, constants - 1);
  std::string tuple = "(";
  for (std::size_t i = 0; i < arity; ++i) {
    if (i > 0) tuple += ", ";
    tuple += "c" + std::to_string(pick(*rng));
  }
  return tuple + ")";
}

// Probe candidates for one query: up to half answers, the rest tuples of
// pool constants that are not answers.
std::vector<std::string> ProbeCandidates(const std::vector<std::string>& answers,
                                         std::size_t arity,
                                         std::size_t constants,
                                         std::size_t count,
                                         std::mt19937_64* rng) {
  if (arity == 0) return {"()"};
  std::vector<std::string> shuffled = answers;
  std::shuffle(shuffled.begin(), shuffled.end(), *rng);
  std::vector<std::string> candidates;
  for (std::size_t i = 0; i < shuffled.size() && i < count / 2; ++i) {
    candidates.push_back(shuffled[i]);
  }
  std::set<std::string> answer_set(answers.begin(), answers.end());
  // When answers cover (nearly) the whole pool, draw from twice its size:
  // constants beyond the pool are absent from the instance.
  for (std::size_t attempt = 0; candidates.size() < count; ++attempt) {
    std::string tuple =
        ConstantTuple(arity, attempt < 1000 ? constants : 2 * constants, rng);
    if (answer_set.count(tuple) != 0) continue;
    if (std::find(candidates.begin(), candidates.end(), tuple) !=
        candidates.end())
      continue;
    candidates.push_back(tuple);
  }
  std::shuffle(candidates.begin(), candidates.end(), *rng);
  return candidates;
}

// Zipf(1) draw over `n` ranks.
std::size_t ZipfRank(std::size_t n, std::mt19937_64* rng) {
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) weights[i] = 1.0 / (i + 1.0);
  std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
  return pick(*rng);
}

std::size_t QueryArity(const std::string& text) {
  std::size_t open = text.find('(');
  std::size_t close = text.find(')');
  std::string head = text.substr(open + 1, close - open - 1);
  if (head.find_first_not_of(' ') == std::string::npos) return 0;
  return static_cast<std::size_t>(std::count(head.begin(), head.end(), ',')) +
         1;
}

// Cross-checks every mu probe against naive membership (Theorem 1: the
// zero-one limit of a tuple is 1 exactly when it is a naive answer).
void CrossCheckTheorem1(const std::string& query, const std::string& naive,
                        const std::map<std::string, std::size_t>& mu_slots,
                        const std::vector<std::string>& table,
                        OracleReport* report) {
  std::vector<std::string> answers = ConstantAnswers(naive);
  std::set<std::string> answer_set(answers.begin(), answers.end());
  for (const auto& [tuple, slot] : mu_slots) {
    const bool in_naive = answer_set.count(tuple) != 0;
    const std::string want = in_naive ? "mu = 1" : "mu = 0";
    if (table[slot] != want) {
      report->inconsistencies.push_back("query " + query + ": mu " + tuple +
                                        " = '" + table[slot] +
                                        "' but naive membership says '" +
                                        want + "'");
    }
  }
}

struct ReadQueryState {
  std::string text;
  std::size_t canonical_slot = 0;  // Payload of `query <text>`.
  std::size_t naive_slot = 0;
  std::vector<std::string> candidates;  // mu probe candidates.
  std::map<std::string, std::size_t> mu_slots;
};

// Writes the `index`-th 20k-tuple instance of `seed`; returns its path.
bool BuildReadInstance(std::uint64_t seed, std::size_t index,
                       const std::string& workdir, Workload* workload,
                       std::string* path) {
  Database db = MakeDatabase(
      kReadRows, kReadConstants, kReadNulls, kReadNullProbability,
      SubSeed(seed, "serve_read.instance" + std::to_string(index)));
  *path = workdir + "/read_instance" + std::to_string(index) + ".zo";
  workload->files.push_back(*path);
  workload->notes.push_back(
      "instance " + std::to_string(index) + ": R(2), S(2) drawn " +
      std::to_string(kReadRows) + " rows each (" +
      std::to_string(db.TupleCount()) + " distinct tuples), " +
      std::to_string(kReadConstants) + " constants, null pool " +
      std::to_string(kReadNulls) + " at " +
      std::to_string(static_cast<int>(kReadNullProbability * 100)) +
      "% per position");
  return WriteFile(*path, FormatDatabase(db));
}

bool BuildServeRead(std::uint64_t seed, const std::string& workdir,
                    Workload* w, OracleReport* report) {
  Oracle oracle;
  // Per connection: its own instance and, per query, an oracle session.
  std::vector<std::vector<ReadQueryState>> states(kReadConnections);
  for (std::size_t c = 0; c < kReadConnections; ++c) {
    std::string path;
    if (!BuildReadInstance(seed, c, workdir, w, &path)) return false;
    w->setup.push_back({"read" + std::to_string(c), "load", path});
    for (std::size_t q = 0; q < std::size(kReadQueries); ++q) {
      ReadQueryState state;
      state.text = kReadQueries[q];
      const std::string session =
          "c" + std::to_string(c) + "q" + std::to_string(q);
      std::string loaded, canonical;
      if (!oracle.Run(session, "load", path, &loaded) ||
          !oracle.Run(session, "query", state.text, &canonical)) {
        return false;
      }
      state.canonical_slot = w->expected.size();
      w->expected.push_back(canonical);
      state.naive_slot = oracle.Enqueue(session, "naive", "", &w->expected);
      states[c].push_back(std::move(state));
    }
  }
  if (!oracle.RunQueued(&w->expected)) return false;

  for (std::size_t c = 0; c < kReadConnections; ++c) {
    const std::string session = "read" + std::to_string(c);
    std::mt19937_64 rng(SubSeed(seed, "serve_read.stream" + std::to_string(c)));
    for (ReadQueryState& state : states[c]) {
      state.candidates = ProbeCandidates(
          ConstantAnswers(w->expected[state.naive_slot]),
          QueryArity(state.text), kReadConstants, kReadCandidates, &rng);
    }
    std::vector<Op> stream;
    for (std::size_t cycle = 0; cycle < kReadCycles; ++cycle) {
      for (std::size_t i = 0; i < states[c].size(); ++i) {
        // Connections start at different queries of the cycle.
        const std::size_t q = (i + 2 * c) % states[c].size();
        ReadQueryState& state = states[c][q];
        const std::string oracle_session =
            "c" + std::to_string(c) + "q" + std::to_string(q);
        Op set;
        set.cls = OpClass::kQuerySet;
        set.session = session;
        set.command = set.label = "query";
        set.args = state.text;
        set.query = state.text;
        set.expected = state.canonical_slot;
        stream.push_back(set);
        Op naive = set;
        naive.cls = OpClass::kRead;
        naive.command = naive.label = "naive";
        naive.args.clear();
        naive.expected = state.naive_slot;
        stream.push_back(naive);
        for (std::size_t p = 0; p < kProbesPerQuery; ++p) {
          Op mu = naive;
          mu.command = mu.label = "mu";
          mu.args = state.candidates[ZipfRank(state.candidates.size(), &rng)];
          auto [it, fresh] = state.mu_slots.emplace(mu.args, 0);
          if (fresh) {
            it->second =
                oracle.Enqueue(oracle_session, "mu", mu.args, &w->expected);
          }
          mu.expected = it->second;
          stream.push_back(mu);
        }
      }
    }
    w->streams.push_back(std::move(stream));
    w->think_ms.push_back(0);
  }
  if (!oracle.RunQueued(&w->expected)) return false;
  for (const auto& per_conn : states) {
    for (const ReadQueryState& state : per_conn) {
      CrossCheckTheorem1(state.text, w->expected[state.naive_slot],
                         state.mu_slots, w->expected, report);
    }
  }
  report->requests = oracle.evaluated();
  w->notes.push_back(
      "streams: " + std::to_string(kReadConnections) +
      " connections, own session and instance each; " +
      std::to_string(kReadCycles) + " cycles of 6 queries, each: query, "
      "naive, " + std::to_string(kProbesPerQuery) +
      " Zipf-skewed mu probes (fresh draws per cycle)");
  return true;
}

bool BuildMeasureExact(std::uint64_t seed, const std::string& workdir,
                       Workload* w, OracleReport* report) {
  Oracle oracle;
  std::vector<Op> all;
  std::size_t instance = 0;
  for (const Shape& shape : kShapes) {
    for (std::size_t i = 0; i < kInstancesPerShape; ++i, ++instance) {
      // Redraw until every null and constant of the pools occurs, so each
      // instance of a shape carries the same m and a (the exact cost is
      // Bell(m)·(a+1)^m valuations).
      Database db;
      for (std::uint64_t attempt = 0;; ++attempt) {
        db = MakeDatabase(shape.rows, shape.constants, shape.nulls,
                          shape.null_probability,
                          SubSeed(seed, "measure_exact.instance" +
                                            std::to_string(instance) + "." +
                                            std::to_string(attempt)));
        if (db.Nulls().size() == shape.nulls &&
            db.Constants().size() == shape.constants) {
          break;
        }
      }
      const std::string path =
          workdir + "/measure_" + std::to_string(instance) + ".zo";
      w->files.push_back(path);
      if (!WriteFile(path, FormatDatabase(db))) return false;
      w->notes.push_back(std::string("instance ") + std::to_string(instance) +
                         ": " + shape.name + ", " +
                         std::to_string(db.TupleCount()) + " tuples, " +
                         std::to_string(db.Nulls().size()) + " nulls, " +
                         std::to_string(db.Constants().size()) + " constants");
      std::mt19937_64 rng(
          SubSeed(seed, "measure_exact.tuple" + std::to_string(instance)));
      for (std::size_t q = 0; q < std::size(kMeasureQueries); ++q) {
        const std::string session =
            "m" + std::to_string(instance) + "q" + std::to_string(q);
        const std::string text = kMeasureQueries[q];
        std::string ignored;
        if (!oracle.Run(session, "load", path, &ignored) ||
            !oracle.Run(session, "fd", "R 2 0 1", &ignored) ||
            !oracle.Run(session, "query", text, &ignored)) {
          return false;
        }
        w->setup.push_back({session, "load", path});
        w->setup.push_back({session, "fd", "R 2 0 1"});
        w->setup.push_back({session, "query", text});
        const std::string tuple =
            QueryArity(text) == 0 ? "()"
                                  : ConstantTuple(1, shape.constants, &rng);
        const std::pair<const char*, std::string> requests[] = {
            {"certain", ""},
            {"best", ""},
            {"poly", tuple},
            {"cond", tuple},
            {"muk", std::to_string(kMukK) + " " + tuple}};
        for (const auto& [command, args] : requests) {
          Op op;
          op.cls = OpClass::kMeasure;
          op.session = session;
          op.command = op.label = command;
          op.args = args;
          op.no_cache = true;
          op.shape = shape.name;
          op.query = text;
          op.expected = oracle.Enqueue(session, command, args, &w->expected);
          all.push_back(op);
        }
      }
    }
  }
  if (!oracle.RunQueued(&w->expected)) return false;
  // Stratified order: each round holds one request of every (command,
  // shape) group, so any stretch of a stream carries the same mix.
  std::map<std::string, std::vector<Op>> groups;
  for (const Op& op : all) groups[op.label + "." + op.shape].push_back(op);
  for (std::size_t c = 0; c < kMeasureConnections; ++c) {
    std::mt19937_64 rng(SubSeed(seed, "measure_exact.order" + std::to_string(c)));
    std::vector<std::vector<Op>> shuffled;
    for (const auto& [group, ops] : groups) {
      shuffled.push_back(ops);
      std::shuffle(shuffled.back().begin(), shuffled.back().end(), rng);
    }
    std::vector<Op> stream;
    for (std::size_t round = 0; round < shuffled.front().size(); ++round) {
      std::vector<Op> ops;
      for (const auto& group : shuffled) ops.push_back(group[round]);
      std::shuffle(ops.begin(), ops.end(), rng);
      stream.insert(stream.end(), ops.begin(), ops.end());
    }
    w->streams.push_back(std::move(stream));
    w->think_ms.push_back(0);
  }
  // No warm-up: requests bypass the result cache, so every window starts
  // at the head of each stream, on a round boundary.
  w->warmup_s = 0;
  w->primary = OpClass::kMeasure;
  report->requests = oracle.evaluated();
  w->notes.push_back("streams: " + std::to_string(kMeasureConnections) +
                     " connections, each a seeded stratified "
                     "order (one request per command and shape per round) "
                     "of " + std::to_string(all.size()) +
                     " @nocache requests (certain, best, poly, cond, muk " +
                     std::to_string(kMukK) + ") over " +
                     std::to_string(all.size() / 5) +
                     " sessions with fd R 2 0 1");
  return true;
}

bool BuildWriteMix(std::uint64_t seed, const std::string& workdir,
                   Workload* w, OracleReport* report) {
  std::string path;
  if (!BuildReadInstance(seed, 0, workdir, w, &path)) return false;
  w->needs_snapshot_dir = true;
  w->primary = OpClass::kWrite;
  w->server_flags = {"--ack-mode=async"};
  Oracle oracle;
  std::string canonical, ignored;
  if (!oracle.Run("w", "load", path, &ignored) ||
      !oracle.Run("w", "query", kWriteMixQuery, &canonical)) {
    return false;
  }
  const std::size_t naive_slot = oracle.Enqueue("w", "naive", "", &w->expected);
  if (!oracle.RunQueued(&w->expected)) return false;
  const std::vector<std::string> answers = ConstantAnswers(w->expected[naive_slot]);
  w->setup.push_back({"shared", "load", path});
  w->setup.push_back({"shared", "query", kWriteMixQuery});

  std::map<std::string, std::size_t> mu_slots;
  for (std::size_t c = 0; c < kWriteMixReaders; ++c) {
    std::mt19937_64 rng(SubSeed(seed, "write_mix.stream" + std::to_string(c)));
    std::vector<std::string> candidates =
        ProbeCandidates(answers, 1, kReadConstants, kWriteMixCandidates, &rng);
    std::vector<Op> stream;
    // 80 % mu probes, 20 % naive, in a fixed repeating pattern.
    for (std::size_t i = 0; i < 100; ++i) {
      Op op;
      op.cls = OpClass::kRead;
      op.session = "shared";
      op.query = kWriteMixQuery;
      if (i % 5 == 4) {
        op.command = op.label = "naive";
        op.expected = naive_slot;
      } else {
        op.command = op.label = "mu";
        op.args = candidates[ZipfRank(candidates.size(), &rng)];
        auto [it, fresh] = mu_slots.emplace(op.args, 0);
        if (fresh) {
          it->second = oracle.Enqueue("w", "mu", op.args, &w->expected);
        }
        op.expected = it->second;
      }
      stream.push_back(op);
    }
    w->streams.push_back(std::move(stream));
    w->think_ms.push_back(0);
  }
  if (!oracle.RunQueued(&w->expected)) return false;
  CrossCheckTheorem1(kWriteMixQuery, w->expected[naive_slot], mu_slots,
                     w->expected, report);

  // The writer: one R tuple per request, over a constant no read joins
  // (S holds no w* constant, so R(x, y) & S(y, x) gains no answer).
  const std::size_t added_slot = w->expected.size();
  w->expected.push_back("added 1 tuples");
  std::vector<Op> writes;
  writes.reserve(kWriterStream);
  for (std::size_t i = 0; i < kWriterStream; ++i) {
    Op op;
    op.cls = OpClass::kWrite;
    op.session = "shared";
    op.command = op.label = "db";
    const std::string fresh = "w" + std::to_string(i);
    op.args = "R(2) = { (" + fresh + ", " + fresh + ") }";
    op.query = kWriteMixQuery;
    op.expected = added_slot;
    writes.push_back(std::move(op));
  }
  w->streams.push_back(std::move(writes));
  w->think_ms.push_back(kWriterThinkMs);
  report->requests = oracle.evaluated();
  w->notes.push_back(
      "streams: " + std::to_string(kWriteMixReaders) +
      " readers on one shared session (80% mu, 20% naive), 1 "
      "writer inserting one fresh R tuple per request, think time " +
      std::to_string(kWriterThinkMs) + " ms");
  w->notes.push_back(
      "flush policy: --snapshot-dir=<run dir> --ack-mode=async, WAL "
      "compaction every 256 records (server default)");
  return true;
}

}  // namespace

bool BuildWorkload(const std::string& name, std::uint64_t seed,
                   const std::string& workdir, Workload* workload,
                   OracleReport* report) {
  workload->name = name;
  const std::size_t saved_width = par::par_threads();
  const plan::PlanMode saved_mode = plan::plan_mode();
  par::SetParThreads(1);
  plan::SetPlanMode(plan::PlanMode::kInterpret);
  Clock::time_point start = Clock::now();
  bool ok = false;
  if (name == "serve_read") {
    ok = BuildServeRead(seed, workdir, workload, report);
  } else if (name == "measure_exact") {
    ok = BuildMeasureExact(seed, workdir, workload, report);
  } else if (name == "write_mix") {
    ok = BuildWriteMix(seed, workdir, workload, report);
  } else {
    std::cerr << "perfbench: unknown workload '" << name << "'\n";
  }
  report->seconds = MillisBetween(start, Clock::now()) / 1000.0;
  par::SetParThreads(saved_width);
  plan::SetPlanMode(saved_mode);
  return ok;
}

}  // namespace perfbench
}  // namespace zeroone
