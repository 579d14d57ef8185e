#include "traced.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <shared_mutex>
#include <sstream>
#include <thread>

#include "core/comparison.h"
#include "core/conditional.h"
#include "core/measure.h"
#include "core/support.h"
#include "core/support_polynomial.h"
#include "data/io.h"
#include "data/valuation.h"
#include "obs/metrics.h"
#include "par/pool.h"
#include "plan/compiler.h"
#include "plan/vm.h"
#include "query/eval.h"
#include "query/parser.h"
#include "svc/dispatch.h"
#include "svc/wal.h"

namespace zeroone {
namespace perfbench {
namespace {

// Probe pass budget: distinct requests decomposed into module calls.
constexpr double kProbeSeconds = 6.0;
constexpr std::size_t kMaxProbes = 300;
// Replay cap per connection, which bounds the in-memory spans.
constexpr std::size_t kMaxReplayPerConnection = 4000;
// Width check budget: distinct requests re-run at the hardware width.
constexpr double kWideCheckSeconds = 4.0;
// Overhead check: each untraced/traced loop replays about this much work.
constexpr double kOverheadLoopMs = 1000.0;
constexpr int kOverheadRounds = 3;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::uint64_t request = 0;
  std::uint32_t tid = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;  // Index in the same recorder; -1 for a root.
  int cls = -1;     // OpClass of the request, for svc.execute spans.
};

// One thread's spans, nested by a stack. Never shared across threads.
class Recorder {
 public:
  explicit Recorder(std::uint32_t tid) : tid_(tid) {}
  void Begin(std::string name, std::uint64_t request, int cls) {
    Span span;
    span.name = std::move(name);
    span.request = request;
    span.tid = tid_;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.cls = cls;
    stack_.push_back(static_cast<int>(spans_.size()));
    span.start = NowNs();
    spans_.push_back(std::move(span));
  }
  void End() {
    spans_[static_cast<std::size_t>(stack_.back())].end = NowNs();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scoped {
 public:
  Scoped(Recorder* recorder, std::string name, std::uint64_t request,
         int cls = -1)
      : recorder_(recorder) {
    recorder_->Begin(std::move(name), request, cls);
  }
  ~Scoped() { recorder_->End(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Recorder* recorder_;
};

struct Replayed {
  std::size_t conn = 0;
  std::size_t op = 0;
};

// Parses, executes and formats one request under spans; returns the
// response.
svc::Response TracedExecute(svc::Dispatcher* dispatcher, const Op& op,
                            std::uint64_t id, Recorder* recorder) {
  const std::string line =
      svc::FormatRequestLine(ToRequest(op, std::to_string(id)));
  svc::Response response;
  Scoped root(recorder, "request", id);
  StatusOr<svc::Request> parsed = Status::Error("unparsed");
  {
    Scoped span(recorder, "svc.parse_request", id);
    parsed = svc::ParseRequestLine(line);
  }
  if (!parsed.ok()) {
    response.status = svc::WireStatus::kBadRequest;
    response.payload = parsed.status().message();
    return response;
  }
  {
    Scoped span(recorder, "svc.execute", id, static_cast<int>(op.cls));
    response = dispatcher->Execute(*parsed);
  }
  {
    Scoped span(recorder, "svc.format_response", id);
    std::string frame = svc::FormatResponse(response);
    if (frame.empty()) response.status = svc::WireStatus::kErr;
  }
  return response;
}

// Untraced twin of TracedExecute (same work, no spans).
void PlainExecute(svc::Dispatcher* dispatcher, const Op& op,
                  std::uint64_t id) {
  StatusOr<svc::Request> parsed = svc::ParseRequestLine(
      svc::FormatRequestLine(ToRequest(op, std::to_string(id))));
  if (!parsed.ok()) return;
  svc::Response response = dispatcher->Execute(*parsed);
  std::string frame = svc::FormatResponse(response);
  if (frame.empty()) std::abort();
}

bool RunSetup(svc::Dispatcher* dispatcher, const Workload& workload) {
  for (const SetupLine& line : workload.setup) {
    svc::Request request;
    request.session = line.session;
    request.command = line.command;
    request.args = line.args;
    if (dispatcher->Execute(request).status != svc::WireStatus::kOk) {
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

template <typename Fn>
double TimeMs(Fn&& fn) {
  Clock::time_point start = Clock::now();
  fn();
  return MillisBetween(start, Clock::now());
}

// Collects per-name self times (ns), request-class execute times and the
// root totals from every recorder.
struct SpanStats {
  std::map<std::string, std::vector<double>> self_ns;
  std::map<std::string, std::vector<double>> dur_ns;
  std::map<std::string, std::string> root_of;  // Span name -> root name.
  std::map<std::string, double> root_total_ns;
  std::map<int, std::vector<double>> execute_ns_by_class;
};

SpanStats Analyze(const std::vector<const Recorder*>& recorders) {
  SpanStats stats;
  for (const Recorder* recorder : recorders) {
    const std::vector<Span>& spans = recorder->spans();
    std::vector<double> covered(spans.size(), 0.0);
    std::vector<int> root(spans.size(), -1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double dur = static_cast<double>(span.end - span.start);
      if (span.parent >= 0) {
        covered[static_cast<std::size_t>(span.parent)] += dur;
        root[i] = root[static_cast<std::size_t>(span.parent)];
      } else {
        root[i] = static_cast<int>(i);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double dur = static_cast<double>(span.end - span.start);
      stats.self_ns[span.name].push_back(dur - covered[i]);
      stats.dur_ns[span.name].push_back(dur);
      const std::string& root_name = spans[static_cast<std::size_t>(root[i])].name;
      stats.root_of[span.name] = root_name;
      if (span.parent < 0) stats.root_total_ns[span.name] += dur;
      if (span.name == "svc.execute" && span.cls >= 0) {
        stats.execute_ns_by_class[span.cls].push_back(dur);
      }
    }
  }
  return stats;
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<const Recorder*>& recorders,
                      std::int64_t epoch) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  char buf[64];
  for (const Recorder* recorder : recorders) {
    for (const Span& span : recorder->spans()) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\": \"" << span.name
          << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
          << span.tid << ", \"ts\": ";
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(span.start - epoch) / 1000.0);
      out << buf << ", \"dur\": ";
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(span.end - span.start) / 1000.0);
      out << buf << ", \"args\": {\"request\": " << span.request << "}}";
    }
  }
  out << "\n]}\n";
}

// Values of the membership program's input registers for `tuple`.
std::vector<Value> MembershipInputs(const plan::Program& program,
                                    const Query& query, const Tuple& tuple) {
  std::vector<Value> inputs;
  for (std::size_t var : program.input_vars) {
    const auto& free = query.free_variables();
    auto it = std::find(free.begin(), free.end(), var);
    inputs.push_back(tuple[static_cast<std::size_t>(it - free.begin())]);
  }
  return inputs;
}

struct CoreTally {
  double ns = 0;
  std::uint64_t valuations = 0;
};

// Decomposes one request into direct calls of the public functions the
// dispatcher makes for it, each under its own span.
void ProbeRequest(svc::Dispatcher* dispatcher, svc::Dispatcher* idle,
                  svc::WalStore* wal, std::uint64_t* wal_version, const Op& op,
                  std::uint64_t id, std::size_t width, Recorder* recorder,
                  CoreTally* core) {
  Scoped root(recorder, "probe", id);
  if (op.cls == OpClass::kWrite) {
    {
      Scoped span(recorder, "svc.wal.append", id);
      StatusOr<std::uint64_t> appended = wal->Append(
          "probe", svc::WalRecord{++*wal_version, op.command, op.args}, false);
      if (!appended.ok()) std::abort();
    }
    Scoped span(recorder, "svc.execute.idle_write", id);
    svc::Request request = ToRequest(op, std::to_string(id));
    if (idle->Execute(request).status != svc::WireStatus::kOk) std::abort();
    return;
  }
  StatusOr<Query> parsed = Status::Error("no query");
  {
    Scoped span(recorder, "query.parse", id);
    parsed = ParseQuery(op.query);
  }
  if (!parsed.ok() || op.cls == OpClass::kQuerySet) return;
  const Query& query = *parsed;
  std::shared_ptr<svc::SessionState> session =
      dispatcher->sessions().GetOrCreate(op.session);
  std::shared_lock<std::shared_mutex> lock(session->mutex);
  const Database& db = session->db;
  std::string tuple_text = op.args;
  std::size_t k = 0;
  if (op.label == "muk") {
    std::istringstream in(op.args);
    in >> k;
    std::getline(in, tuple_text);
  }
  Tuple tuple;
  if (op.label != "naive" && op.label != "certain" && op.label != "best") {
    StatusOr<Tuple> t = ParseTuple(tuple_text);
    if (!t.ok()) std::abort();
    tuple = *t;
  }
  if (op.label == "naive" || op.label == "mu") {
    const bool enumerate = op.label == "naive";
    std::vector<Value> domain;
    {
      Scoped span(recorder, "data.adom", id);
      domain = db.ActiveDomain();
    }
    plan::CompiledQuery compiled;
    {
      Scoped span(recorder, "plan.compile", id);
      compiled = plan::CompileFormulaQuery(
          *query.formula(), query.free_variables(), query.variable_count(),
          query.variable_names(), db, enumerate);
    }
    if (enumerate) {
      std::vector<Tuple> answers;
      {
        Scoped span(recorder, "plan.vm", id);
        plan::ExecuteEnumerate(compiled.program, db, domain, &answers);
      }
      Scoped span(recorder, "query.naive", id);
      answers = NaiveEvaluate(query, db);
    } else {
      const std::vector<Value> inputs =
          MembershipInputs(compiled.program, query, tuple);
      {
        Scoped span(recorder, "plan.vm", id);
        plan::ExecuteMembership(compiled.program, db, domain, inputs);
      }
      Scoped span(recorder, "query.membership", id);
      NaiveMembership(query, db, tuple);
    }
    return;
  }
  {
    Valuation valuation = MakeBijectiveValuation(db);
    Scoped span(recorder, "data.valuation_apply." + op.shape, id);
    Database valued = valuation.Apply(db);
  }
  // Enumeration points: valuations plus partition maps (the two units the
  // support counters advance per witness check).
  obs::Registry& registry = obs::Registry::Global();
  auto points = [&registry] {
    return registry.GetCounter("support.valuations_enumerated").value() +
           registry.GetCounter("support.partition_maps_enumerated").value();
  };
  const std::uint64_t before = points();
  const std::int64_t start = NowNs();
  {
    Scoped span(recorder, "core." + op.label + "." + op.shape, id);
    if (op.label == "certain") {
      CertainAnswers(query, db);
    } else if (op.label == "best") {
      BestAnswers(query, db);
    } else if (op.label == "poly") {
      ComputeSupportPolynomial(query, db, tuple);
    } else if (op.label == "cond") {
      ComputeConditionalMu(query, session->constraints, db, tuple);
    } else if (op.label == "muk") {
      MuKParallel(query, db, tuple, k, width);
    }
  }
  const std::uint64_t enumerated = points() - before;
  if (enumerated > 0) {  // Calls that enumerate without counting are left out.
    core->ns += static_cast<double>(NowNs() - start);
    core->valuations += enumerated;
  }
}

// Orders distinct requests so that every (command, shape) group gets an
// early probe, then takes the rest round-robin.
std::vector<const Op*> ProbeOrder(const Workload& workload,
                                  const std::vector<Replayed>& replayed) {
  std::map<std::string, std::vector<const Op*>> groups;
  std::set<std::string> seen;
  for (const Replayed& r : replayed) {
    const Op& op = workload.streams[r.conn][r.op];
    const std::string key =
        op.session + '\x1f' + op.command + '\x1f' + op.args + '\x1f' + op.query;
    if (!seen.insert(key).second) continue;
    groups[op.label + "." + op.shape].push_back(&op);
  }
  std::vector<const Op*> order;
  for (std::size_t round = 0; order.size() < seen.size(); ++round) {
    for (auto& [group, ops] : groups) {
      if (round < ops.size()) order.push_back(ops[round]);
    }
  }
  return order;
}

}  // namespace

TracedResult RunTraced(const TracedInputs& in) {
  const Workload& workload = *in.workload;
  TracedResult result;
  const std::int64_t epoch = NowNs();
  par::SetParThreads(in.server_width);

  svc::Dispatcher::Options options;
  if (workload.needs_snapshot_dir) options.snapshot_dir = in.workdir + "/traced";
  svc::Dispatcher dispatcher(options);
  svc::Dispatcher::Options idle_options;
  if (workload.needs_snapshot_dir) {
    idle_options.snapshot_dir = in.workdir + "/traced_idle";
  }
  svc::Dispatcher idle(idle_options);
  svc::WalStore wal(in.workdir + "/wal_probe");
  std::uint64_t wal_version = 0;

  std::vector<Recorder> recorders;
  const std::size_t conns = workload.streams.size();
  for (std::size_t c = 0; c <= conns; ++c) {
    recorders.emplace_back(static_cast<std::uint32_t>(c + 1));
  }
  Recorder& main_recorder = recorders.back();

  // Setup: the module call behind `load`, then the workload's own setup.
  {
    Scoped root(&main_recorder, "setup", 0);
    for (const std::string& file : workload.files) {
      Scoped span(&main_recorder, "data.load", 0);
      std::ifstream input(file);
      std::stringstream text;
      text << input.rdbuf();
      if (!ParseDatabase(text.str()).ok()) std::abort();
    }
    if (!RunSetup(&dispatcher, workload) || !RunSetup(&idle, workload) ||
        !wal.Prepare().ok()) {
      std::fprintf(stderr, "perfbench: traced-run setup failed\n");
      std::abort();
    }
  }

  // Concurrent replay, one thread per connection, closed loop.
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::vector<Replayed>> replayed(conns);
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(in.replay_seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        const std::vector<Op>& stream = workload.streams[c];
        for (std::size_t i = 0;
             i < kMaxReplayPerConnection && Clock::now() < end; ++i) {
          const Op& op = stream[i % stream.size()];
          const std::uint64_t id = next_id++;
          svc::Response response =
              TracedExecute(&dispatcher, op, id, &recorders[c]);
          if (CheckResponse(response, std::to_string(id),
                            workload.expected[op.expected]) !=
              Verdict::kCorrect) {
            ++mismatches;
          }
          replayed[c].push_back({c, i % stream.size()});
          if (workload.think_ms[c] > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(workload.think_ms[c]));
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const auto& r : replayed) result.replayed += r.size();
  result.replay_mismatches = mismatches;

  // Probe pass: module calls of each distinct replayed request.
  std::vector<Replayed> all_replayed;
  for (const auto& r : replayed) {
    all_replayed.insert(all_replayed.end(), r.begin(), r.end());
  }
  CoreTally core;
  {
    const Clock::time_point probe_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kProbeSeconds));
    std::size_t probes = 0;
    for (const Op* op : ProbeOrder(workload, all_replayed)) {
      if (probes++ >= kMaxProbes || Clock::now() >= probe_end) break;
      ProbeRequest(&dispatcher, &idle, &wal, &wal_version, *op, next_id++,
                   in.server_width, &main_recorder, &core);
    }
  }

  // Width check: distinct requests re-run at the hardware width, whatever
  // the server's default, and compared with the oracle.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  {
    std::set<std::string> query_sessions;  // Sessions whose query changes.
    for (const auto& stream : workload.streams) {
      for (const Op& op : stream) {
        if (op.cls == OpClass::kQuerySet) query_sessions.insert(op.session);
      }
    }
    par::SetParThreads(hw);
    const Clock::time_point check_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kWideCheckSeconds));
    for (const Op* op : ProbeOrder(workload, all_replayed)) {
      if (Clock::now() >= check_end) break;
      if (op->cls != OpClass::kRead && op->cls != OpClass::kMeasure) continue;
      if (query_sessions.count(op->session) != 0) {
        svc::Request set;
        set.session = op->session;
        set.command = "query";
        set.args = op->query;
        dispatcher.Execute(set);
      }
      svc::Request request = ToRequest(*op, "0");
      request.no_cache = true;
      svc::Response response = dispatcher.Execute(request);
      ++result.wide_checked;
      const std::string& expected = workload.expected[op->expected];
      if (CheckResponse(response, "0", expected) != Verdict::kCorrect) {
        result.wide_mismatches.push_back(
            op->command + (op->args.empty() ? "" : " " + op->args) +
            " [query: " + op->query + "] expected " +
            std::to_string(expected.size()) + " bytes, got " +
            std::to_string(response.payload.size()) + " bytes: " +
            response.payload.substr(0, 120));
      }
    }
    par::SetParThreads(in.server_width);
  }

  // Width gain: the same call at width 1 and at the hardware width.
  std::string gain_detail;
  double width_gain = 0;
  {
    auto gain_of = [&](const std::function<void()>& call, int reps) {
      std::vector<double> serial, wide;
      for (int r = 0; r < reps; ++r) {
        par::SetParThreads(1);
        serial.push_back(TimeMs(call));
        par::SetParThreads(hw);
        wide.push_back(TimeMs(call));
      }
      par::SetParThreads(in.server_width);
      return Median(serial) / std::max(1e-9, Median(wide));
    };
    const Op* naive = nullptr;
    const Op* muk = nullptr;
    const Op* certain = nullptr;
    for (const auto& stream : workload.streams) {
      for (const Op& op : stream) {
        const bool unary = op.query.find("Q()") == std::string::npos;
        if (!naive && op.label == "naive") naive = &op;
        if (!muk && op.label == "muk" && unary) muk = &op;
        if (!certain && op.label == "certain" && unary) certain = &op;
      }
    }
    auto with_session = [&](const Op& op,
                            const std::function<void(const Query&,
                                                     const Database&)>& fn) {
      std::shared_ptr<svc::SessionState> session =
          dispatcher.sessions().GetOrCreate(op.session);
      std::shared_lock<std::shared_mutex> lock(session->mutex);
      StatusOr<Query> query = ParseQuery(op.query);
      if (query.ok()) fn(*query, session->db);
    };
    if (muk != nullptr && certain != nullptr) {
      double muk_gain = 0, certain_gain = 0;
      with_session(*muk, [&](const Query& query, const Database& db) {
        std::istringstream args(muk->args);
        std::size_t k = 0;
        std::string tuple_text;
        args >> k;
        std::getline(args, tuple_text);
        Tuple tuple = *ParseTuple(tuple_text);
        muk_gain = gain_of([&] { MuKParallel(query, db, tuple, k,
                                             par::par_threads()); }, 3);
      });
      with_session(*certain, [&](const Query& query, const Database& db) {
        certain_gain = gain_of([&] { CertainAnswers(query, db); }, 3);
      });
      width_gain = std::sqrt(muk_gain * certain_gain);
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "geomean of MuKParallel %.3f and CertainAnswers %.3f, "
                    "width 1 vs %zu",
                    muk_gain, certain_gain, hw);
      gain_detail = buf;
    } else if (naive != nullptr) {
      with_session(*naive, [&](const Query& query, const Database& db) {
        width_gain = gain_of([&] { NaiveEvaluate(query, db); }, 5);
      });
      gain_detail = "NaiveEvaluate on '" + naive->query + "', width 1 vs " +
                    std::to_string(hw);
    }
  }

  // Tracing overhead: a prefix of connection 0's stream replayed untraced
  // and traced, alternating, on the same dispatcher.
  double overhead = 0;
  std::string overhead_detail;
  {
    const std::vector<Op>& stream = workload.streams[0];
    std::vector<std::size_t> prefix;
    double budget = 0;
    const std::vector<Span>& spans = recorders[0].spans();
    for (const Span& span : spans) {
      if (span.name != "svc.execute") continue;
      budget += static_cast<double>(span.end - span.start) / 1e6;
      prefix.push_back(prefix.size() % stream.size());
      if (budget >= kOverheadLoopMs) break;
    }
    std::vector<double> plain, traced;
    Recorder discarded(0);
    for (int round = 0; round < kOverheadRounds; ++round) {
      plain.push_back(TimeMs([&] {
        for (std::size_t i : prefix) PlainExecute(&dispatcher, stream[i], 0);
      }));
      traced.push_back(TimeMs([&] {
        for (std::size_t i : prefix) {
          TracedExecute(&dispatcher, stream[i], 0, &discarded);
        }
      }));
    }
    overhead = Median(traced) / std::max(1e-9, Median(plain)) - 1.0;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "traced %.1f ms vs untraced %.1f ms over %zu requests "
                  "(median of %d)",
                  Median(traced), Median(plain), prefix.size(),
                  kOverheadRounds);
    overhead_detail = buf;
  }

  std::vector<const Recorder*> all;
  for (const Recorder& recorder : recorders) all.push_back(&recorder);
  WriteChromeTrace(in.trace_path, all, epoch);
  SpanStats stats = Analyze(all);

  // Per-layer table.
  {
    char line[200];
    std::snprintf(line, sizeof(line), "%-36s %8s %12s %9s", "span", "calls",
                  "self_p50_us", "share");
    result.table.push_back(line);
    for (const auto& [name, selfs] : stats.self_ns) {
      const std::string& root = stats.root_of[name];
      double total = 0;
      for (double s : selfs) total += s;
      const double share = total / std::max(1.0, stats.root_total_ns[root]);
      std::snprintf(line, sizeof(line), "%-36s %8zu %12.1f %8.1f%% of %s",
                    name.c_str(), selfs.size(), Median(selfs) / 1000.0,
                    share * 100.0, root.c_str());
      result.table.push_back(line);
    }
  }

  auto p50 = [&](const std::string& span, double scale) -> LayerValue {
    auto it = stats.self_ns.find(span);
    if (it == stats.self_ns.end()) return {"", 0, "not exercised"};
    return {"", Median(it->second) / scale,
            "p50 of " + std::to_string(it->second.size()) + " spans"};
  };
  auto add = [&](const std::string& name, LayerValue value) {
    value.name = name;
    result.values.push_back(std::move(value));
  };
  // Client p50 over served reads/measures minus the in-process execute p50
  // of the same classes.
  {
    std::vector<double> client, exec;
    for (const Sample& s : in.window->samples) {
      const OpClass cls = workload.streams[s.conn][s.op].cls;
      if (s.verdict == Verdict::kCorrect &&
          (cls == OpClass::kRead || cls == OpClass::kMeasure)) {
        client.push_back(s.latency_ms);
      }
    }
    for (int cls : {static_cast<int>(OpClass::kRead),
                    static_cast<int>(OpClass::kMeasure)}) {
      for (double ns : stats.execute_ns_by_class[cls]) exec.push_back(ns / 1e6);
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "client p50 %.3f ms (n=%zu) - execute p50 %.3f ms (n=%zu)",
                  Median(client), client.size(), Median(exec), exec.size());
    add("svc.wire_ms", {"", Median(client) - Median(exec), buf});
  }
  {
    auto it = stats.dur_ns.find("svc.execute");
    add("svc.execute_ms",
        it == stats.dur_ns.end()
            ? LayerValue{"", 0, "not exercised"}
            : LayerValue{"", Median(it->second) / 1e6,
                         "p50 of " + std::to_string(it->second.size())});
  }
  add("svc.parse_request_us", p50("svc.parse_request", 1e3));
  add("svc.format_response_us", p50("svc.format_response", 1e3));
  add("svc.wal.append_us", p50("svc.wal.append", 1e3));
  {
    std::vector<double> writes;
    for (const Sample& s : in.window->samples) {
      if (workload.streams[s.conn][s.op].cls == OpClass::kWrite &&
          s.verdict == Verdict::kCorrect) {
        writes.push_back(s.latency_ms);
      }
    }
    LayerValue idle_write = p50("svc.execute.idle_write", 1e6);
    if (writes.empty()) {
      add("svc.write_stall_ms", {"", 0, "not exercised"});
    } else {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "served write p99 %.3f ms (n=%zu) - idle execute p50 %.3f ms",
                    Percentile(writes, 99), writes.size(), idle_write.value);
      add("svc.write_stall_ms",
          {"", Percentile(writes, 99) - idle_write.value, buf});
    }
  }
  add("query.parse_us", p50("query.parse", 1e3));
  add("query.naive_ms", p50("query.naive", 1e6));
  add("query.membership_us", p50("query.membership", 1e3));
  add("data.adom_ms", p50("data.adom", 1e6));
  add("data.load_ms", p50("data.load", 1e6));
  add("data.valuation_apply_us.null_heavy",
      p50("data.valuation_apply.null_heavy", 1e3));
  add("data.valuation_apply_us.row_heavy",
      p50("data.valuation_apply.row_heavy", 1e3));
  add("plan.compile_ms", p50("plan.compile", 1e6));
  add("plan.vm_ms", p50("plan.vm", 1e6));
  add("core.ns_per_valuation",
      core.valuations == 0
          ? LayerValue{"", 0, "not exercised"}
          : LayerValue{"", core.ns / static_cast<double>(core.valuations),
                       "core time over " + std::to_string(core.valuations) +
                           " valuations and partition maps"});
  for (const char* kind : {"certain", "best", "poly", "cond", "muk"}) {
    for (const char* shape : {"null_heavy", "row_heavy"}) {
      add(std::string("core.") + kind + "_ms." + shape,
          p50(std::string("core.") + kind + "." + shape, 1e6));
    }
  }
  add("par.width_gain", {"", width_gain, gain_detail});
  add("trace.overhead_frac", {"", overhead, overhead_detail});
  return result;
}

}  // namespace perfbench
}  // namespace zeroone
