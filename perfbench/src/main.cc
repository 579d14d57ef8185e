// perfbench — the serving benchmark (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server PATH [--git-sha SHA] [--build-type TYPE]
//
// Starts zeroone_server with its default flags (plus --http-port for
// GET /metrics and the workload's own flags), drives one workload over
// ZO1 from closed-loop connections, checks every response against a
// serial interpreting oracle, and prints a report whose last line is one
// JSON object: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1 (which adds an in-process traced replay).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "loadgen.h"
#include "server_process.h"
#include "svc/client.h"
#include "traced.h"
#include "workloads.h"

namespace zeroone {
namespace perfbench {
namespace {

constexpr int kSetupRepeats = 25;
constexpr int kSetupsBeforeWindow = 13;
constexpr std::size_t kListedPayloadBytes = 300;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"throughput_ops", "ops/s"},
    {"p50_ms", "ms"},         {"p90_ms", "ms"},
    {"ok_frac", "ratio"},     {"server_cpu_ms_per_op", "ms"},
    {"server_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"svc.wire_ms", "ms"},
    {"svc.execute_ms", "ms"},
    {"svc.parse_request_us", "us"},
    {"svc.format_response_us", "us"},
    {"svc.outbox_bytes_per_op", "bytes"},
    {"svc.cache.hit_ratio", "ratio"},
    {"svc.cache.invalidations_per_write", "count"},
    {"svc.wal.append_us", "us"},
    {"svc.wal.compactions", "count"},
    {"svc.write_stall_ms", "ms"},
    {"svc.rejected_per_op", "count"},
    {"query.parse_us", "us"},
    {"query.naive_ms", "ms"},
    {"query.membership_us", "us"},
    {"data.adom_ms", "ms"},
    {"data.load_ms", "ms"},
    {"data.index.builds_per_op", "count"},
    {"data.index.probe_hit_ratio", "ratio"},
    {"data.stats.builds_per_op", "count"},
    {"data.valuation_apply_us.null_heavy", "us"},
    {"data.valuation_apply_us.row_heavy", "us"},
    {"plan.compile_ms", "ms"},
    {"plan.cache.hit_ratio", "ratio"},
    {"plan.compiles_per_op", "count"},
    {"plan.vm_ms", "ms"},
    {"plan.vm.steps_per_op", "count"},
    {"core.valuations_per_op", "count"},
    {"core.partitions_per_op", "count"},
    {"core.witness_ratio", "ratio"},
    {"core.ns_per_valuation", "ns"},
    {"core.certain_ms.null_heavy", "ms"},
    {"core.certain_ms.row_heavy", "ms"},
    {"core.best_ms.null_heavy", "ms"},
    {"core.best_ms.row_heavy", "ms"},
    {"core.poly_ms.null_heavy", "ms"},
    {"core.poly_ms.row_heavy", "ms"},
    {"core.cond_ms.null_heavy", "ms"},
    {"core.cond_ms.row_heavy", "ms"},
    {"core.muk_ms.null_heavy", "ms"},
    {"core.muk_ms.row_heavy", "ms"},
    {"par.morsels_per_op", "count"},
    {"par.steal_ratio", "ratio"},
    {"par.width_gain", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string server;
  std::string git_sha = "unknown";
  std::string build_type = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--build-type") {
      args->build_type = value;
    } else {
      std::cerr << "perfbench: unknown flag " << flag << "\n";
      return false;
    }
  }
  if (argc % 2 == 0 || args->workload.empty() || args->seconds <= 0 ||
      (args->trace != 0 && args->trace != 1) || args->server.empty()) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --server PATH [--git-sha SHA] "
                 "[--build-type TYPE]\n";
    return false;
  }
  return true;
}

std::string Flat(const std::string& text) {
  std::string out;
  for (char c : text.substr(0, kListedPayloadBytes)) {
    out += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  if (text.size() > kListedPayloadBytes) out += "...";
  return out;
}

std::string Fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

// Reads the width the server picked for intra-query parallelism.
std::size_t ServerWidth(const std::string& log_path) {
  std::ifstream in(log_path);
  std::string line;
  const std::string key = "intra-query parallelism: ";
  while (std::getline(in, line)) {
    std::size_t at = line.find(key);
    if (at != std::string::npos) {
      return std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
    }
  }
  return 1;
}

// Starts a server and loads every session; returns seconds from spawn to
// the last setup response, or a negative value on failure.
double StartAndLoad(const Args& args, const Workload& workload,
                    const std::vector<std::string>& flags,
                    const std::string& log_path, ServerProcess* server) {
  const Clock::time_point start = Clock::now();
  if (!server->Start(args.server, flags, log_path)) return -1;
  svc::ClientOptions options;
  options.connect_timeout_ms = 10000;
  options.io_timeout_ms = 120000;
  svc::BlockingClient client(options);
  if (!client.Connect("127.0.0.1", server->port()).ok()) return -1;
  for (const SetupLine& line : workload.setup) {
    svc::Request request;
    request.session = line.session;
    request.command = line.command;
    request.args = line.args;
    StatusOr<svc::Response> response = client.Call(request);
    if (!response.ok() || response->status != svc::WireStatus::kOk) {
      std::cerr << "perfbench: setup '" << line.command << " " << line.args
                << "' failed: "
                << (response.ok() ? response->payload
                                  : response.status().message())
                << "\n";
      return -1;
    }
  }
  return MillisBetween(start, Clock::now()) / 1000.0;
}

using Counters = std::map<std::string, std::uint64_t>;

// Aggregate "cpu" line of /proc/stat: {steal ticks, all ticks}. Steal is
// time the hypervisor ran something else on this machine's CPUs.
std::pair<double, double> HostCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double steal = 0, total = 0, value = 0;
  for (int field = 1; field <= 8 && in >> value; ++field) {
    total += value;
    if (field == 8) steal = value;
  }
  return {steal, total};
}


int Run(const Args& args) {
  namespace fs = std::filesystem;
  const fs::path run_root = fs::absolute(".bench_run");
  const fs::path workdir =
      run_root / (args.workload + "-s" + std::to_string(args.seed) + "-" +
                  std::to_string(getpid()));
  std::error_code ec;
  fs::remove_all(workdir, ec);
  fs::create_directories(workdir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << workdir << "\n";
    return 1;
  }
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{workdir};

  Workload workload;
  OracleReport oracle;
  if (!BuildWorkload(args.workload, args.seed, workdir.string(), &workload,
                     &oracle)) {
    return 1;
  }

  std::vector<std::string> flags = {"--port=0", "--http-port=0"};
  flags.insert(flags.end(), workload.server_flags.begin(),
               workload.server_flags.end());

  std::cout << "perfbench " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\nstamp: git=" << args.git_sha << " build=" << args.build_type
            << " hw_threads=" << std::thread::hardware_concurrency()
            << " server_flags=\"";
  for (std::size_t i = 0; i < flags.size(); ++i) {
    std::cout << (i ? " " : "") << flags[i];
  }
  std::cout << (workload.needs_snapshot_dir ? " --snapshot-dir=<run dir>" : "")
            << "\"\n";
  for (const std::string& note : workload.notes) {
    std::cout << "workload: " << note << "\n";
  }
  std::cout << "oracle: " << oracle.requests
            << " distinct requests in " << Fmt(oracle.seconds)
            << " s (serial, plan mode interpret; excluded from setup_s)\n";

  // Setup, repeated: half of the repeats before the window (the last of
  // those servers stays up for it), the rest after it, so that a burst of
  // load on the host touches few of the samples setup_s is the median of.
  std::vector<double> setups;
  auto setup_once = [&](int i, ServerProcess* server,
                        std::string* log_path) -> bool {
    std::vector<std::string> run_flags = flags;
    if (workload.needs_snapshot_dir) {
      const fs::path snap = workdir / ("snapshots" + std::to_string(i));
      fs::create_directories(snap, ec);
      run_flags.push_back("--snapshot-dir=" + snap.string());
    }
    *log_path = (workdir / ("server" + std::to_string(i) + ".log")).string();
    const double seconds =
        StartAndLoad(args, workload, run_flags, *log_path, server);
    if (seconds < 0) return false;
    setups.push_back(seconds);
    return true;
  };
  ServerProcess server;
  std::string log_path;
  for (int i = 0; i < kSetupsBeforeWindow; ++i) {
    if (i > 0) server.Stop();
    if (!setup_once(i, &server, &log_path)) return 1;
  }
  const std::size_t server_width = ServerWidth(log_path);

  Counters before, after;
  double cpu_before = 0, cpu_after = 0;
  std::pair<double, double> host_before, host_after;
  bool counters_ok = true;
  WindowResult window = RunWindow(
      workload, server.port(), workload.warmup_s, args.seconds,
      [&] {
        counters_ok &= server.ReadCounters(&before);
        cpu_before = server.CpuMillis();
        host_before = HostCpuTicks();
      },
      [&] {
        counters_ok &= server.ReadCounters(&after);
        cpu_after = server.CpuMillis();
        host_after = HostCpuTicks();
      });
  const double rss_mb = server.PeakRssMb();
  server.Stop();
  if (!counters_ok) {
    std::cerr << "perfbench: GET /metrics failed\n";
    return 1;
  }
  for (int i = kSetupsBeforeWindow; i < kSetupRepeats; ++i) {
    ServerProcess extra;
    std::string extra_log;
    if (!setup_once(i, &extra, &extra_log)) return 1;
    extra.Stop();
  }
  const double setup_s = Percentile(setups, 50);
  std::cout << "server: intra-query parallelism " << server_width
            << " (server default); setup_s runs (" << kSetupsBeforeWindow
            << " before the window, " << kSetupRepeats - kSetupsBeforeWindow
            << " after):";
  for (double s : setups) std::cout << " " << Fmt(s);
  std::cout << "\n";

  const double host_ticks = host_after.second - host_before.second;
  std::cout << "host: CPU steal "
            << Fmt(host_ticks > 0
                       ? 100 * (host_after.first - host_before.first) / host_ticks
                       : 0)
            << "% of this machine's CPU time during the window\n";

  // Tally the window.
  std::size_t attempted = window.samples.size();
  std::size_t correct = 0, writes = 0, reordered = 0;
  std::size_t primary_ops = 0;  // Attempted operations of the primary class.
  std::vector<double> latencies;
  std::map<OpClass, std::vector<double>> by_class;
  std::map<std::string, std::pair<std::size_t, const Sample*>> failures;
  for (const Sample& s : window.samples) {
    const Op& op = workload.streams[s.conn][s.op];
    if (op.cls == OpClass::kWrite) ++writes;
    if (op.cls == workload.primary) ++primary_ops;
    if (s.verdict != Verdict::kCorrect) {
      auto& entry = failures[std::to_string(op.expected) + '\x1f' + s.status +
                             '\x1f' + s.received];
      if (entry.first++ == 0) entry.second = &s;
      continue;
    }
    ++correct;
    if (s.reordered) ++reordered;
    by_class[op.cls].push_back(s.latency_ms);
    if (op.cls == workload.primary) latencies.push_back(s.latency_ms);
  }
  const std::size_t failed = attempted - correct;
  const bool all_correct = failed == 0 && oracle.inconsistencies.empty();

  std::cout << "window: " << Fmt(window.elapsed_s) << " s, " << attempted
            << " operations attempted, " << correct << " correct, " << failed
            << " failed (failed_frac "
            << Fmt(attempted ? static_cast<double>(failed) / attempted : 0)
            << " = " << failed << "/" << attempted << "); " << reordered
            << " correct answer lists came in another row order than the "
               "oracle's\n";
  for (const auto& [cls, values] : by_class) {
    const std::size_t n = values.size();
    std::cout << "latency " << OpClassName(cls) << ": n=" << n
              << " p50=" << Fmt(Percentile(values, 50))
              << " ms p90=" << Fmt(Percentile(values, 90)) << " ms ("
              << n / 10 << " beyond) p95=" << Fmt(Percentile(values, 95))
              << " ms (" << n / 20 << " beyond) p99="
              << Fmt(Percentile(values, 99)) << " ms (" << n / 100
              << " beyond)\n";
  }
  {
    std::map<std::string, std::vector<double>> by_kind;
    for (const Sample& s : window.samples) {
      const Op& op = workload.streams[s.conn][s.op];
      if (s.verdict == Verdict::kCorrect) {
        by_kind[op.label + (op.shape.empty() ? "" : "." + op.shape)]
            .push_back(s.latency_ms);
      }
    }
    for (const auto& [kind, values] : by_kind) {
      std::cout << "latency " << kind << ": n=" << values.size()
                << " p50=" << Fmt(Percentile(values, 50)) << " ms\n";
    }
  }
  {
    // Throughput per quarter of the window, to show drift within a run.
    const double quarter_ms = args.seconds * 1000.0 / 4;
    std::vector<std::size_t> quarters(4, 0);
    for (const Sample& s : window.samples) {
      if (s.verdict != Verdict::kCorrect) continue;
      quarters[std::min<std::size_t>(3, static_cast<std::size_t>(
                                            s.done_ms / quarter_ms))]++;
    }
    std::cout << "throughput per quarter of the window (ops/s):";
    for (std::size_t q : quarters) std::cout << " " << Fmt(q / (quarter_ms / 1000));
    std::cout << "\n";
  }
  for (const std::string& line : oracle.inconsistencies) {
    std::cout << "ORACLE INCONSISTENT (Theorem 1 cross-check): " << line
              << "\n";
  }
  for (const auto& [key, entry] : failures) {
    const Sample& s = *entry.second;
    const Op& op = workload.streams[s.conn][s.op];
    const std::string& expected = workload.expected[op.expected];
    std::cout << "FAILED x" << entry.first << ": " << op.command
              << (op.args.empty() ? "" : " " + op.args) << " [session "
              << op.session << "] query: " << op.query << "\n  expected ("
              << expected.size() << " bytes): " << Flat(expected)
              << "\n  received (" << s.status << ", " << s.received.size()
              << " bytes): " << Flat(s.received) << "\n";
  }

  auto delta = [&](const std::string& name) -> std::uint64_t {
    return after[name] - before[name];
  };
  std::map<std::string, std::pair<double, std::string>> values;
  if (args.trace == 0) {
    values["setup_s"] = {setup_s, "median of " + std::to_string(kSetupRepeats)};
    values["throughput_ops"] = {
        static_cast<double>(latencies.size()) / window.elapsed_s,
        std::to_string(latencies.size()) + " correct " +
            OpClassName(workload.primary) + " requests; all classes " +
            Fmt(static_cast<double>(correct) / window.elapsed_s) + " ops/s"};
    values["p50_ms"] = {Percentile(latencies, 50),
                        std::string(OpClassName(workload.primary)) +
                            " requests, n=" +
                            std::to_string(latencies.size())};
    values["p90_ms"] = {Percentile(latencies, 90),
                        std::to_string(latencies.size() / 10) + " beyond"};
    values["ok_frac"] = {attempted ? static_cast<double>(correct) / attempted
                                   : 0.0,
                         std::to_string(correct) + "/" +
                             std::to_string(attempted)};
    const double cpu_ms = cpu_after - cpu_before;
    values["server_cpu_ms_per_op"] = {
        primary_ops ? cpu_ms / static_cast<double>(primary_ops) : 0.0,
        Fmt(cpu_ms) + " ms cpu over " + std::to_string(primary_ops) + " " +
            OpClassName(workload.primary) + " requests; " +
            Fmt(attempted ? cpu_ms / static_cast<double>(attempted) : 0.0) +
            " ms per operation of any class"};
    values["server_rss_mb"] = {rss_mb, "VmHWM"};
  } else {
    const double ops = static_cast<double>(std::max<std::size_t>(1, attempted));
    auto per_op = [&](std::uint64_t count) {
      return std::make_pair(static_cast<double>(count) / ops,
                            std::to_string(count) + "/" +
                                std::to_string(attempted) + " ops");
    };
    auto ratio = [](std::uint64_t num, std::uint64_t den) {
      return std::make_pair(
          den == 0 ? 0.0
                   : static_cast<double>(num) / static_cast<double>(den),
          std::to_string(num) + "/" + std::to_string(den));
    };
    values["svc.outbox_bytes_per_op"] =
        per_op(delta("svc.server.outbox_bytes_flushed"));
    values["svc.cache.hit_ratio"] =
        ratio(delta("svc.cache.hit"),
              delta("svc.cache.hit") + delta("svc.cache.miss"));
    values["svc.cache.invalidations_per_write"] =
        ratio(delta("svc.cache.invalidation"), writes);
    values["svc.wal.compactions"] = {
        static_cast<double>(delta("svc.wal.compactions")),
        "in window; " + std::to_string(delta("svc.wal.appends")) +
            " WAL appends"};
    values["svc.rejected_per_op"] = per_op(delta("svc.executor.rejected") +
                                           delta("svc.server.overloaded"));
    values["data.index.builds_per_op"] = per_op(delta("relation.index.builds"));
    values["data.index.probe_hit_ratio"] =
        ratio(delta("relation.index.probe_hits"),
              delta("relation.index.probe_hits") +
                  delta("relation.index.probe_misses"));
    values["data.stats.builds_per_op"] = per_op(delta("relation.stats.builds"));
    values["plan.cache.hit_ratio"] =
        ratio(delta("plan.cache_hit"),
              delta("plan.cache_hit") + delta("plan.cache_miss"));
    values["plan.compiles_per_op"] = per_op(delta("plan.compile"));
    values["plan.vm.steps_per_op"] = per_op(delta("plan.vm.steps"));
    values["core.valuations_per_op"] =
        per_op(delta("support.valuations_enumerated"));
    values["core.partitions_per_op"] =
        per_op(delta("support.partitions_enumerated"));
    values["core.witness_ratio"] =
        ratio(delta("support.witnesses_found"),
              delta("support.valuations_enumerated") +
                  delta("support.partition_maps_enumerated"));
    values["par.morsels_per_op"] = per_op(delta("par.morsels"));
    values["par.steal_ratio"] = ratio(delta("par.steals"), delta("par.morsels"));

    TracedInputs inputs;
    inputs.workload = &workload;
    inputs.workdir = workdir.string();
    inputs.server_width = server_width;
    inputs.replay_seconds = std::min(args.seconds, 8.0);
    inputs.window = &window;
    inputs.trace_path =
        (run_root / ("trace-" + args.workload + "-s" +
                     std::to_string(args.seed) + ".json"))
            .string();
    TracedResult traced = RunTraced(inputs);
    for (const LayerValue& v : traced.values) {
      values[v.name] = {v.value, v.detail};
    }
    std::cout << "traced run: " << traced.replayed
              << " requests replayed in-process at width " << server_width
              << ", " << traced.replay_mismatches
              << " payloads off the oracle; Chrome trace: "
              << inputs.trace_path << "\n";
    std::cout << "width check: " << traced.wide_checked
              << " distinct requests re-run in-process at width "
              << std::thread::hardware_concurrency() << ", "
              << traced.wide_mismatches.size() << " off the oracle\n";
    for (const std::string& line : traced.wide_mismatches) {
      std::cout << "  WIDE MISMATCH: " << Flat(line) << "\n";
    }
    for (const std::string& line : traced.table) {
      std::cout << "layer " << line << "\n";
    }
  }

  // Print every metric by name and unit, then the JSON line.
  std::ostringstream json;
  json << "{\"correct\": " << (all_correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec :
       args.trace == 0 ? std::vector<MetricSpec>(std::begin(kEndToEnd),
                                                 std::end(kEndToEnd))
                       : std::vector<MetricSpec>(std::begin(kPerLayer),
                                                 std::end(kPerLayer))) {
    auto it = values.find(spec.name);
    if (it == values.end()) {
      std::cerr << "perfbench: metric " << spec.name << " not computed\n";
      return 1;
    }
    std::cout << "metric " << spec.name << " " << Fmt(it->second.first) << " "
              << spec.unit << "   (" << it->second.second << ")\n";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second.first);
    json << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
         << value << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace zeroone

int main(int argc, char** argv) {
  zeroone::perfbench::Args args;
  if (!zeroone::perfbench::ParseArgs(argc, argv, &args)) return 2;
  return zeroone::perfbench::Run(args);
}
