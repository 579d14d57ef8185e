// zeroone_loadgen — closed-loop load generator for zeroone_server.
//
// Opens N connections, each on its own session. In the default (read) mode
// every connection first runs a preamble (a small incomplete database plus
// a query with joins over nulls), then issues a rotating mix of read
// commands (certain / possible / naive) back-to-back, measuring per-request
// latency and tallying wire statuses. With --mu-heavy the preamble loads a
// null-rich database instead and the rotation leads with uncached `muk`
// requests — the heaviest analytical command the wire carries, evaluated on
// the server's morsel pool — so chaos runs exercise long parallel
// evaluations across kill windows, not just cheap reads. With --mutate
// each iteration instead
// inserts a unique tuple and persists it with `save`; a tuple is recorded
// in --ack-log only once it is durably acknowledged (save returned OK with
// no reconnect since the insert — see docs/robustness.md). --verify=FILE
// replays an ack-log against a (restarted) server and fails unless every
// acknowledged tuple is still visible.
//
// Failover verification: --phase=NAME stamps every ack-log line with a
// phase label (e.g. prekill3, postfailover), and --standby-port=N gives
// --verify a second endpoint — a tuple missing from the primary is
// re-checked against the standby, so a promoted follower that absorbed the
// acked writes still counts. The verify summary breaks results down per
// phase and reports how many tuples each endpoint served.
//
// Sharded serving (docs/serving.md, "Scaling out"): --endpoints=H:P,H:P,...
// names the backend pool behind a zeroone_router. Loadgen recomputes the
// router's consistent-hash placement with the same HashRing (the ordered
// endpoint list is the ring contract) and, after the run, asks each
// session's predicted backend directly whether it holds the session's
// state — the deterministic-placement assertion scripts/shard_serving.sh
// checks. The JSON summary gains a per-endpoint section (predicted
// sessions, placement checks). In --verify mode the endpoint list widens
// the search instead: an acknowledged tuple counts as visible if ANY
// endpoint serves it, so acked writes survive verification even after a
// backend death rehashed its sessions elsewhere.
//
// All traffic goes through svc::RetryingClient: transient failures
// (transport errors, OVERLOADED, UNAVAILABLE, SHUTTING_DOWN) are retried
// with jittered exponential backoff, and the summary reports how hard the
// retry machinery had to work. At the end it prints a human summary to
// stderr and a single JSON line to stdout (consumed by
// scripts/smoke_serving.sh and scripts/chaos_serving.sh).
//
// Flags:
//   --host=ADDR          server address (default 127.0.0.1)
//   --port=N             server port (required)
//   --connections=N      concurrent connections/threads (default 2)
//   --requests=N         iterations per connection after preamble (default 50)
//   --seconds=N          optional wall-clock cap; stop early when exceeded
//   --deadline-ms=N      attach @deadline_ms=N to every read request
//   --nocache            attach @nocache to every read request
//   --mu-heavy           analytical read mix: null-rich preamble, rotation
//                        led by uncached muk (µ^k) requests
//   --mutate             insert-and-save mode (see above)
//   --ack-log=FILE       append "session token [phase]" per acknowledged
//                        mutation
//   --phase=NAME         label this run's ack-log lines (default: none)
//   --verify=FILE        check every tuple in FILE is visible, then exit
//   --standby-port=N     verify fallback endpoint (same --host); a tuple
//                        counts if the primary OR the standby serves it
//   --endpoints=H:P,...  ordered backend list behind the router; enables
//                        per-endpoint tallies + placement checks (load
//                        mode) and any-endpoint search (--verify mode)
//   --ring-replicas=N    vnodes per backend for placement prediction; must
//                        match the router's --ring-replicas (default 64)
//   --retry-attempts=N   attempts per request incl. the first (default 5)
//   --retry-backoff-ms=N initial backoff; doubles, capped at 1000 (default 10)
//   --seed=N             base seed for retry jitter (default 1)
//   --faults=SPEC        install a client-side fault plan (ZEROONE_FAULT=ON
//                        builds only), e.g. seed=7,svc.client.send.fail=0.01
//   --help               usage
//
// Exit status 0 iff no request exhausted its retries (OVERLOADED /
// DEADLINE_EXCEEDED answers are the server working as designed) and at
// least one request returned OK; in --verify mode, iff every acknowledged
// tuple is visible.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/net.h"
#include "fault/fault.h"
#include "svc/client.h"
#include "svc/protocol.h"
#include "svc/router.h"

namespace {

using zeroone::HostPort;
using zeroone::Status;
using zeroone::StatusOr;
using zeroone::svc::ClientOptions;
using zeroone::svc::Request;
using zeroone::svc::Response;
using zeroone::svc::RetryingClient;
using zeroone::svc::RetryPolicy;
using zeroone::svc::WireStatus;

constexpr const char* kDatabase =
    "R(2) = { (a, _1), (b, _1), (b, _2), (c, _3), (d, _4) } "
    "S(1) = { (a), (b), (_2) }";
constexpr const char* kQuery = "Q(x) := exists y . R(x, y) & S(x)";

// --mu-heavy: five nulls make `muk 16` evaluate the Theorem 3 polynomial
// over 10 427 (ρ, σ) points per request (16^5 valuations would be over a
// million) — tens of milliseconds of evaluation on the server's morsel
// pool, heavy enough to straddle a chaos kill window but bounded for CI.
constexpr const char* kMuHeavyDatabase =
    "R(2) = { (c1, _1), (c2, _2), (c3, _3), (c4, _4), (c5, _5) }";
constexpr const char* kMuHeavyQuery = "Q(x) := exists y . R(x, y)";
constexpr const char* kMuHeavyArgs = "16 (c1)";

const char* const kReadCommands[] = {"certain", "possible", "naive", "certain"};
const char* const kMuHeavyCommands[] = {"muk", "certain", "muk", "naive"};

struct WorkerResult {
  std::vector<double> latencies_ms;
  std::uint64_t ok = 0;
  std::uint64_t err = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t shutting_down = 0;
  std::uint64_t other = 0;
  std::uint64_t transport_failures = 0;  // Requests that exhausted retries.
  // Retry effort (aggregated from RetryingClient::Stats).
  std::uint64_t retried_requests = 0;  // Requests needing >1 attempt.
  std::uint64_t total_retries = 0;
  std::uint64_t max_retries = 0;  // Worst single request.
  std::uint64_t backoff_ms = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t acked = 0;  // --mutate: durably acknowledged tuples.
};

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  std::size_t connections = 2;
  std::size_t requests = 50;
  std::uint64_t seconds = 0;
  std::uint64_t deadline_ms = 0;
  bool no_cache = false;
  bool mu_heavy = false;
  bool mutate = false;
  std::string ack_log;
  std::string phase;  // Optional third ack-log field; tallied by --verify.
  std::string verify_file;
  int standby_port = 0;  // --verify fallback endpoint; 0 = none.
  // --endpoints: the backend pool behind a router (order = ring contract).
  std::vector<HostPort> endpoints;
  std::size_t ring_replicas = 64;  // Must match the router's.
  int retry_attempts = 5;
  std::uint64_t retry_backoff_ms = 10;
  std::uint64_t seed = 1;
};

// Serializes ack-log appends across workers; each line is flushed so a
// SIGKILLed *loadgen* also leaves only fully-acknowledged lines behind.
class AckLog {
 public:
  explicit AckLog(const std::string& path) : out_(path, std::ios::app) {}
  bool ok() const { return out_.good(); }
  void Append(const std::string& session, const std::string& token,
              const std::string& phase) {
    std::lock_guard<std::mutex> lock(mutex_);
    out_ << session << ' ' << token;
    if (!phase.empty()) out_ << ' ' << phase;
    out_ << '\n';
    out_.flush();
  }

 private:
  std::mutex mutex_;
  std::ofstream out_;
};

void PrintUsage(std::ostream& os) {
  os << "usage: zeroone_loadgen --port=N [--host=ADDR] [--connections=N]\n"
        "                       [--requests=N] [--seconds=N] "
        "[--deadline-ms=N] [--nocache]\n"
        "                       [--mu-heavy] [--mutate] [--ack-log=FILE] "
        "[--phase=NAME]\n"
        "                       [--verify=FILE] [--standby-port=N]\n"
        "                       [--endpoints=HOST:PORT,...] "
        "[--ring-replicas=N]\n"
        "                       [--retry-attempts=N] [--retry-backoff-ms=N] "
        "[--seed=N]\n"
        "                       [--faults=SPEC]\n";
}

bool ParseUintFlag(const std::string& arg, const std::string& prefix,
                   std::uint64_t* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  const std::string value = arg.substr(prefix.size());
  if (value.empty()) return false;
  std::uint64_t parsed = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return false;
    parsed = parsed * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = parsed;
  return true;
}

void Tally(WireStatus status, WorkerResult* result) {
  switch (status) {
    case WireStatus::kOk:
      ++result->ok;
      break;
    case WireStatus::kErr:
    case WireStatus::kBadRequest:
      ++result->err;
      break;
    case WireStatus::kOverloaded:
      ++result->overloaded;
      break;
    case WireStatus::kDeadlineExceeded:
      ++result->deadline_exceeded;
      break;
    case WireStatus::kUnavailable:
      ++result->unavailable;
      break;
    case WireStatus::kShuttingDown:
      ++result->shutting_down;
      break;
    default:
      ++result->other;
      break;
  }
}

RetryingClient MakeClient(const LoadgenOptions& options, std::size_t index) {
  RetryPolicy policy;
  policy.max_attempts = options.retry_attempts;
  policy.initial_backoff_ms = options.retry_backoff_ms;
  policy.seed = options.seed + index * 7919;  // Distinct jitter per worker.
  return RetryingClient(options.host, options.port, policy, ClientOptions());
}

// One retried call; updates per-request retry accounting and the tally.
// Returns the response when one arrived (transient or not); counts a
// transport failure when retries were exhausted without any response.
StatusOr<Response> TrackedCall(RetryingClient* client, const Request& request,
                               WorkerResult* result) {
  const RetryingClient::Stats before = client->stats();
  StatusOr<Response> response = client->CallWithRetry(request);
  const RetryingClient::Stats after = client->stats();
  std::uint64_t attempts = after.attempts - before.attempts;
  if (attempts > 1) {
    ++result->retried_requests;
    result->total_retries += attempts - 1;
    result->max_retries = std::max(result->max_retries, attempts - 1);
  }
  result->backoff_ms += after.backoff_ms - before.backoff_ms;
  result->reconnects += after.reconnects - before.reconnects;
  if (!response.ok()) {
    ++result->transport_failures;
  } else {
    Tally(response->status, result);
  }
  return response;
}

void RunReadWorker(const LoadgenOptions& options, std::size_t index,
                   std::chrono::steady_clock::time_point stop_at,
                   WorkerResult* result) {
  RetryingClient client = MakeClient(options, index);
  const std::string session = "loadgen" + std::to_string(index);
  std::uint64_t next_id = 1;
  auto make_request = [&](const std::string& command, const std::string& args,
                          bool read) {
    Request request;
    request.id = std::to_string(next_id++);
    request.session = session;
    request.command = command;
    request.args = args;
    if (read) {
      request.deadline_ms = options.deadline_ms;
      request.no_cache = options.no_cache;
    }
    return request;
  };

  StatusOr<Response> db_response = TrackedCall(
      &client,
      make_request("db", options.mu_heavy ? kMuHeavyDatabase : kDatabase,
                   false),
      result);
  StatusOr<Response> query_response = TrackedCall(
      &client,
      make_request("query", options.mu_heavy ? kMuHeavyQuery : kQuery, false),
      result);
  if (!db_response.ok() || !query_response.ok()) return;

  for (std::size_t i = 0; i < options.requests; ++i) {
    if (std::chrono::steady_clock::now() >= stop_at) break;
    const char* command =
        options.mu_heavy
            ? kMuHeavyCommands[i % (sizeof(kMuHeavyCommands) /
                                    sizeof(kMuHeavyCommands[0]))]
            : kReadCommands[i % (sizeof(kReadCommands) /
                                 sizeof(kReadCommands[0]))];
    const bool is_muk = std::string(command) == "muk";
    auto start = std::chrono::steady_clock::now();
    StatusOr<Response> response = TrackedCall(
        &client, make_request(command, is_muk ? kMuHeavyArgs : "", true),
        result);
    auto elapsed = std::chrono::steady_clock::now() - start;
    if (!response.ok()) return;  // Retries exhausted: server unreachable.
    result->latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(elapsed).count());
  }
}

// --mutate: each iteration inserts one unique tuple into M(1) and persists
// it with `save`. The tuple is *acknowledged* (written to the ack-log) only
// when save returned OK and no reconnect happened between the insert and
// the save — after a reconnect the server may have restarted from a
// snapshot that predates the insert, so the pair is redone (Relation::
// Insert is idempotent, making the redo safe).
void RunMutateWorker(const LoadgenOptions& options, std::size_t index,
                     std::chrono::steady_clock::time_point stop_at,
                     AckLog* ack_log, WorkerResult* result) {
  RetryingClient client = MakeClient(options, index);
  const std::string session = "chaos" + std::to_string(index);
  std::uint64_t next_id = 1;
  auto make_request = [&](const std::string& command,
                          const std::string& args) {
    Request request;
    request.id = std::to_string(next_id++);
    request.session = session;
    request.command = command;
    request.args = args;
    return request;
  };

  for (std::size_t i = 0; i < options.requests; ++i) {
    if (std::chrono::steady_clock::now() >= stop_at) break;
    // The phase prefix keeps tokens from different run phases distinct, so
    // a multi-phase ack log tallies each phase's writes separately.
    const std::string token =
        (options.phase.empty() ? "m" : options.phase + "_m") +
        std::to_string(index) + "_" + std::to_string(i);
    const std::string args = "M(1) = { (" + token + ") }";
    auto start = std::chrono::steady_clock::now();
    bool acked = false;
    // Insert+save as a unit: redo both while the durability of the insert
    // is in doubt. The bound only guards against a server that never comes
    // back — each redo is cheap and idempotent.
    for (int round = 0; round < 64 && !acked; ++round) {
      StatusOr<Response> inserted =
          TrackedCall(&client, make_request("db", args), result);
      if (!inserted.ok()) return;  // Retries exhausted.
      if (inserted->status != WireStatus::kOk) {
        if (!zeroone::svc::IsTransientWireStatus(inserted->status)) return;
        continue;  // Gave up on a transient status; redo the pair.
      }
      const std::uint64_t reconnects_before = client.stats().reconnects;
      StatusOr<Response> saved =
          TrackedCall(&client, make_request("save", ""), result);
      if (!saved.ok()) return;
      if (saved->status != WireStatus::kOk) {
        if (!zeroone::svc::IsTransientWireStatus(saved->status)) return;
        continue;
      }
      if (client.stats().reconnects != reconnects_before) {
        // The save landed on a fresh connection — possibly a restarted
        // server that never saw the insert. Not durable; redo.
        continue;
      }
      acked = true;
    }
    auto elapsed = std::chrono::steady_clock::now() - start;
    if (!acked) return;
    ++result->acked;
    if (ack_log != nullptr) ack_log->Append(session, token, options.phase);
    result->latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(elapsed).count());
  }
}

// --verify: every acknowledged tuple in the log must be visible via `show`
// on its session — on the primary, or (with --standby-port) on the standby
// endpoint, so acked writes absorbed by a promoted follower still count.
// Ack-log lines are "session token" or "session token phase"; tallies are
// kept per phase so a failover run can show that pre-kill and
// post-failover writes both survived. Returns the number of missing
// tuples.
std::uint64_t RunVerify(const LoadgenOptions& options) {
  std::ifstream in(options.verify_file);
  if (!in) {
    std::cerr << "cannot read ack log '" << options.verify_file << "'\n";
    return 1;
  }
  // session -> token -> phase ("" when the line had no phase field).
  std::map<std::string, std::map<std::string, std::string>> acked_by_session;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string session, token, phase;
    if (!(fields >> session >> token)) continue;  // Blank/partial line.
    fields >> phase;                              // Optional third field.
    acked_by_session[session][token] = phase;
  }

  // The search order: --endpoints (a sharded pool — any backend may hold a
  // rehashed session) wins; otherwise the primary --port plus the optional
  // --standby-port, preserving the failover-verify contract.
  std::vector<HostPort> targets;
  if (!options.endpoints.empty()) {
    targets = options.endpoints;
  } else {
    targets.push_back(HostPort{options.host, options.port});
    if (options.standby_port != 0) {
      targets.push_back(HostPort{options.host, options.standby_port});
    }
  }
  std::vector<std::unique_ptr<RetryingClient>> clients;
  clients.reserve(targets.size());
  for (std::size_t e = 0; e < targets.size(); ++e) {
    LoadgenOptions endpoint_options = options;
    endpoint_options.host = targets[e].host;
    endpoint_options.port = targets[e].port;
    clients.push_back(
        std::make_unique<RetryingClient>(MakeClient(endpoint_options, e)));
  }

  struct PhaseTally {
    std::uint64_t verified = 0;
    std::uint64_t missing = 0;
  };
  std::map<std::string, PhaseTally> by_phase;
  std::uint64_t verified = 0;
  std::uint64_t missing = 0;
  // endpoint_hits[e]: tuples first served by targets[e] (earlier endpoints
  // are asked first, so a tuple on several backends counts once).
  std::vector<std::uint64_t> endpoint_hits(targets.size(), 0);
  std::uint64_t id = 1;

  // One `show` per session per endpoint, fetched lazily: endpoint e is
  // asked only when endpoints 0..e-1 are missing some tuple.
  auto fetch = [&id](RetryingClient* client, const std::string& name,
                     std::string* payload) {
    Request request;
    request.id = std::to_string(id++);
    request.session = name;
    request.command = "show";
    StatusOr<Response> response = client->CallWithRetry(request);
    if (!response.ok() || response->status != WireStatus::kOk) return false;
    *payload = response->payload;
    return true;
  };

  for (const auto& [name, tokens] : acked_by_session) {
    std::vector<int> fetched(targets.size(), 0);  // 0 new, 1 ok, -1 failed.
    std::vector<std::string> payloads(targets.size());
    bool any_reachable = false;
    for (const auto& [t, phase] : tokens) {
      // Tuple constants render as "(token)"; substring match on the
      // parenthesized form avoids false hits on token prefixes.
      const std::string needle = "(" + t + ")";
      bool found = false;
      for (std::size_t e = 0; e < targets.size() && !found; ++e) {
        if (fetched[e] == 0) {
          fetched[e] = fetch(clients[e].get(), name, &payloads[e]) ? 1 : -1;
        }
        if (fetched[e] != 1) continue;
        any_reachable = true;
        if (payloads[e].find(needle) != std::string::npos) {
          found = true;
          ++endpoint_hits[e];
        }
      }
      if (found) {
        ++verified;
        ++by_phase[phase].verified;
      } else {
        if (!any_reachable) {
          std::cerr << "verify: cannot read session '" << name
                    << "' on any endpoint\n";
        }
        ++missing;
        ++by_phase[phase].missing;
        std::cerr << "verify: session '" << name << "' lost acknowledged "
                  << "tuple '" << t << "'";
        if (!phase.empty()) std::cerr << " (phase " << phase << ")";
        std::cerr << "\n";
      }
    }
  }

  std::cerr << "verify: " << verified << " acknowledged tuples visible, "
            << missing << " missing";
  if (targets.size() > 1) {
    std::cerr << " (";
    for (std::size_t e = 0; e < targets.size(); ++e) {
      if (e > 0) std::cerr << ", ";
      std::cerr << endpoint_hits[e] << " on "
                << zeroone::FormatHostPort(targets[e]);
    }
    std::cerr << ")";
  }
  std::cerr << "\n";
  for (const auto& [phase, tally] : by_phase) {
    if (phase.empty() && by_phase.size() == 1) break;  // Unphased log.
    std::cerr << "verify: phase " << (phase.empty() ? "(none)" : phase)
              << ": " << tally.verified << " visible, " << tally.missing
              << " missing\n";
  }

  // Legacy fields: the first endpoint is "primary"; everything an earlier
  // endpoint missed but a later one served is a "standby" hit.
  std::uint64_t standby_hits = 0;
  for (std::size_t e = 1; e < targets.size(); ++e) {
    standby_hits += endpoint_hits[e];
  }
  std::cout << "{\"verified\": " << verified << ", \"missing\": " << missing
            << ", \"primary_hits\": " << endpoint_hits[0]
            << ", \"standby_hits\": " << standby_hits
            << ", \"endpoint_hits\": {";
  for (std::size_t e = 0; e < targets.size(); ++e) {
    if (e > 0) std::cout << ", ";
    std::cout << "\"" << zeroone::FormatHostPort(targets[e])
              << "\": " << endpoint_hits[e];
  }
  std::cout << "}, \"phases\": {";
  bool first = true;
  for (const auto& [phase, tally] : by_phase) {
    if (!first) std::cout << ", ";
    first = false;
    std::cout << "\"" << (phase.empty() ? "unphased" : phase)
              << "\": {\"verified\": " << tally.verified
              << ", \"missing\": " << tally.missing << "}";
  }
  std::cout << "}}" << std::endl;
  return missing;
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  std::size_t index = static_cast<std::size_t>(
      p * static_cast<double>(sorted->size() - 1));
  return (*sorted)[index];
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions options;
  std::string faults_spec;
  bool have_faults_flag = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::uint64_t value = 0;
    if (arg == "--help") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg.rfind("--host=", 0) == 0) {
      options.host = arg.substr(7);
    } else if (ParseUintFlag(arg, "--port=", &value)) {
      options.port = static_cast<int>(value);
    } else if (ParseUintFlag(arg, "--connections=", &value)) {
      options.connections = static_cast<std::size_t>(value);
    } else if (ParseUintFlag(arg, "--requests=", &value)) {
      options.requests = static_cast<std::size_t>(value);
    } else if (ParseUintFlag(arg, "--seconds=", &value)) {
      options.seconds = value;
    } else if (ParseUintFlag(arg, "--deadline-ms=", &value)) {
      options.deadline_ms = value;
    } else if (arg == "--nocache") {
      options.no_cache = true;
    } else if (arg == "--mu-heavy") {
      options.mu_heavy = true;
    } else if (arg == "--mutate") {
      options.mutate = true;
    } else if (arg.rfind("--ack-log=", 0) == 0) {
      options.ack_log = arg.substr(10);
    } else if (arg.rfind("--phase=", 0) == 0) {
      options.phase = arg.substr(8);
    } else if (arg.rfind("--verify=", 0) == 0) {
      options.verify_file = arg.substr(9);
    } else if (ParseUintFlag(arg, "--standby-port=", &value)) {
      options.standby_port = static_cast<int>(value);
    } else if (arg.rfind("--endpoints=", 0) == 0) {
      StatusOr<std::vector<HostPort>> endpoints =
          zeroone::ParseEndpointList(arg.substr(12));
      if (!endpoints.ok()) {
        std::cerr << "bad --endpoints list: " << endpoints.status().message()
                  << "\n";
        PrintUsage(std::cerr);
        return 1;
      }
      options.endpoints = std::move(*endpoints);
    } else if (ParseUintFlag(arg, "--ring-replicas=", &value)) {
      options.ring_replicas = static_cast<std::size_t>(value);
    } else if (ParseUintFlag(arg, "--retry-attempts=", &value)) {
      options.retry_attempts = static_cast<int>(value);
    } else if (ParseUintFlag(arg, "--retry-backoff-ms=", &value)) {
      options.retry_backoff_ms = value;
    } else if (ParseUintFlag(arg, "--seed=", &value)) {
      options.seed = value;
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults_spec = arg.substr(9);
      have_faults_flag = true;
    } else {
      std::cerr << "unknown flag '" << arg << "'\n";
      PrintUsage(std::cerr);
      return 1;
    }
  }
  if (options.port == 0) {
    std::cerr << "missing required --port=N\n";
    PrintUsage(std::cerr);
    return 1;
  }
  if (options.connections == 0) options.connections = 1;
  for (char c : options.phase) {
    // The phase is embedded in mutate tokens, which must stay valid tuple
    // constants; letters, digits, and underscores only.
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      std::cerr << "--phase must be alphanumeric (plus '_')\n";
      return 1;
    }
  }

#if ZEROONE_FAULT_ENABLED
  {
    Status configured =
        have_faults_flag
            ? zeroone::fault::Registry::Global().Configure(faults_spec)
            : zeroone::fault::Registry::Global().ConfigureFromEnv();
    if (!configured.ok()) {
      std::cerr << "error: bad fault spec: " << configured.message() << "\n";
      return 1;
    }
  }
#else
  if (have_faults_flag) {
    std::cerr << "error: --faults requires a build with ZEROONE_FAULT=ON\n";
    return 1;
  }
#endif

  if (!options.verify_file.empty()) {
    return RunVerify(options) == 0 ? 0 : 1;
  }

  std::unique_ptr<AckLog> ack_log;
  if (!options.ack_log.empty()) {
    ack_log = std::make_unique<AckLog>(options.ack_log);
    if (!ack_log->ok()) {
      std::cerr << "cannot open ack log '" << options.ack_log << "'\n";
      return 1;
    }
  }

  auto start = std::chrono::steady_clock::now();
  auto stop_at = options.seconds == 0
                     ? std::chrono::steady_clock::time_point::max()
                     : start + std::chrono::seconds(options.seconds);

  std::vector<WorkerResult> results(options.connections);
  std::vector<std::thread> workers;
  workers.reserve(options.connections);
  for (std::size_t i = 0; i < options.connections; ++i) {
    if (options.mutate) {
      workers.emplace_back(RunMutateWorker, std::cref(options), i, stop_at,
                           ack_log.get(), &results[i]);
    } else {
      workers.emplace_back(RunReadWorker, std::cref(options), i, stop_at,
                           &results[i]);
    }
  }
  for (std::thread& worker : workers) worker.join();
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

  WorkerResult total;
  for (const WorkerResult& r : results) {
    total.ok += r.ok;
    total.err += r.err;
    total.overloaded += r.overloaded;
    total.deadline_exceeded += r.deadline_exceeded;
    total.unavailable += r.unavailable;
    total.shutting_down += r.shutting_down;
    total.other += r.other;
    total.transport_failures += r.transport_failures;
    total.retried_requests += r.retried_requests;
    total.total_retries += r.total_retries;
    total.max_retries = std::max(total.max_retries, r.max_retries);
    total.backoff_ms += r.backoff_ms;
    total.reconnects += r.reconnects;
    total.acked += r.acked;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              r.latencies_ms.begin(), r.latencies_ms.end());
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  double p50 = Percentile(&total.latencies_ms, 0.50);
  double p95 = Percentile(&total.latencies_ms, 0.95);
  double p99 = Percentile(&total.latencies_ms, 0.99);
  std::uint64_t answered = static_cast<std::uint64_t>(
      total.latencies_ms.size());

  // --endpoints: recompute the router's ring (same ordered backend list,
  // same replica count) and check shard placement — every session that
  // observed state must actually live on its predicted backend. A chaos
  // run that killed a backend may legitimately miss (read-session state is
  // not snapshotted), so this reports rather than fails; the no-kill smoke
  // asserts matches == checked.
  std::uint64_t placement_checked = 0;
  std::uint64_t placement_matches = 0;
  std::vector<std::uint64_t> placement_sessions;
  if (!options.endpoints.empty()) {
    zeroone::svc::HashRing ring(options.endpoints.size(),
                                options.ring_replicas);
    placement_sessions.assign(options.endpoints.size(), 0);
    // Read workers preamble a db into R; mutate workers insert into M.
    // `show` renders relations as "NAME = {(...)}", so a populated
    // relation of the right name proves the session's state is here.
    const std::string needle = options.mutate ? "M = {" : "R = {";
    std::uint64_t placement_id = 1;
    for (std::size_t i = 0; i < options.connections; ++i) {
      const std::string session =
          (options.mutate ? "chaos" : "loadgen") + std::to_string(i);
      const std::size_t owner = ring.Owner(session);
      ++placement_sessions[owner];
      const bool has_state =
          options.mutate ? results[i].acked > 0 : results[i].ok > 0;
      if (!has_state) continue;
      ++placement_checked;
      LoadgenOptions endpoint_options = options;
      endpoint_options.host = options.endpoints[owner].host;
      endpoint_options.port = options.endpoints[owner].port;
      RetryingClient direct = MakeClient(endpoint_options, i);
      Request request;
      request.id = "placement" + std::to_string(placement_id++);
      request.session = session;
      request.command = "show";
      StatusOr<Response> response = direct.CallWithRetry(request);
      if (response.ok() && response->status == WireStatus::kOk &&
          response->payload.find(needle) != std::string::npos) {
        ++placement_matches;
      } else {
        std::cerr << "loadgen: placement: session '" << session
                  << "' not found on predicted shard "
                  << zeroone::FormatHostPort(options.endpoints[owner])
                  << "\n";
      }
    }
  }

  std::cerr << "loadgen: " << answered << " "
            << (options.mutate ? "acknowledged" : "answered") << " in "
            << wall_s << "s (" << total.ok << " OK, " << total.err << " ERR, "
            << total.overloaded << " OVERLOADED, " << total.deadline_exceeded
            << " DEADLINE_EXCEEDED, " << total.unavailable << " UNAVAILABLE, "
            << total.shutting_down << " SHUTTING_DOWN, "
            << total.transport_failures << " gave up)\n"
            << "loadgen: retries: " << total.retried_requests
            << " requests retried (" << total.total_retries
            << " total, max " << total.max_retries << " per request), "
            << total.backoff_ms << "ms in backoff, " << total.reconnects
            << " reconnects\n"
            << "loadgen: latency ms p50=" << p50 << " p95=" << p95
            << " p99=" << p99 << "\n";
  if (!options.endpoints.empty()) {
    std::cerr << "loadgen: placement: " << placement_matches << "/"
              << placement_checked
              << " sessions with state on their predicted shard (";
    for (std::size_t e = 0; e < options.endpoints.size(); ++e) {
      if (e > 0) std::cerr << ", ";
      std::cerr << zeroone::FormatHostPort(options.endpoints[e]) << "="
                << placement_sessions[e];
    }
    std::cerr << " predicted)\n";
  }

  std::cout << "{\"answered\": " << answered << ", \"ok\": " << total.ok
            << ", \"err\": " << total.err
            << ", \"overloaded\": " << total.overloaded
            << ", \"deadline_exceeded\": " << total.deadline_exceeded
            << ", \"unavailable\": " << total.unavailable
            << ", \"shutting_down\": " << total.shutting_down
            << ", \"transport_failures\": " << total.transport_failures
            << ", \"retried_requests\": " << total.retried_requests
            << ", \"total_retries\": " << total.total_retries
            << ", \"max_retries\": " << total.max_retries
            << ", \"backoff_ms_total\": " << total.backoff_ms
            << ", \"reconnects\": " << total.reconnects
            << ", \"acked\": " << total.acked
            << ", \"wall_seconds\": " << wall_s
            << ", \"latency_ms\": {\"p50\": " << p50 << ", \"p95\": " << p95
            << ", \"p99\": " << p99 << "}";
  if (!options.endpoints.empty()) {
    std::cout << ", \"placement\": {\"checked\": " << placement_checked
              << ", \"matches\": " << placement_matches
              << ", \"predicted_sessions\": {";
    for (std::size_t e = 0; e < options.endpoints.size(); ++e) {
      if (e > 0) std::cout << ", ";
      std::cout << "\"" << zeroone::FormatHostPort(options.endpoints[e])
                << "\": " << placement_sessions[e];
    }
    std::cout << "}}";
  }
  std::cout << "}" << std::endl;

  return (total.transport_failures == 0 && total.ok > 0) ? 0 : 1;
}
