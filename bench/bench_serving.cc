// Experiment: the zeroone::svc serving subsystem.
//
// Claims checked (ISSUE acceptance criteria for the serving layer):
//   1. A cache hit answers a repeated query ≥10x faster than the cold
//      evaluation.
//   2. Under a burst that exceeds the bounded queue, the server answers
//      every request and rejects the overflow with explicit OVERLOADED —
//      no hang, no silent drop.
//   3. A request with an expired deadline returns DEADLINE_EXCEEDED well
//      before the full evaluation time.
//   4. Degraded mode (ZEROONE_FAULT=ON builds): with 1% injected socket
//      faults on both sides of the wire, a RetryingClient still completes
//      100% of requests and p99 latency stays within 5x of fault-free.
//   5. Durability (write-ahead log): --ack-mode=fsync costs at most 20x
//      the async p50 per acknowledged mutation, and recovery from a
//      compacted log (snapshot + short tail) is >=10x faster than a full
//      log replay of the same history.
//   6. µ-heavy analytics: a 4-worker morsel team serves the byte-identical
//      mu^k payload of a serial server, and a deadline cancels a parallel
//      µ^k evaluation mid-run with the session intact.
//   7. Scale-out (consistent-hash router): forwarding a read-hot workload
//      through zeroone::svc::Router costs at most 1.5x the direct-backend
//      p50, and on a CPU-bound µ-heavy mix three backends deliver >=1.8x
//      the aggregate throughput of one (gated on >=4 hardware threads —
//      below that the backends share cores and scaling is noise).
//
// The server runs in-process on a loopback socket, so the measured
// latencies include the full wire round-trip (what a client observes).
// Micro-benchmarks for the protocol parser and LRU cache ride along.

#include <benchmark/benchmark.h>

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/net.h"
#include "fault/fault.h"
#include "svc/cache.h"
#include "svc/client.h"
#include "svc/dispatch.h"
#include "svc/protocol.h"
#include "svc/router.h"
#include "svc/server.h"

using namespace zeroone;
using namespace zeroone::svc;

namespace {

// A few ms of enumerator `certain` (4 nulls) — big enough that a cache
// hit (microseconds) is unambiguously faster, small enough for CI.
constexpr const char* kColdDb =
    "R(2) = { (c1, _1), (c2, _2), (c3, _3), (c4, _4) }";
// Six nulls for the deadline scenarios: enumerator `certain` and `muk 16`
// both walk 163 967 (ρ, σ) orbit points, ~1s and ~0.4s serial (the
// bounded range has 12^6 ≈ 3.0M points, and 16^6 valuations would be
// 16.8M).
constexpr const char* kSlowDb =
    "R(2) = { (c1, _1), (c2, _2), (c3, _3), (c4, _4), (c5, _5), (c6, _6) }";
// Five nulls for the router-scaling mix: `muk 16` evaluates 10 427 points,
// ~40ms serial.
constexpr const char* kRouterDb =
    "R(2) = { (c1, _1), (c2, _2), (c3, _3), (c4, _4), (c5, _5) }";
constexpr const char* kQuery = "Q(x) := exists y . R(x, y)";
// kQuery behind a double negation: the same answers, but outside Pos∀G and
// the UCQs, so `certain` runs the exponential enumerator instead of naïve
// evaluation (core/exact_plan.h) — the slow work the deadline scenario
// needs.
constexpr const char* kEnumeratorQuery = "Q(x) := !(!(exists y . R(x, y)))";

Request MakeRequest(const std::string& command, const std::string& args = "",
                    const std::string& session = "default") {
  Request request;
  request.command = command;
  request.args = args;
  request.session = session;
  return request;
}

double CallMs(BlockingClient& client, const Request& request,
              WireStatus* status = nullptr) {
  auto start = std::chrono::steady_clock::now();
  StatusOr<Response> response = client.Call(request);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  if (status != nullptr) {
    *status = response.ok() ? response->status : WireStatus::kErr;
  }
  return ms;
}

void ReportCacheSpeedup(bench::Experiment* experiment, Server* server) {
  BlockingClient client;
  client.Connect("127.0.0.1", server->port());
  client.Call(MakeRequest("db", kColdDb, "cachebench"));
  // kQuery's `certain` is answered naïvely (Corollary 3) in well under a
  // millisecond; the enumerator query keeps the cold request cold.
  client.Call(MakeRequest("query", kEnumeratorQuery, "cachebench"));

  double cold_ms = CallMs(client, MakeRequest("certain", "", "cachebench"));
  // Median of repeated warm calls, to be robust against scheduler noise.
  std::vector<double> warm;
  for (int i = 0; i < 9; ++i) {
    warm.push_back(CallMs(client, MakeRequest("certain", "", "cachebench")));
  }
  std::sort(warm.begin(), warm.end());
  double warm_ms = warm[warm.size() / 2];
  double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
  std::printf("cache: cold %.2fms, warm (median of %zu) %.3fms — %.0fx\n",
              cold_ms, warm.size(), warm_ms, speedup);
  experiment->Claim(speedup >= 10.0,
                    "cache hit is >=10x faster than cold evaluation");
}

void ReportOverload(bench::Experiment* experiment, Server* server) {
  BlockingClient setup;
  setup.Connect("127.0.0.1", server->port());
  setup.Call(MakeRequest("db", kSlowDb, "loadbench"));
  setup.Call(MakeRequest("query", kQuery, "loadbench"));

  // Pipeline a burst of slow uncacheable requests; with one worker and a
  // one-slot queue most of the burst must be rejected, and every request
  // must still get an answer.
  constexpr int kBurst = 6;
  BlockingClient client;
  client.Connect("127.0.0.1", server->port());
  for (int i = 0; i < kBurst; ++i) {
    Request request = MakeRequest("certain", "", "loadbench");
    request.id = std::to_string(i + 1);
    request.no_cache = true;
    client.Send(request);
  }
  int ok = 0, overloaded = 0, answered = 0;
  for (int i = 0; i < kBurst; ++i) {
    StatusOr<Response> response = client.Receive();
    if (!response.ok()) break;
    ++answered;
    ok += response->status == WireStatus::kOk;
    overloaded += response->status == WireStatus::kOverloaded;
  }
  std::printf("overload: burst %d -> %d answered (%d OK, %d OVERLOADED)\n",
              kBurst, answered, ok, overloaded);
  experiment->Claim(answered == kBurst,
                    "every burst request is answered (no hang/silent drop)");
  experiment->Claim(overloaded >= 1 && ok >= 1,
                    "overflow beyond the bounded queue is rejected with "
                    "OVERLOADED while admitted work completes");
}

void ReportDeadline(bench::Experiment* experiment, Server* server) {
  BlockingClient client;
  client.Connect("127.0.0.1", server->port());
  client.Call(MakeRequest("db", kSlowDb, "deadlinebench"));
  client.Call(MakeRequest("query", kEnumeratorQuery, "deadlinebench"));

  Request unbounded = MakeRequest("certain", "", "deadlinebench");
  unbounded.no_cache = true;
  double full_ms = CallMs(client, unbounded);

  Request bounded = MakeRequest("certain", "", "deadlinebench");
  bounded.no_cache = true;
  bounded.deadline_ms = 25;
  WireStatus status = WireStatus::kOk;
  double bounded_ms = CallMs(client, bounded, &status);
  std::printf("deadline: full evaluation %.0fms; @deadline_ms=25 answered "
              "%s in %.0fms\n",
              full_ms, std::string(WireStatusName(status)).c_str(),
              bounded_ms);
  experiment->Claim(status == WireStatus::kDeadlineExceeded,
                    "expired deadline yields DEADLINE_EXCEEDED");
  experiment->Claim(bounded_ms < full_ms / 2,
                    "cancellation abandons the evaluation well before "
                    "completion");
}

// Epoll scaling: 256 idle connections must cost nothing but memory. The
// event-thread pool is fixed at Start() — it must not grow with the
// connection count — and the serving latency of 16 active clients with 256
// idle connections parked on the same loops must stay within 1.5x of the
// 16-client baseline (the whole point of replacing thread-per-connection
// readers).
void ReportEpollScaling(bench::Experiment* experiment) {
  ServerOptions options;
  options.threads = 4;
  options.queue_capacity = 256;
  Server server(options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "epoll-scaling server start failed: %s\n",
                 started.message().c_str());
    experiment->Claim(false, "epoll-scaling server starts");
    return;
  }
  const std::size_t threads_at_start = server.event_threads();

  // Median ping latency across 16 concurrent clients — the pure serving
  // path (event loop + executor + wire), no evaluation cost.
  auto active_median_ms = [&]() {
    constexpr int kClients = 16;
    constexpr int kRounds = 50;
    std::vector<double> latencies;
    std::mutex mutex;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        BlockingClient client;
        if (!client.Connect("127.0.0.1", server.port()).ok()) return;
        std::vector<double> mine;
        for (int i = 0; i < kRounds; ++i) {
          mine.push_back(CallMs(client, MakeRequest("ping")));
        }
        std::lock_guard<std::mutex> lock(mutex);
        latencies.insert(latencies.end(), mine.begin(), mine.end());
      });
    }
    for (std::thread& t : clients) t.join();
    std::sort(latencies.begin(), latencies.end());
    return latencies.empty() ? 1e9 : latencies[latencies.size() / 2];
  };

  double base_ms = active_median_ms();

  // Park 256 idle connections on the same event loops, then measure again.
  std::vector<BlockingClient> idle(256);
  std::size_t connected = 0;
  for (BlockingClient& client : idle) {
    connected += client.Connect("127.0.0.1", server.port()).ok();
  }
  double idle_ms = active_median_ms();
  const std::size_t threads_with_idle = server.event_threads();

  std::printf("epoll scaling: 16-client ping median %.3fms; with 256 idle "
              "connections %.3fms; event threads %zu -> %zu\n",
              base_ms, idle_ms, threads_at_start, threads_with_idle);
  experiment->Claim(connected == idle.size() &&
                        threads_with_idle == threads_at_start,
                    "server holds 256 concurrent connections with a "
                    "constant event-thread count");
  // The +0.3ms absolute floor keeps a sub-millisecond baseline from
  // turning scheduler jitter into a flaky ratio.
  experiment->Claim(idle_ms <= 1.5 * base_ms + 0.3,
                    "16 active clients serve within 1.5x of baseline with "
                    "256 idle connections parked");
  server.Shutdown();
}

// The µ-heavy analytical path — until PR 9 the serving battery only ever
// measured cheap reads (certain/possible on 4-5 nulls), so the heaviest
// command the wire carries was never exercised here. `muk` evaluates µ^k
// on the server's morsel pool, from the sharded Theorem 3 partition pass;
// the claims check that a 4-worker team returns the byte-identical
// payload of a serial server, and that a deadline cancels the evaluation
// mid-parallel-run.
void ReportMuHeavy(bench::Experiment* experiment) {
  auto timed_muk = [](std::size_t par_threads, std::string* payload) {
    ServerOptions options;
    options.threads = 1;
    options.queue_capacity = 8;
    options.par_threads = par_threads;
    Server server(options);
    if (!server.Start().ok()) return -1.0;
    BlockingClient client;
    client.Connect("127.0.0.1", server.port());
    client.Call(MakeRequest("db", kColdDb, "mubench"));
    client.Call(MakeRequest("query", kQuery, "mubench"));
    Request heavy = MakeRequest("muk", "6 (c1)", "mubench");
    heavy.no_cache = true;
    auto start = std::chrono::steady_clock::now();
    StatusOr<Response> response = client.Call(heavy);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!response.ok() || response->status != WireStatus::kOk) {
      ms = -1.0;
    } else {
      *payload = response->payload;
    }
    server.Shutdown();
    return ms;
  };
  std::string serial_payload;
  std::string parallel_payload;
  double serial_ms = timed_muk(1, &serial_payload);
  double parallel_ms = timed_muk(4, &parallel_payload);
  std::printf("mu-heavy: muk 6 on 4 nulls — serial %.1fms, 4-worker morsel "
              "team %.1fms; payloads %s\n",
              serial_ms, parallel_ms,
              serial_payload == parallel_payload ? "identical" : "DIFFER");
  experiment->Claim(serial_ms > 0 && parallel_ms > 0 &&
                        serial_payload == parallel_payload,
                    "a 4-worker morsel team serves the byte-identical mu^k "
                    "payload of a serial server");

  // Deadline mid-parallel-evaluation: six nulls at k=16 is ~0.15s of
  // partition pass on a 4-worker team (4-thread host, RelWithDebInfo); the
  // 25ms deadline must surface as DEADLINE_EXCEEDED long before that, with
  // the morsel team quiesced (the follow-up unhurried request on the same
  // session still answers).
  ServerOptions options;
  options.threads = 1;
  options.queue_capacity = 8;
  options.par_threads = 4;
  Server server(options);
  if (!server.Start().ok()) {
    experiment->Claim(false, "mu-heavy deadline server starts");
    return;
  }
  BlockingClient client;
  client.Connect("127.0.0.1", server.port());
  client.Call(MakeRequest("db", kSlowDb, "mudeadline"));
  client.Call(MakeRequest("query", kQuery, "mudeadline"));
  Request bounded = MakeRequest("muk", "16 (c1)", "mudeadline");
  bounded.no_cache = true;
  bounded.deadline_ms = 25;
  WireStatus status = WireStatus::kOk;
  double bounded_ms = CallMs(client, bounded, &status);
  Request follow_up = MakeRequest("muk", "6 (c1)", "mudeadline");
  follow_up.no_cache = true;
  WireStatus follow_status = WireStatus::kOk;
  CallMs(client, follow_up, &follow_status);
  std::printf("mu-heavy deadline: muk 16 on 6 nulls @deadline_ms=25 answered "
              "%s in %.0fms; follow-up %s\n",
              std::string(WireStatusName(status)).c_str(), bounded_ms,
              std::string(WireStatusName(follow_status)).c_str());
  experiment->Claim(status == WireStatus::kDeadlineExceeded &&
                        bounded_ms < 250.0 &&
                        follow_status == WireStatus::kOk,
                    "a deadline cancels the parallel mu^k evaluation early "
                    "and the session keeps serving");
  server.Shutdown();
}

// Scratch directories for the durability scenarios (snapshot dirs are
// flat, so one level of cleanup suffices).
std::string MakeScratchDir() {
  char templ[] = "/tmp/zo1durabench_XXXXXX";
  char* dir = ::mkdtemp(templ);
  return dir == nullptr ? std::string() : std::string(dir);
}

void RemoveTree(const std::string& dir) {
  if (dir.empty()) return;
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (dirent* entry = ::readdir(handle)) {
      std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(handle);
  }
  ::rmdir(dir.c_str());
}

// Durability: what the write-ahead log costs and what compaction buys.
//
// Ack-mode cost is the client-observed p50 of acknowledged single-tuple
// mutations — in fsync mode the ack waits for the record to be fsync'd, in
// async mode only for the write. Recovery compares a fresh Dispatcher's
// LoadSnapshots() over the same mutation history persisted two ways: as a
// raw log that must be replayed end to end (compaction disabled) and as a
// compacted snapshot plus a short tail.
void ReportDurability(bench::Experiment* experiment) {
  auto mutate_p50 = [](AckMode mode) {
    std::string dir = MakeScratchDir();
    double p50 = 1e9;
    ServerOptions options;
    options.threads = 2;
    options.queue_capacity = 64;
    options.snapshot_dir = dir;
    options.ack_mode = mode;
    options.wal_compact_every = 0;  // Isolate append+ack from compaction.
    Server server(options);
    if (server.Start().ok()) {
      BlockingClient client;
      client.Connect("127.0.0.1", server.port());
      std::vector<double> latencies;
      for (int i = 0; i < 300; ++i) {
        latencies.push_back(CallMs(
            client, MakeRequest("db", "M(1) = { (w" + std::to_string(i) + ") }",
                                "durabench")));
      }
      std::sort(latencies.begin(), latencies.end());
      p50 = latencies[latencies.size() / 2];
      server.Shutdown();
    }
    RemoveTree(dir);
    return p50;
  };
  double async_p50 = mutate_p50(AckMode::kAsync);
  double fsync_p50 = mutate_p50(AckMode::kFsync);
  std::printf("wal ack: async p50 %.3fms, fsync p50 %.3fms (%.1fx)\n",
              async_p50, fsync_p50,
              async_p50 > 0 ? fsync_p50 / async_p50 : 0.0);
  // The +0.5ms absolute floor keeps a tmpfs-fast async baseline from
  // turning scheduler jitter into a flaky ratio.
  experiment->Claim(fsync_p50 <= 20.0 * async_p50 + 0.5,
                    "fsync-mode mutation p50 stays within 20x of async");

  constexpr int kMutations = 4000;
  auto recover_ms = [](std::uint64_t compact_every, std::size_t* replayed) {
    std::string dir = MakeScratchDir();
    Dispatcher::Options options;
    options.snapshot_dir = dir;
    options.wal_compact_every = compact_every;
    {
      Dispatcher writer(options);
      writer.LoadSnapshots();
      for (int i = 0; i < kMutations; ++i) {
        const std::string w = "w" + std::to_string(i);
        writer.Execute(MakeRequest(
            "db", "M(1) = { (" + w + "a), (" + w + "b) }", "recoverybench"));
      }
    }  // Dropped without a drain: recovery rebuilds from disk alone.
    Dispatcher reader(options);
    auto start = std::chrono::steady_clock::now();
    Dispatcher::RecoveryReport report = reader.LoadSnapshots();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    *replayed = report.wal_records_applied;
    RemoveTree(dir);
    return ms;
  };
  std::size_t full_replayed = 0, tail_replayed = 0;
  double full_ms = recover_ms(0, &full_replayed);
  double tail_ms = recover_ms(16, &tail_replayed);
  std::printf("wal recovery: full replay of %zu records %.1fms; compacted "
              "snapshot + %zu-record tail %.1fms (%.1fx)\n",
              full_replayed, full_ms, tail_replayed, tail_ms,
              tail_ms > 0 ? full_ms / tail_ms : 0.0);
  experiment->Claim(full_replayed == kMutations && tail_replayed < 16,
                    "compaction bounds the replay tail (full history "
                    "replays only with compaction off)");
  experiment->Claim(tail_ms * 10.0 <= full_ms,
                    "compacted recovery is >=10x faster than full-log "
                    "replay");
}

// Scale-out: what the consistent-hash router costs and what it buys
// (docs/serving.md, "Scaling out").
//
// Overhead: p50 of a read-hot workload (cached `certain` — the pure
// serving path once the answer is cached) direct against one backend vs
// forwarded through a router over that same backend. The router adds one
// full extra loopback round-trip plus a queue handoff, so the claim is a
// ratio with the same kind of absolute floor the epoll claim uses: a
// sub-100µs direct baseline must not turn scheduler jitter into flake.
//
// Scaling: aggregate throughput of a CPU-bound µ-heavy mix (uncached
// `muk 16` on five nulls, ~40ms of serial partition pass per request)
// through a router over three backends vs one, over a 3 s window each.
// Sessions are picked via the same HashRing the router uses so each
// backend owns exactly two of the six client sessions. Each backend has
// one worker, so three backends need three cores. Gated on >=4 hardware
// threads: with fewer cores the three backends time-share the same CPU
// and the ratio measures the scheduler, not the architecture. (With two
// workers per backend, three backends would need six cores; on a 4-thread
// host that caps the ratio near 1.7 whatever the router does.)
void ReportRouter(bench::Experiment* experiment) {
  auto start_backend = [](std::size_t workers) {
    ServerOptions options;
    options.threads = workers;
    options.queue_capacity = 64;
    options.par_threads = 1;
    auto server = std::make_unique<Server>(options);
    if (!server->Start().ok()) server = nullptr;
    return server;
  };
  auto start_router = [](const std::vector<const Server*>& backends) {
    RouterOptions options;
    for (const Server* backend : backends) {
      options.backends.push_back(HostPort{"127.0.0.1", backend->port()});
    }
    options.threads = 4;
    options.queue_capacity = 64;
    auto router = std::make_unique<Router>(options);
    if (!router->Start().ok()) router = nullptr;
    return router;
  };

  // --- Claim 7a: forwarding overhead on a read-hot workload. ---
  std::unique_ptr<Server> backend = start_backend(2);
  std::unique_ptr<Router> router;
  if (backend != nullptr) router = start_router({backend.get()});
  if (backend == nullptr || router == nullptr) {
    experiment->Claim(false, "router bench cluster starts");
    return;
  }
  auto read_hot_p50 = [](int port) {
    BlockingClient client;
    if (!client.Connect("127.0.0.1", port).ok()) return 1e9;
    client.Call(MakeRequest("db", kColdDb, "routerbench"));
    client.Call(MakeRequest("query", kQuery, "routerbench"));
    client.Call(MakeRequest("certain", "", "routerbench"));  // Warm cache.
    std::vector<double> latencies;
    for (int i = 0; i < 200; ++i) {
      latencies.push_back(
          CallMs(client, MakeRequest("certain", "", "routerbench")));
    }
    std::sort(latencies.begin(), latencies.end());
    return latencies[latencies.size() / 2];
  };
  double direct_ms = read_hot_p50(backend->port());
  double routed_ms = read_hot_p50(router->port());
  std::printf("router overhead: read-hot p50 direct %.3fms, via router "
              "%.3fms (%.2fx)\n",
              direct_ms, routed_ms,
              direct_ms > 0 ? routed_ms / direct_ms : 0.0);
  experiment->Claim(routed_ms <= 1.5 * direct_ms + 0.5,
                    "router forwarding keeps read-hot p50 within 1.5x of "
                    "direct backend");
  router->Shutdown();
  router = nullptr;
  backend->Shutdown();
  backend = nullptr;

  // --- Claim 7b: 3-backend aggregate throughput on a µ-heavy mix. ---
  const unsigned hw_threads = std::thread::hardware_concurrency();
  if (hw_threads < 4) {
    std::printf("router scaling claim skipped (%u hardware threads; the "
                "3-backend ratio needs >=4)\n",
                hw_threads);
    return;
  }
  // Six sessions, two owned by each of the three backends — found by
  // walking candidate names through the identical ring the router builds.
  HashRing ring(3, 64);
  std::vector<std::string> sessions;
  std::vector<int> owned(3, 0);
  for (int candidate = 0; sessions.size() < 6 && candidate < 1000;
       ++candidate) {
    std::string name = "scale" + std::to_string(candidate);
    std::size_t owner = ring.Owner(name);
    if (owned[owner] < 2) {
      ++owned[owner];
      sessions.push_back(std::move(name));
    }
  }
  auto aggregate_qps = [&](std::size_t backend_count) {
    std::vector<std::unique_ptr<Server>> backends;
    std::vector<const Server*> raw;
    for (std::size_t i = 0; i < backend_count; ++i) {
      backends.push_back(start_backend(1));
      if (backends.back() == nullptr) return -1.0;
      raw.push_back(backends.back().get());
    }
    std::unique_ptr<Router> front = start_router(raw);
    if (front == nullptr) return -1.0;
    // Each client sends requests until the window closes; throughput is
    // the requests answered over the wall time until the last answer. A
    // window of seconds, not a fixed request count, keeps the ratio from
    // resting on a few dozen requests.
    constexpr auto kWindow = std::chrono::seconds(3);
    std::atomic<int> answered{0};
    std::vector<std::thread> clients;
    auto start = std::chrono::steady_clock::now();
    for (const std::string& session : sessions) {
      clients.emplace_back([&, session] {
        BlockingClient client;
        if (!client.Connect("127.0.0.1", front->port()).ok()) return;
        client.Call(MakeRequest("db", kRouterDb, session));
        client.Call(MakeRequest("query", kQuery, session));
        while (std::chrono::steady_clock::now() - start < kWindow) {
          Request heavy = MakeRequest("muk", "16 (c1)", session);
          heavy.no_cache = true;
          StatusOr<Response> response = client.Call(heavy);
          if (response.ok() && response->status == WireStatus::kOk) {
            answered.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    double wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    front->Shutdown();
    for (auto& b : backends) b->Shutdown();
    return wall_s > 0 ? answered.load() / wall_s : -1.0;
  };
  double one_qps = aggregate_qps(1);
  double three_qps = aggregate_qps(3);
  std::printf("router scaling: mu-heavy aggregate %.1f req/s on 1 backend, "
              "%.1f req/s on 3 (%.2fx)\n",
              one_qps, three_qps, one_qps > 0 ? three_qps / one_qps : 0.0);
  experiment->Claim(one_qps > 0 && three_qps >= 1.8 * one_qps,
                    "three backends deliver >=1.8x the aggregate mu-heavy "
                    "throughput of one");
}

#if ZEROONE_FAULT_ENABLED
// Degraded mode: every request is forced through a fresh evaluation
// (~20ms), so a retried request costs roughly one extra evaluation plus a
// few ms of backoff — well inside the 5x p99 budget.
void ReportDegradedMode(bench::Experiment* experiment, Server* server) {
  constexpr int kRequests = 60;
  auto run = [&](const char* label, int* ok_out) {
    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.initial_backoff_ms = 1;
    policy.max_backoff_ms = 20;
    RetryingClient client("127.0.0.1", server->port(), policy,
                          ClientOptions());
    client.CallWithRetry(MakeRequest("db", kColdDb, "degradedbench"));
    client.CallWithRetry(MakeRequest("query", kQuery, "degradedbench"));
    std::vector<double> latencies;
    int ok = 0;
    for (int i = 0; i < kRequests; ++i) {
      Request request = MakeRequest("certain", "", "degradedbench");
      request.no_cache = true;
      auto start = std::chrono::steady_clock::now();
      StatusOr<Response> response = client.CallWithRetry(request);
      latencies.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
      ok += response.ok() && response->status == WireStatus::kOk;
    }
    std::sort(latencies.begin(), latencies.end());
    double p99 = latencies[static_cast<std::size_t>(
        0.99 * static_cast<double>(latencies.size() - 1))];
    const RetryingClient::Stats stats = client.stats();
    std::printf("degraded (%s): %d/%d OK, p99 %.1fms, %llu retries, "
                "%llu reconnects\n",
                label, ok, kRequests, p99,
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(stats.reconnects));
    *ok_out = ok;
    return p99;
  };

  int clean_ok = 0;
  double clean_p99 = run("fault-free", &clean_ok);
  fault::Registry::Global().Configure(
      "seed=42,svc.send.partial=0.01,svc.client.send.fail=0.01");
  int faulty_ok = 0;
  double faulty_p99 = run("1% socket faults", &faulty_ok);
  fault::Registry::Global().Clear();

  experiment->Claim(clean_ok == kRequests && faulty_ok == kRequests,
                    "with 1% socket faults every request still eventually "
                    "succeeds");
  experiment->Claim(faulty_p99 <= 5.0 * clean_p99,
                    "degraded-mode p99 stays within 5x of fault-free p99");
}
#endif  // ZEROONE_FAULT_ENABLED

void BM_ParseRequestLine(benchmark::State& state) {
  const std::string line =
      "@id=42 @session=alpha @deadline_ms=250 @nocache mu (a, b)";
  for (auto _ : state) {
    StatusOr<Request> request = ParseRequestLine(line);
    benchmark::DoNotOptimize(request);
  }
}
BENCHMARK(BM_ParseRequestLine);

void BM_FormatResponse(benchmark::State& state) {
  Response response;
  response.id = "42";
  response.payload = std::string(256, 'x');
  for (auto _ : state) {
    std::string frame = FormatResponse(response);
    benchmark::DoNotOptimize(frame);
  }
}
BENCHMARK(BM_FormatResponse);

void BM_CacheGetHit(benchmark::State& state) {
  LruCache cache(1 << 20);
  for (int i = 0; i < 64; ++i) {
    cache.Put("key" + std::to_string(i), std::string(128, 'v'));
  }
  std::string value;
  int i = 0;
  for (auto _ : state) {
    bool hit = cache.Get("key" + std::to_string(i++ % 64), &value);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_CacheGetHit);

}  // namespace

int main(int argc, char** argv) {
  bench::Experiment experiment("serving");
  std::printf("Serving: cache speedup, overload rejection, deadlines\n");
  std::printf("-----------------------------------------------------\n");
  {
    // One worker and a one-slot queue make overload deterministic; the
    // cache and deadline scenarios are unaffected by the pool size.
    ServerOptions options;
    options.threads = 1;
    options.queue_capacity = 1;
    Server server(options);
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.message().c_str());
      return 1;
    }
    ReportCacheSpeedup(&experiment, &server);
    ReportOverload(&experiment, &server);
    ReportDeadline(&experiment, &server);
#if ZEROONE_FAULT_ENABLED
    ReportDegradedMode(&experiment, &server);
#else
    std::printf("degraded-mode claims skipped (ZEROONE_FAULT=OFF build)\n");
#endif
    server.Shutdown();
  }
  ReportEpollScaling(&experiment);
  ReportMuHeavy(&experiment);
  ReportDurability(&experiment);
  ReportRouter(&experiment);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return experiment.Finish();
}
