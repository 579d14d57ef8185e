#include "loadgen.h"

#include <condition_variable>
#include <mutex>
#include <thread>

#include "svc/client.h"

namespace zeroone {
namespace perfbench {
namespace {

// Gate between the warm-up and the window: every connection parks once
// idle; the coordinator opens it after reading the "before" counters.
class Gate {
 public:
  explicit Gate(std::size_t parties) : waiting_for_(parties) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (--waiting_for_ == 0) all_arrived_.notify_all();
    opened_cv_.wait(lock, [this] { return opened_; });
  }
  void WaitAllArrived() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_arrived_.wait(lock, [this] { return waiting_for_ == 0; });
  }
  void Open(Clock::time_point start, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mutex_);
    start_ = start;
    end_ = end;
    opened_ = true;
    opened_cv_.notify_all();
  }
  Clock::time_point start() const { return start_; }
  Clock::time_point end() const { return end_; }

 private:
  std::mutex mutex_;
  std::condition_variable all_arrived_;
  std::condition_variable opened_cv_;
  std::size_t waiting_for_;
  bool opened_ = false;
  Clock::time_point start_, end_;
};

}  // namespace

WindowResult RunWindow(const Workload& workload, int port, double warmup_s,
                       double window_s, const std::function<void()>& at_open,
                       const std::function<void()>& at_close) {
  const std::size_t conns = workload.streams.size();
  Gate gate(conns);
  std::vector<std::vector<Sample>> per_conn(conns);
  const Clock::time_point warm_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(warmup_s));

  auto worker = [&](std::size_t c) {
    const std::vector<Op>& stream = workload.streams[c];
    svc::ClientOptions options;
    options.connect_timeout_ms = 10000;
    options.io_timeout_ms = 120000;
    svc::BlockingClient client(options);
    bool connected = client.Connect("127.0.0.1", port).ok();
    std::size_t next = 0;
    std::uint64_t seq = 0;
    // One request; returns when its response arrived.
    auto issue = [&](Sample* sample) -> Clock::time_point {
      const Op& op = stream[next % stream.size()];
      sample->conn = c;
      sample->op = next % stream.size();
      ++next;
      const std::string id = std::to_string(c) + "." + std::to_string(seq++);
      Clock::time_point sent = Clock::now();
      StatusOr<svc::Response> response =
          connected ? client.Call(ToRequest(op, id))
                    : StatusOr<svc::Response>(Status::Error("not connected"));
      Clock::time_point done = Clock::now();
      sample->latency_ms = MillisBetween(sent, done);
      if (!response.ok()) {
        connected = false;  // The connection is desynchronized; stop using it.
        sample->verdict = Verdict::kNotOk;
        sample->status = "no response";
        sample->received = response.status().message();
      } else {
        sample->verdict =
            CheckResponse(*response, id, workload.expected[op.expected],
                          &sample->reordered);
        sample->status = std::string(svc::WireStatusName(response->status));
        if (sample->verdict != Verdict::kCorrect) {
          sample->received = std::move(response->payload);
        }
      }
      if (workload.think_ms[c] > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(workload.think_ms[c]));
      }
      return done;
    };
    while (connected && Clock::now() < warm_end) {
      Sample ignored;
      issue(&ignored);
    }
    gate.ArriveAndWait();
    while (Clock::now() < gate.end()) {
      Sample sample;
      sample.done_ms = MillisBetween(gate.start(), issue(&sample));
      per_conn[c].push_back(std::move(sample));
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) threads.emplace_back(worker, c);
  gate.WaitAllArrived();
  at_open();
  const Clock::time_point start = Clock::now();
  gate.Open(start, start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(window_s)));
  for (std::thread& thread : threads) thread.join();
  const Clock::time_point end = Clock::now();
  at_close();

  WindowResult result;
  result.elapsed_s = MillisBetween(start, end) / 1000.0;
  for (auto& samples : per_conn) {
    for (Sample& sample : samples) result.samples.push_back(std::move(sample));
  }
  return result;
}

}  // namespace perfbench
}  // namespace zeroone
