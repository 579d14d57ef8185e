#ifndef ZEROONE_PERFBENCH_SERVER_PROCESS_H_
#define ZEROONE_PERFBENCH_SERVER_PROCESS_H_

// A zeroone_server child process: started with its default flags plus
// --http-port (for GET /metrics) and any workload flags, stopped with
// SIGTERM and always reaped.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zeroone {
namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `binary` with `flags`, stderr into `log_path`, and waits for
  // both "listening on" lines. False (with a message) on failure.
  bool Start(const std::string& binary, const std::vector<std::string>& flags,
             const std::string& log_path);
  // SIGTERM, then waits for exit (SIGKILL after 30 s). Idempotent.
  void Stop();

  int port() const { return port_; }
  int http_port() const { return http_port_; }
  pid_t pid() const { return pid_; }

  // Counter values from GET /metrics; false when unreachable or
  // unparseable.
  bool ReadCounters(std::map<std::string, std::uint64_t>* counters) const;
  // utime + stime of the server in milliseconds (from /proc/<pid>/stat).
  double CpuMillis() const;
  // Peak resident set (VmHWM) in MB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = -1;
  int http_port_ = -1;
};

}  // namespace perfbench
}  // namespace zeroone

#endif  // ZEROONE_PERFBENCH_SERVER_PROCESS_H_
