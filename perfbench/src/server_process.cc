#include "server_process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace zeroone {
namespace perfbench {
namespace {

int ParsePortLine(const std::string& line, const std::string& prefix) {
  if (line.rfind(prefix, 0) != 0) return -1;
  std::size_t colon = line.rfind(':');
  if (colon == std::string::npos) return -1;
  return std::atoi(line.c_str() + colon + 1);
}

}  // namespace

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& flags,
                          const std::string& log_path) {
  int out_pipe[2];
  if (pipe(out_pipe) != 0) {
    std::cerr << "perfbench: pipe failed\n";
    return false;
  }
  std::vector<std::string> args = {binary};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = fork();
  if (pid_ < 0) {
    std::cerr << "perfbench: fork failed\n";
    close(out_pipe[0]);
    close(out_pipe[1]);
    return false;
  }
  if (pid_ == 0) {
    // The server must not outlive the benchmark, even one killed outright.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    dup2(out_pipe[1], STDOUT_FILENO);
    int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out_pipe[1]);

  // The server prints "listening on HOST:PORT" then "http listening on
  // HOST:PORT"; nothing else goes to its stdout.
  std::string pending;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (port_ < 0 || http_port_ < 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{out_pipe[0], POLLIN, 0};
    if (left.count() <= 0 || poll(&pfd, 1, static_cast<int>(left.count())) <= 0)
      break;
    char buf[512];
    ssize_t n = read(out_pipe[0], buf, sizeof(buf));
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      if (int p = ParsePortLine(line, "listening on "); p > 0) port_ = p;
      if (int p = ParsePortLine(line, "http listening on "); p > 0)
        http_port_ = p;
    }
  }
  // Keep our end open until the child exits: the server never writes to
  // stdout again, and a closed pipe would turn any write into SIGPIPE.
  stdout_fd_ = out_pipe[0];
  if (port_ < 0 || http_port_ < 0) {
    std::cerr << "perfbench: server did not report its ports (log: "
              << log_path << ")\n";
    Stop();
    return false;
  }
  return true;
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  port_ = http_port_ = -1;
}

bool ServerProcess::ReadCounters(
    std::map<std::string, std::uint64_t>* counters) const {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(http_port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request =
        "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[65536];
      ssize_t n;
      while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<std::size_t>(n));
      }
    }
  }
  close(fd);
  // Body: {"counters": {"name": value, ...}, "histograms": {...}}
  std::size_t at = response.find("\"counters\": {");
  if (at == std::string::npos) return false;
  at += 13;
  counters->clear();
  while (at < response.size() && response[at] != '}') {
    std::size_t open = response.find('"', at);
    std::size_t close_quote = response.find('"', open + 1);
    std::size_t colon = response.find(':', close_quote);
    if (open == std::string::npos || close_quote == std::string::npos ||
        colon == std::string::npos)
      return false;
    const std::string name = response.substr(open + 1, close_quote - open - 1);
    char* end = nullptr;
    const unsigned long long value =
        std::strtoull(response.c_str() + colon + 1, &end, 10);
    (*counters)[name] = value;
    at = static_cast<std::size_t>(end - response.c_str());
    while (at < response.size() && (response[at] == ',' || response[at] == ' '))
      ++at;
  }
  return true;
}

double ServerProcess::CpuMillis() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
}  // namespace zeroone
