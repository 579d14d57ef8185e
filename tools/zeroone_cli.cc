// zeroone_cli — an interactive shell over the library.
//
// A read–print loop over one in-process svc::Dispatcher: each line is a
// request on session `default`, answered exactly as zeroone_server answers
// it. Type `help` for the commands; docs/serving.md describes each one.
//
// Example session:
//   db R1(2) = { (c1, _1), (c2, _1), (c2, _2) }
//   db R2(2) = { (c1, _2), (c2, _1), (_3, _1) }
//   query Q(x, y) := R1(x, y) & !R2(x, y)
//   naive
//   mu (c1, _1)
//   best

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/dispatch.h"
#include "svc/protocol.h"

namespace zeroone {
namespace {

constexpr const char* kUsage =
    "usage: zeroone_cli [--metrics[=FILE]] [--trace=FILE] [--explain] "
    "[script]";

// The command list of `help` and --help: every dispatcher command, then the
// shell's own.
void PrintHelp() {
  std::size_t width = 0;
  for (const svc::CommandInfo& info : svc::Commands()) {
    width = std::max(width, info.name.size() + 1 + info.args.size());
  }
  auto row = [width](std::string_view name, std::string_view args,
                     std::string_view summary) {
    std::string usage = std::string(name);
    if (!args.empty()) usage += " " + std::string(args);
    usage.resize(width, ' ');
    std::cout << "  " << usage << "  " << summary << "\n";
  };
  std::cout << "commands:\n";
  for (const svc::CommandInfo& info : svc::Commands()) {
    row(info.name, info.args, info.summary);
  }
  row("help", "", "this text");
  row("quit", "", "exit (also `exit`)");
}

// Runs one input line; returns false on quit.
bool Handle(svc::Dispatcher* dispatcher, bool explain,
            const std::string& line) {
  std::stringstream stream(line);
  std::string command;
  stream >> command;
  if (command.empty() || command[0] == '#') return true;
  if (command == "quit" || command == "exit") return false;
  if (command == "help") {
    PrintHelp();
    return true;
  }
  svc::Request request;
  request.command = command;
  std::getline(stream, request.args);
  request.args.erase(0, request.args.find_first_not_of(' '));
  request.explain = explain && svc::IsExplainableCommand(command);
  svc::Response response = dispatcher->Execute(request);
  if (response.status != svc::WireStatus::kOk) std::cout << "error: ";
  std::cout << response.payload;
  if (response.payload.empty() || response.payload.back() != '\n') {
    std::cout << "\n";
  }
  return true;
}

}  // namespace
}  // namespace zeroone

int main(int argc, char** argv) {
  // Observability flags, recognized anywhere on the command line:
  //   --metrics[=FILE]   dump the counter/histogram registry as JSON at exit
  //   --trace=FILE       record trace spans and write Chrome trace_events JSON
  bool dump_metrics = false;
  bool explain = false;
  std::string metrics_file;
  std::string trace_file;
  std::string script;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--metrics") {
      dump_metrics = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      dump_metrics = true;
      metrics_file = arg.substr(std::string("--metrics=").size());
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_file = arg.substr(std::string("--trace=").size());
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--help") {
      std::cout
          << zeroone::kUsage
          << "\n\n"
             "Interactive REPL (or script runner) for certain-answer and\n"
             "almost-certain-answer evaluation over incomplete databases.\n"
             "\n"
             "  --metrics[=FILE]  dump the observability counter registry as\n"
             "                    JSON on exit (stdout when FILE is omitted)\n"
             "  --trace=FILE      record spans, write Chrome trace_events\n"
             "  --explain         evaluation commands print the cost-based\n"
             "                    plan (docs/planner.md) instead of running\n"
             "  script            newline-delimited command file; '#' starts\n"
             "                    a comment. Omit for an interactive prompt.\n"
             "\n"
             "zeroone_server serves the same commands over TCP\n"
             "(see docs/serving.md).\n\n";
      zeroone::PrintHelp();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag '" << arg << "'\n"
                << zeroone::kUsage << " (try --help)\n";
      return 1;
    } else if (script.empty()) {
      script = arg;
    } else {
      std::cerr << "unexpected extra argument '" << arg << "'\n"
                << zeroone::kUsage << " (try --help)\n";
      return 1;
    }
  }
  if (!trace_file.empty()) {
    zeroone::obs::TraceBuffer::Global().Enable();
  }

  std::istream* input = &std::cin;
  std::ifstream file;
  bool interactive = true;
  if (!script.empty()) {
    file.open(script);
    if (!file) {
      std::cerr << "cannot open script '" << script << "'\n";
      return 1;
    }
    input = &file;
    interactive = false;
  }
  // No snapshot directory: no write-ahead log and no disk writes.
  zeroone::svc::Dispatcher dispatcher(zeroone::svc::Dispatcher::Options{});
  std::string line;
  while (true) {
    if (interactive) std::cout << "zeroone> " << std::flush;
    if (!std::getline(*input, line)) break;
    if (!interactive && !line.empty() && line[0] != '#') {
      std::cout << "zeroone> " << line << "\n";
    }
    if (!zeroone::Handle(&dispatcher, explain, line)) break;
  }

  if (!trace_file.empty()) {
    zeroone::obs::TraceBuffer::Global().Disable();
    std::ofstream out(trace_file);
    if (!out) {
      std::cerr << "cannot write trace file '" << trace_file << "'\n";
      return 1;
    }
    zeroone::obs::TraceBuffer::Global().WriteChromeTrace(out);
  }
  if (dump_metrics) {
    if (metrics_file.empty()) {
      zeroone::obs::Registry::Global().DumpJson(std::cout);
      std::cout << "\n";
    } else {
      std::ofstream out(metrics_file);
      if (!out) {
        std::cerr << "cannot write metrics file '" << metrics_file << "'\n";
        return 1;
      }
      zeroone::obs::Registry::Global().DumpJson(out);
      out << "\n";
    }
  }
  return 0;
}
