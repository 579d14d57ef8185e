// zeroone_cli — an interactive shell over the library.
//
// Reads commands from a script file (first non-flag argument) or stdin.
// Flags: --metrics[=FILE] dumps the observability counter registry as JSON
// on exit; --trace=FILE records scoped spans and writes Chrome trace_events
// JSON (load in chrome://tracing or https://ui.perfetto.dev). Lines starting
// with '#' are comments. Commands:
//
//   load <file>             load a database file (ParseDatabase format)
//   db <statement>          add one relation statement inline
//   show                    print the current database
//   query <text>            set the current query (ParseQuery syntax)
//   naive                   naive answers (= almost certainly true, Thm 1)
//   certain                 certain answers (exact; core/exact_plan.h picks
//                           the algorithm)
//   possible                possible answers
//   best                    Best(Q,D) — support-maximal answers
//   bestmu                  Best_µ(Q,D) — best ∩ almost certainly true
//   mu <tuple>              µ(Q,D,ā) limit (0 or 1, by the 0-1 law)
//   muk <k> <tuple>         exact µ^k(Q,D,ā)
//   poly <tuple>            support-count polynomial |Supp^k| in k
//   compare <t1> <t2>       Supp inclusion between two tuples
//   fd <R> <arity> <l1,..> <rhs>    add a functional dependency
//   ind <R> <ar> <pos,..> <S> <ar> <pos,..>   add an inclusion dependency
//   constraints             list constraints
//   clear                   drop all constraints
//   cond <tuple>            exact conditional µ(Q|Σ,D,ā)
//   chase                   chase the database with the FD constraints
//   ra <expr>               evaluate a relational-algebra plan (naive);
//                           syntax in algebra/ra_parser.h
//   dlog <file>             load a datalog program (datalog/parser.h
//                           syntax) and print its goal relation over the
//                           current database (naive answers)
//   help                    this text
//   quit                    exit
//
// Example session:
//   db R1(2) = { (c1, _1), (c2, _1), (c2, _2) }
//   db R2(2) = { (c1, _2), (c2, _1), (_3, _1) }
//   query Q(x, y) := R1(x, y) & !R2(x, y)
//   naive
//   mu (c1, _1)
//   best

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/ra_parser.h"
#include "constraints/fd.h"
#include "constraints/ind.h"
#include "constraints/parse.h"
#include "core/exact_plan.h"
#include "core/measure.h"
#include "core/support.h"
#include "core/support_polynomial.h"
#include "data/io.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/eval.h"
#include "query/parser.h"

namespace zeroone {
namespace {

struct Session {
  Database db;
  Query query;
  bool has_query = false;
  bool done = false;
  bool explain = false;  // --explain: print plans instead of evaluating.
  ConstraintSet constraints;
  std::vector<FunctionalDependency> fds;
};

// Commands whose evaluation --explain replaces with the chosen plan.
bool IsEvalCommand(const std::string& command) {
  return command == "naive" || command == "certain" ||
         command == "possible" || command == "best" || command == "bestmu" ||
         command == "mu" || command == "muk" || command == "poly" ||
         command == "compare" || command == "cond";
}

void PrintTuples(const std::vector<Tuple>& tuples) {
  if (tuples.empty()) {
    std::cout << "  (none)\n";
    return;
  }
  for (const Tuple& t : tuples) std::cout << "  " << t.ToString() << "\n";
}

bool RequireQuery(const Session& session) {
  if (!session.has_query) {
    std::cout << "error: no query set (use `query <text>`)\n";
    return false;
  }
  return true;
}

// --explain's line naming the exact algorithm (core/exact_plan.h) for an
// exact command, or an error on bad tuple arguments.
void PrintExactPlan(const Session& session, const std::string& command,
                    const std::string& args) {
  ExactCommand exact;
  if (!ParseExactCommand(command, &exact)) return;
  StatusOr<std::vector<Tuple>> tuples =
      ParseExactTuples(exact, session.query, args);
  if (!tuples.ok()) {
    std::cout << "error: " << tuples.status().message() << "\n";
    return;
  }
  std::cout << ExplainExactPlan(exact, session.query, session.constraints,
                                session.db, *tuples);
}

void Handle(Session* session, const std::string& line) {
  std::stringstream stream(line);
  std::string command;
  stream >> command;
  if (command.empty() || command[0] == '#') return;
  std::string rest;
  std::getline(stream, rest);
  while (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());

  if (session->explain && IsEvalCommand(command)) {
    if (!RequireQuery(*session)) return;
    std::cout << ExplainQueryPlan(session->query, session->db);
    PrintExactPlan(*session, command, rest);
    return;
  }
  if (session->explain && command == "dlog") {
    std::ifstream file(rest);
    if (!file) {
      std::cout << "error: cannot open '" << rest << "'\n";
      return;
    }
    std::stringstream contents;
    contents << file.rdbuf();
    StatusOr<DatalogProgram> program = ParseDatalogProgram(contents.str());
    if (!program.ok()) {
      std::cout << "error: " << program.status().message() << "\n";
      return;
    }
    std::cout << ExplainDatalogPlan(*program, session->db);
    return;
  }
  if (command == "help") {
    std::cout << "commands: load db show query naive certain possible best ra dlog "
                 "bestmu mu muk poly compare fd ind constraints clear cond "
                 "chase help quit\n";
  } else if (command == "load") {
    std::ifstream file(rest);
    if (!file) {
      std::cout << "error: cannot open '" << rest << "'\n";
      return;
    }
    std::stringstream contents;
    contents << file.rdbuf();
    StatusOr<Database> db = ParseDatabase(contents.str());
    if (!db.ok()) {
      std::cout << "error: " << db.status().message() << "\n";
      return;
    }
    session->db = std::move(*db);
    std::cout << "loaded " << session->db.TupleCount() << " tuples\n";
  } else if (command == "db") {
    StatusOr<Database> parsed = ParseDatabase(rest);
    if (!parsed.ok()) {
      std::cout << "error: " << parsed.status().message() << "\n";
      return;
    }
    for (const auto& [name, rel] : parsed->relations()) {
      Relation& target = session->db.AddRelation(name, rel.arity());
      target.InsertBatch(rel);
    }
  } else if (command == "show") {
    std::cout << session->db.ToString() << "\n";
  } else if (command == "query") {
    StatusOr<Query> query = ParseQuery(rest);
    if (!query.ok()) {
      std::cout << "error: " << query.status().message() << "\n";
      return;
    }
    session->query = std::move(*query);
    session->has_query = true;
    std::cout << session->query.ToString() << "\n";
  } else if (command == "naive") {
    if (!RequireQuery(*session)) return;
    PrintTuples(NaiveEvaluate(session->query, session->db));
  } else if (command == "certain") {
    if (!RequireQuery(*session)) return;
    PrintTuples(ExactCertainAnswers(session->query, session->db));
  } else if (command == "possible") {
    if (!RequireQuery(*session)) return;
    PrintTuples(PossibleAnswers(session->query, session->db));
  } else if (command == "best") {
    if (!RequireQuery(*session)) return;
    PrintTuples(ExactBestAnswers(session->query, session->db));
  } else if (command == "bestmu") {
    if (!RequireQuery(*session)) return;
    PrintTuples(ExactBestMuAnswers(session->query, session->db));
  } else if (command == "mu") {
    if (!RequireQuery(*session)) return;
    StatusOr<Tuple> tuple = ParseAnswerTuple(session->query, rest);
    if (!tuple.ok()) {
      std::cout << "error: " << tuple.status().message() << "\n";
      return;
    }
    std::cout << "mu = " << MuLimit(session->query, session->db, *tuple)
              << "\n";
  } else if (command == "muk") {
    if (!RequireQuery(*session)) return;
    std::stringstream args(rest);
    std::size_t k = 0;
    args >> k;
    std::string tuple_text;
    std::getline(args, tuple_text);
    StatusOr<Tuple> tuple = ParseAnswerTuple(session->query, tuple_text);
    if (!tuple.ok() || k == 0) {
      std::cout << "usage: muk <k> <tuple>\n";
      return;
    }
    SupportInstance instance =
        MakeSupportInstance(session->query, session->db, *tuple);
    if (k < instance.prefix.size()) {
      std::cout << "error: k must be at least |C ∪ Const(D)| = "
                << instance.prefix.size() << "\n";
      return;
    }
    Rational mu = MuK(session->query, session->db, *tuple, k);
    std::cout << "mu^" << k << " = " << mu.ToString() << " ≈ "
              << mu.ToDouble() << "\n";
  } else if (command == "poly") {
    if (!RequireQuery(*session)) return;
    StatusOr<Tuple> tuple = ParseAnswerTuple(session->query, rest);
    if (!tuple.ok()) {
      std::cout << "error: " << tuple.status().message() << "\n";
      return;
    }
    SupportPolynomial poly =
        ComputeSupportPolynomial(session->query, session->db, *tuple);
    std::cout << "|Supp^k| = " << poly.count.ToString()
              << "   (valid for k >= " << poly.valid_from << "; |V^k| = "
              << TotalCountPolynomial(session->db).ToString() << ")\n";
  } else if (command == "compare") {
    if (!RequireQuery(*session)) return;
    StatusOr<std::vector<Tuple>> pair =
        ParseExactTuples(ExactCommand::kCompare, session->query, rest);
    if (!pair.ok()) {
      std::cout << "usage: compare (t1) (t2)\n";
      return;
    }
    SupportOrder order =
        ExactCompare(session->query, session->db, (*pair)[0], (*pair)[1]);
    bool ab = order.a_in_b;
    bool ba = order.b_in_a;
    std::cout << "Supp(a) ⊆ Supp(b): " << (ab ? "yes" : "no")
              << "; Supp(b) ⊆ Supp(a): " << (ba ? "yes" : "no") << "\n";
    if (ab && !ba) std::cout << "a ◁ b (b is the better answer)\n";
    if (ba && !ab) std::cout << "b ◁ a (a is the better answer)\n";
    if (ab && ba) std::cout << "equal support\n";
    if (!ab && !ba) std::cout << "incomparable\n";
  } else if (command == "fd") {
    StatusOr<FunctionalDependency> fd = ParseFdArgs(rest);
    if (!fd.ok()) {
      std::cout << "error: " << fd.status().message() << "\n";
      return;
    }
    session->fds.push_back(*fd);
    session->constraints.push_back(
        std::make_shared<FunctionalDependency>(*fd));
    std::cout << "added " << fd->ToString() << "\n";
  } else if (command == "ind") {
    StatusOr<std::shared_ptr<InclusionDependency>> ind = ParseIndArgs(rest);
    if (!ind.ok()) {
      std::cout << "error: " << ind.status().message() << "\n";
      return;
    }
    std::cout << "added " << (*ind)->ToString() << "\n";
    session->constraints.push_back(std::move(*ind));
  } else if (command == "constraints") {
    if (session->constraints.empty()) std::cout << "  (none)\n";
    for (const ConstraintPtr& c : session->constraints) {
      std::cout << "  " << c->ToString() << "\n";
    }
  } else if (command == "clear") {
    session->constraints.clear();
    session->fds.clear();
  } else if (command == "cond") {
    if (!RequireQuery(*session)) return;
    StatusOr<std::vector<Tuple>> tuples =
        ParseExactTuples(ExactCommand::kCond, session->query, rest);
    if (!tuples.ok()) {
      std::cout << "error: " << tuples.status().message() << "\n";
      return;
    }
    StatusOr<ExactConditional> result = ExactConditionalMu(
        session->query, session->constraints, session->db, (*tuples)[0]);
    if (!result.ok()) {
      std::cout << "error: " << result.status().message() << "\n";
      return;
    }
    std::cout << "mu(Q|Sigma) = " << result->value.ToString();
    if (!result->sigma_satisfiable) std::cout << "   (Sigma unsatisfiable)";
    std::cout << "\n";
  } else if (command == "chase") {
    ChaseResult result = ChaseFds(session->fds, session->db);
    if (!result.success) {
      std::cout << "chase failed: " << result.failure_reason << "\n";
      return;
    }
    session->db = result.database;
    std::cout << session->db.ToString() << "\n";
  } else if (command == "ra") {
    StatusOr<RaExprPtr> plan = ParseRaExpr(rest, session->db.schema());
    if (!plan.ok()) {
      std::cout << "error: " << plan.status().message() << "\n";
      return;
    }
    std::cout << (*plan)->ToString() << "\n";
    PrintTuples((*plan)->Evaluate(session->db));
  } else if (command == "dlog") {
    std::ifstream file(rest);
    if (!file) {
      std::cout << "error: cannot open '" << rest << "'\n";
      return;
    }
    std::stringstream contents;
    contents << file.rdbuf();
    StatusOr<DatalogProgram> program = ParseDatalogProgram(contents.str());
    if (!program.ok()) {
      std::cout << "error: " << program.status().message() << "\n";
      return;
    }
    std::cout << program->ToString();
    PrintTuples(EvaluateDatalog(*program, session->db));
  } else if (command == "quit" || command == "exit") {
    session->done = true;
  } else {
    std::cout << "unknown command '" << command << "' (try `help`)\n";
  }
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
          << "usage: zeroone_cli [--metrics[=FILE]] [--trace=FILE] "
             "[--explain] [script]\n"
             "\n"
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
             "Commands (type `help` at the prompt): load db show query naive\n"
             "certain possible best bestmu mu muk poly compare fd ind\n"
             "constraints clear cond chase ra dlog help quit.\n"
             "The same command surface is served over TCP by zeroone_server\n"
             "(see docs/serving.md).\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag '" << arg << "'\n"
                << "usage: zeroone_cli [--metrics[=FILE]] [--trace=FILE] "
                   "[--explain] [script] (try --help)\n";
      return 1;
    } else if (script.empty()) {
      script = arg;
    } else {
      std::cerr << "unexpected extra argument '" << arg << "'\n"
                << "usage: zeroone_cli [--metrics[=FILE]] [--trace=FILE] "
                   "[--explain] [script] (try --help)\n";
      return 1;
    }
  }
  if (!trace_file.empty()) {
    zeroone::obs::TraceBuffer::Global().Enable();
  }

  zeroone::Session session;
  session.explain = explain;
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
  std::string line;
  while (!session.done) {
    if (interactive) std::cout << "zeroone> " << std::flush;
    if (!std::getline(*input, line)) break;
    if (!interactive && !line.empty() && line[0] != '#') {
      std::cout << "zeroone> " << line << "\n";
    }
    zeroone::Handle(&session, line);
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
