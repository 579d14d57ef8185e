#include "svc/dispatch.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <utility>

#include "algebra/ra_parser.h"
#include "common/cancel.h"
#include "common/parse.h"
#include "constraints/fd.h"
#include "constraints/ind.h"
#include "constraints/parse.h"
#include "core/exact_plan.h"
#include "core/measure.h"
#include "core/support_polynomial.h"
#include "data/io.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/cache.h"
#include "query/eval.h"
#include "query/parser.h"

namespace zeroone {
namespace svc {

namespace {

// Field separator in cache keys; cannot occur in request lines (control
// bytes are rejected by ParseRequestLine) or in Query::ToString output.
constexpr char kKeySep = '\x1f';

// One indented tuple per line, or `(none)`.
void AppendTuples(std::ostringstream* out, const std::vector<Tuple>& tuples) {
  if (tuples.empty()) {
    *out << "  (none)\n";
    return;
  }
  for (const Tuple& t : tuples) *out << "  " << t.ToString() << "\n";
}

Status RequireQuery(const SessionState& session) {
  if (!session.has_query) {
    return Status::Error("no query set (use `query <text>`)");
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::Error("cannot open '", path, "'");
  std::stringstream contents;
  contents << file.rdbuf();
  return contents.str();
}

// Same token shape ParseRequestLine enforces for @session=; `ship` args
// re-validate because they name sessions outside the request option.
bool IsValidSessionToken(std::string_view token) {
  if (token.empty() || token.size() > kMaxTokenBytes) return false;
  for (char c : token) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

// One `ship` response carries at most this many record-frame bytes (plus
// one frame of overshoot), keeping the payload well under kMaxPayloadBytes
// so FormatResponse never truncates mid-frame. The overshoot frame is
// itself bounded by kMaxWalRecordBytes (enforced at append time), so the
// worst-case payload provably fits the wire cap:
constexpr std::size_t kShipBatchBytes = 1 << 20;
static_assert(kShipBatchBytes + kMaxWalRecordBytes + 64 <= kMaxPayloadBytes,
              "a full ship batch plus one frame of overshoot must fit one "
              "wire payload, or FormatResponse would truncate mid-frame");

// The arguments of an explainable query command, checked by the parsers
// its run uses, so @explain=1 answers ERR exactly where the run would:
// those of the exact commands, one tuple for mu and poly. Other commands
// take no arguments to check.
StatusOr<ExactArgs> ParseQueryCommandArgs(const std::string& command,
                                          const Query& query,
                                          const std::string& args) {
  ExactCommand exact;
  if (ParseExactCommand(command, &exact)) {
    return ParseExactArgs(exact, query, args);
  }
  ExactArgs parsed;
  if (command == "mu" || command == "poly") {
    ZO_ASSIGN_OR_RETURN(Tuple tuple, ParseAnswerTuple(query, args));
    parsed.tuples.push_back(std::move(tuple));
  }
  return parsed;
}

// Runs one command against the session. The caller holds the appropriate
// session lock. Sets *mutated when session state changed (the caller then
// bumps the version and invalidates cache entries).
StatusOr<std::string> RunCommand(SessionState* session,
                                 const std::string& command,
                                 const std::string& args, bool* mutated) {
  std::ostringstream out;
  if (command == "db") {
    ZO_ASSIGN_OR_RETURN(Database parsed, ParseDatabase(args));
    std::size_t added = 0;
    for (const auto& [name, rel] : parsed.relations()) {
      Relation& target = session->db.AddRelation(name, rel.arity());
      target.InsertBatch(rel);
      added += rel.size();
    }
    *mutated = true;
    out << "added " << added << " tuples";
  } else if (command == "load") {
    ZO_ASSIGN_OR_RETURN(std::string contents, ReadFile(args));
    ZO_ASSIGN_OR_RETURN(Database db, ParseDatabase(contents));
    session->db = std::move(db);
    *mutated = true;
    out << "loaded " << session->db.TupleCount() << " tuples";
  } else if (command == "loaddata") {
    // Replay form of `load` (not a wire command): the database text is
    // inline, so WAL recovery and log shipping never read the primary's
    // filesystem. Output matches `load` byte-for-byte.
    ZO_ASSIGN_OR_RETURN(Database db, ParseDatabase(args));
    session->db = std::move(db);
    *mutated = true;
    out << "loaded " << session->db.TupleCount() << " tuples";
  } else if (command == "reset") {
    session->db = Database();
    session->query = Query();
    session->has_query = false;
    session->constraints.clear();
    session->fds.clear();
    *mutated = true;
    out << "reset";
  } else if (command == "show") {
    out << session->db.ToString() << "\n";
  } else if (command == "query") {
    ZO_ASSIGN_OR_RETURN(Query query, ParseQuery(args));
    session->query = std::move(query);
    session->has_query = true;
    *mutated = true;
    out << session->query.ToString();
  } else if (command == "naive") {
    ZO_RETURN_IF_ERROR(RequireQuery(*session));
    AppendTuples(&out, NaiveEvaluate(session->query, session->db));
  } else if (command == "certain") {
    ZO_RETURN_IF_ERROR(RequireQuery(*session));
    AppendTuples(&out, ExactCertainAnswers(session->query, session->db));
  } else if (command == "possible") {
    ZO_RETURN_IF_ERROR(RequireQuery(*session));
    AppendTuples(&out, PossibleAnswers(session->query, session->db));
  } else if (command == "best") {
    ZO_RETURN_IF_ERROR(RequireQuery(*session));
    AppendTuples(&out, ExactBestAnswers(session->query, session->db));
  } else if (command == "bestmu") {
    ZO_RETURN_IF_ERROR(RequireQuery(*session));
    AppendTuples(&out, ExactBestMuAnswers(session->query, session->db));
  } else if (command == "mu") {
    ZO_RETURN_IF_ERROR(RequireQuery(*session));
    ZO_ASSIGN_OR_RETURN(Tuple tuple, ParseAnswerTuple(session->query, args));
    out << "mu = " << MuLimit(session->query, session->db, tuple);
  } else if (command == "muk") {
    ZO_RETURN_IF_ERROR(RequireQuery(*session));
    ZO_ASSIGN_OR_RETURN(
        ExactArgs muk,
        ParseExactArgs(ExactCommand::kMuK, session->query, args));
    ZO_ASSIGN_OR_RETURN(Rational mu, ExactMuK(session->query, session->db,
                                              muk.tuples[0], muk.k));
    out << "mu^" << muk.k << " = " << mu.ToString() << " ≈ " << mu.ToDouble();
  } else if (command == "poly") {
    ZO_RETURN_IF_ERROR(RequireQuery(*session));
    ZO_ASSIGN_OR_RETURN(Tuple tuple, ParseAnswerTuple(session->query, args));
    SupportPolynomial poly =
        ComputeSupportPolynomial(session->query, session->db, tuple);
    out << "|Supp^k| = " << poly.count.ToString() << "   (valid for k >= "
        << poly.valid_from << "; |V^k| = "
        << TotalCountPolynomial(session->db).ToString() << ")";
  } else if (command == "compare") {
    ZO_RETURN_IF_ERROR(RequireQuery(*session));
    ZO_ASSIGN_OR_RETURN(
        ExactArgs pair,
        ParseExactArgs(ExactCommand::kCompare, session->query, args));
    SupportOrder order = ExactCompare(session->query, session->db,
                                      pair.tuples[0], pair.tuples[1]);
    bool ab = order.a_in_b;
    bool ba = order.b_in_a;
    out << "Supp(a) ⊆ Supp(b): " << (ab ? "yes" : "no")
        << "; Supp(b) ⊆ Supp(a): " << (ba ? "yes" : "no") << "\n";
    if (ab && !ba) out << "a ◁ b (b is the better answer)\n";
    if (ba && !ab) out << "b ◁ a (a is the better answer)\n";
    if (ab && ba) out << "equal support\n";
    if (!ab && !ba) out << "incomparable\n";
  } else if (command == "fd") {
    ZO_ASSIGN_OR_RETURN(FunctionalDependency fd, ParseFdArgs(args));
    session->fds.push_back(fd);
    session->constraints.push_back(std::make_shared<FunctionalDependency>(fd));
    *mutated = true;
    out << "added " << fd.ToString();
  } else if (command == "ind") {
    ZO_ASSIGN_OR_RETURN(std::shared_ptr<InclusionDependency> ind,
                        ParseIndArgs(args));
    out << "added " << ind->ToString();
    session->constraints.push_back(std::move(ind));
    *mutated = true;
  } else if (command == "constraints") {
    if (session->constraints.empty()) {
      out << "  (none)\n";
    } else {
      for (const ConstraintPtr& c : session->constraints) {
        out << "  " << c->ToString() << "\n";
      }
    }
  } else if (command == "clear") {
    session->constraints.clear();
    session->fds.clear();
    *mutated = true;
    out << "cleared";
  } else if (command == "cond") {
    ZO_RETURN_IF_ERROR(RequireQuery(*session));
    ZO_ASSIGN_OR_RETURN(
        ExactArgs cond,
        ParseExactArgs(ExactCommand::kCond, session->query, args));
    ZO_ASSIGN_OR_RETURN(ExactConditional result,
                        ExactConditionalMu(session->query,
                                           session->constraints, session->db,
                                           cond.tuples[0]));
    out << "mu(Q|Sigma) = " << result.value.ToString();
    if (!result.sigma_satisfiable) out << "   (Sigma unsatisfiable)";
  } else if (command == "chase") {
    ChaseResult result = ChaseFds(session->fds, session->db);
    if (result.cancelled) {
      // Deadline hit mid-fixpoint: result.database is only half-repaired.
      // Leave session->db untouched and *mutated unset so Execute neither
      // commits it nor bumps the version; Execute's cancellation check then
      // turns this into DEADLINE_EXCEEDED.
      return Status::Error(result.failure_reason);
    }
    if (!result.success) {
      return Status::Error("chase failed: ", result.failure_reason);
    }
    session->db = result.database;
    *mutated = true;
    out << session->db.ToString() << "\n";
  } else if (command == "ra") {
    ZO_ASSIGN_OR_RETURN(RaExprPtr plan,
                        ParseRaExpr(args, session->db.schema()));
    out << plan->ToString() << "\n";
    AppendTuples(&out, plan->Evaluate(session->db));
  } else if (command == "dlog") {
    ZO_ASSIGN_OR_RETURN(std::string contents, ReadFile(args));
    ZO_ASSIGN_OR_RETURN(DatalogProgram program,
                        ParseDatalogProgram(contents));
    out << program.ToString();
    AppendTuples(&out, EvaluateDatalog(program, session->db));
  } else {
    return Status::Error("unknown command '", command, "'");
  }
  return out.str();
}

}  // namespace

Dispatcher::Dispatcher(const Options& options)
    : cache_(options.cache_bytes),
      ack_mode_(options.ack_mode),
      wal_compact_every_(options.wal_compact_every) {
  if (!options.snapshot_dir.empty()) {
    snapshots_ = std::make_unique<SnapshotStore>(options.snapshot_dir);
    // The log shares the snapshot directory; the suffixes are disjoint
    // and LoadAll/ListSessions each skip the other's files.
    if (options.wal) wal_ = std::make_unique<WalStore>(options.snapshot_dir);
  }
}

Dispatcher::RecoveryReport Dispatcher::LoadSnapshots() {
  RecoveryReport report;
  if (snapshots_ != nullptr) report.snapshots = snapshots_->LoadAll(&sessions_);
  if (wal_ == nullptr) return report;
  for (const std::string& name : wal_->ListSessions()) {
    WalStore::ReadReport read;
    StatusOr<std::vector<WalRecord>> records = wal_->ReadAll(name, &read);
    report.wal_truncated_tails += read.truncated_tails;
    report.wal_quarantined += read.quarantined;
    if (!records.ok() || records->empty()) continue;
    ++report.wal_sessions;
    std::shared_ptr<SessionState> session = sessions_.GetOrCreate(name);
    std::unique_lock<SessionMutex> lock(session->mutex);
    std::uint64_t pending = 0;
    for (std::size_t i = 0; i < records->size(); ++i) {
      const WalRecord& record = (*records)[i];
      ++pending;  // Every record sits in the log until the next compaction.
      if (record.version <= session->version) {
        // Covered by the snapshot the last compaction (or save) wrote.
        ++report.wal_records_skipped;
        continue;
      }
      bool mutated = false;
      StatusOr<std::string> applied =
          RunCommand(session.get(), record.command, record.args, &mutated);
      if (!applied.ok()) {
        std::fprintf(stderr, "wal: replaying '%s' v%llu '%s' failed: %s\n",
                     name.c_str(),
                     static_cast<unsigned long long>(record.version),
                     record.command.c_str(),
                     applied.status().message().c_str());
        if (i + 1 == records->size()) {
          // Only the log's final record may legitimately fail: the command
          // failed on the original run and the crash beat the rollback
          // truncate. It was never acknowledged — cut it off so the log
          // again holds exactly the acked mutations (and the version it
          // squatted on is free for the next mutation).
          ++report.wal_replay_failed;
          ZO_COUNTER_INC("svc.wal.replay_failed");
          --pending;
          Status cut = wal_->TruncateAt(name, read.offsets[i]);
          if (!cut.ok()) {
            std::fprintf(stderr, "wal: dropping unacked tail of '%s': %s\n",
                         name.c_str(), cut.message().c_str());
          }
          break;
        }
        // A mid-log failure means this state diverged from the logged
        // history — applying the later records to a base missing this
        // mutation would silently fork it further. Stop replay here and
        // quarantine the failed record and everything after it; the
        // session serves the consistent applied prefix.
        ++report.wal_replay_diverged;
        ZO_COUNTER_INC("svc.wal.replay_diverged");
        pending = i;  // Records still in the log once the tail is gone.
        Status aside = wal_->QuarantineFrom(name, read.offsets[i],
                                            applied.status().message());
        if (!aside.ok()) {
          std::fprintf(stderr, "wal: quarantining diverged tail of '%s': %s\n",
                       name.c_str(), aside.message().c_str());
        }
        break;
      }
      session->version = std::max(session->version, record.version);
      ++report.wal_records_applied;
      ZO_COUNTER_INC("svc.wal.replayed");
    }
    session->wal_pending = pending;
  }
  return report;
}

std::size_t Dispatcher::SaveAllSessions() {
  if (snapshots_ == nullptr) return 0;
  Status prepared = snapshots_->Prepare();
  if (!prepared.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", prepared.message().c_str());
    return 0;
  }
  std::size_t saved = 0;
  for (const std::string& name : sessions_.Names()) {
    std::shared_ptr<SessionState> session = sessions_.GetOrCreate(name);
    std::shared_lock<SessionMutex> lock(session->mutex);
    if (session->persisted_version.load(std::memory_order_acquire) ==
        session->version) {
      ZO_COUNTER_INC("svc.snapshot.save_skipped");
      continue;
    }
    Status status = snapshots_->Save(name, *session);
    if (status.ok()) {
      session->persisted_version.store(session->version,
                                       std::memory_order_release);
      if (wal_ != nullptr) {
        // Clean-shutdown compaction: the snapshot now covers every log
        // record, so the next start replays nothing.
        Status reset = wal_->Reset(name, session->version);
        if (!reset.ok()) {
          std::fprintf(stderr, "wal: resetting '%s' on drain failed: %s\n",
                       name.c_str(), reset.message().c_str());
        }
      }
      ++saved;
    } else {
      ZO_COUNTER_INC("svc.snapshot.save_failed");
      std::fprintf(stderr, "snapshot: saving '%s' failed: %s\n",
                   name.c_str(), status.message().c_str());
    }
  }
  return saved;
}

void Dispatcher::MaybeCompactLocked(const std::string& name,
                                    SessionState* session) {
  if (snapshots_ == nullptr || wal_ == nullptr || wal_compact_every_ == 0) {
    return;
  }
  if (session->wal_pending < wal_compact_every_) return;
  // Reset the counter up front so a failed compaction retries only after
  // another full window, not on every subsequent mutation.
  session->wal_pending = 0;
  Status prepared = snapshots_->Prepare();
  Status saved =
      prepared.ok() ? snapshots_->Save(name, *session) : prepared;
  if (!saved.ok()) {
    ZO_COUNTER_INC("svc.wal.compact_failed");
    std::fprintf(stderr, "wal: compacting '%s' failed at snapshot: %s\n",
                 name.c_str(), saved.message().c_str());
    return;
  }
  session->persisted_version.store(session->version,
                                   std::memory_order_release);
  Status reset = wal_->Reset(name, session->version);
  if (!reset.ok()) {
    // The snapshot landed, so the stale log is merely redundant: replay
    // skips records at or below the snapshot version.
    ZO_COUNTER_INC("svc.wal.compact_failed");
    std::fprintf(stderr, "wal: compacting '%s' failed at log reset: %s\n",
                 name.c_str(), reset.message().c_str());
    return;
  }
  ZO_COUNTER_INC("svc.wal.compactions");
}

Status Dispatcher::ApplyReplicatedRecord(const std::string& name,
                                         const WalRecord& record) {
  if (!IsValidSessionToken(name)) {
    return Status::Error("bad session token '", name, "'");
  }
  std::shared_ptr<SessionState> session = sessions_.GetOrCreate(name);
  std::unique_lock<SessionMutex> lock(session->mutex);
  if (record.version <= session->version) {
    ZO_COUNTER_INC("svc.ship.records_skipped");
    return Status::Ok();  // Re-shipped record; applying again would fork.
  }
  std::uint64_t wal_before = 0;
  bool wal_appended = false;
  if (wal_ != nullptr) {
    ZO_RETURN_IF_ERROR(wal_->Prepare());
    // Log shipped records like local mutations (keeping the primary's
    // version numbers), so a follower crash recovers to its cursor.
    ZO_ASSIGN_OR_RETURN(
        wal_before,
        wal_->Append(name, record, ack_mode_ == AckMode::kFsync));
    wal_appended = true;
  }
  bool mutated = false;
  StatusOr<std::string> applied =
      RunCommand(session.get(), record.command, record.args, &mutated);
  if (!applied.ok()) {
    if (wal_appended) wal_->TruncateTo(name, wal_before);
    ZO_COUNTER_INC("svc.ship.apply_failed");
    return Status::Error("applying shipped '", record.command, "' v",
                         record.version, " failed: ",
                         applied.status().message());
  }
  session->version = record.version;
  const std::string prefix = StrCat(name, kKeySep);
  cache_.EraseIf([&prefix](std::string_view key) {
    return key.substr(0, prefix.size()) == prefix;
  });
  if (wal_appended) {
    ++session->wal_pending;
    MaybeCompactLocked(name, session.get());
  }
  ZO_COUNTER_INC("svc.ship.records_applied");
  return Status::Ok();
}

Status Dispatcher::InstallSnapshotImage(const std::string& image) {
  std::string name;
  SessionState loaded;
  ZO_RETURN_IF_ERROR(DecodeSnapshot(image, &name, &loaded));
  if (!IsValidSessionToken(name)) {
    return Status::Error("bad session token '", name, "'");
  }
  std::shared_ptr<SessionState> session = sessions_.GetOrCreate(name);
  std::unique_lock<SessionMutex> lock(session->mutex);
  if (loaded.version < session->version) {
    return Status::Error("stale snapshot v", loaded.version, " for '", name,
                         "' already at v", session->version);
  }
  session->version = loaded.version;
  session->db = std::move(loaded.db);
  session->query = std::move(loaded.query);
  session->has_query = loaded.has_query;
  session->constraints = std::move(loaded.constraints);
  session->fds = std::move(loaded.fds);
  session->wal_pending = 0;
  const std::string prefix = StrCat(name, kKeySep);
  cache_.EraseIf([&prefix](std::string_view key) {
    return key.substr(0, prefix.size()) == prefix;
  });
  // Persist the image locally so a follower crash resumes from here
  // instead of re-pulling the full state.
  if (snapshots_ != nullptr) {
    Status prepared = snapshots_->Prepare();
    Status saved =
        prepared.ok() ? snapshots_->Save(name, *session) : prepared;
    if (saved.ok()) {
      session->persisted_version.store(session->version,
                                       std::memory_order_release);
      if (wal_ != nullptr) {
        Status reset = wal_->Reset(name, session->version);
        if (!reset.ok()) {
          std::fprintf(stderr, "wal: resetting '%s' after snapshot install "
                               "failed: %s\n",
                       name.c_str(), reset.message().c_str());
        }
      }
    } else {
      ZO_COUNTER_INC("svc.snapshot.save_failed");
      std::fprintf(stderr, "snapshot: persisting installed '%s' failed: %s\n",
                   name.c_str(), saved.message().c_str());
    }
  }
  ZO_COUNTER_INC("svc.ship.snapshots_installed");
  return Status::Ok();
}

std::vector<std::pair<std::string, std::uint64_t>>
Dispatcher::SessionVersions() {
  std::vector<std::pair<std::string, std::uint64_t>> versions;
  for (const std::string& name : sessions_.Names()) {
    std::shared_ptr<SessionState> session = sessions_.GetOrCreate(name);
    std::shared_lock<SessionMutex> lock(session->mutex);
    versions.emplace_back(name, session->version);
  }
  return versions;
}

std::string Dispatcher::CacheKey(const Request& request,
                                 std::uint64_t version,
                                 const std::string& canonical_query) {
  return StrCat(request.session, kKeySep, version, kKeySep, request.command,
                kKeySep, request.args, kKeySep, canonical_query);
}

Response Dispatcher::ExecuteAdmitted(
    const Request& request, std::chrono::steady_clock::time_point admitted,
    std::uint64_t deadline_ms) {
  CancelToken token;
  if (deadline_ms != 0) {
    // The deadline clock starts at admission: time spent queued counts.
    token.SetDeadline(admitted + std::chrono::milliseconds(deadline_ms));
  }
  ScopedCancelToken scoped(&token);
  if (token.cancelled()) {
    // Expired while queued; don't start the evaluation at all.
    ZO_COUNTER_INC("svc.requests.deadline_exceeded");
    return Response{WireStatus::kDeadlineExceeded, request.id,
                    StrCat("deadline expired after ", deadline_ms,
                           "ms in queue; '", request.command,
                           "' not started")};
  }
  return Execute(request);
}

Response Dispatcher::Execute(const Request& request) {
  ZO_TRACE_SPAN("svc.execute");
  Response response;
  response.id = request.id;
  // ParseRequestLine already refuses unknown commands on the wire; this
  // catches in-process callers (the CLI) and replay-only forms (`loaddata`).
  const CommandInfo* info = FindCommand(request.command);
  if (info == nullptr) {
    ZO_COUNTER_INC("svc.requests.error");
    response.status = WireStatus::kErr;
    response.payload = StrCat("unknown command '", request.command, "'");
    return response;
  }

  if (request.command == "ping") {
    response.payload = "pong";
    return response;
  }
  if (request.command == "stats") {
    response.payload = StatsJson();
    return response;
  }

  if (request.command == "shiplist") return ExecuteShipList(request);
  if (request.command == "ship") return ExecuteShip(request);

  std::shared_ptr<SessionState> session = sessions_.GetOrCreate(request.session);
  if (request.command == "save") return ExecuteSave(request, session.get());
  if (request.explain) {
    // @explain=1: answer with the plan the evaluation would run, without
    // executing it. Never reads or fills the result cache — the point is
    // to see the plan for the live session state.
    std::shared_lock<SessionMutex> lock(session->mutex);
    if (info->Has(CommandInfo::kExplainsQuery)) {
      Status has_query = RequireQuery(*session);
      if (!has_query.ok()) {
        response.status = WireStatus::kErr;
        response.payload = has_query.message();
        return response;
      }
      StatusOr<ExactArgs> args = ParseQueryCommandArgs(
          request.command, session->query, request.args);
      if (!args.ok()) {
        response.status = WireStatus::kErr;
        response.payload = args.status().message();
        return response;
      }
      response.payload = ExplainQueryPlan(session->query, session->db);
      ExactCommand exact;
      if (ParseExactCommand(request.command, &exact)) {
        response.payload +=
            ExplainExactPlan(exact, session->query, session->constraints,
                             session->db, args.value());
      }
      return response;
    }
    if (info->Has(CommandInfo::kExplainsProgram)) {
      StatusOr<std::string> contents = ReadFile(request.args);
      StatusOr<DatalogProgram> program =
          contents.ok() ? ParseDatalogProgram(contents.value())
                        : StatusOr<DatalogProgram>(contents.status());
      if (!program.ok()) {
        response.status = WireStatus::kErr;
        response.payload = program.status().message();
        return response;
      }
      response.payload = ExplainDatalogPlan(program.value(), session->db);
      return response;
    }
    response.status = WireStatus::kErr;
    response.payload = StrCat("@explain=1 is not supported for '",
                              request.command, "'");
    return response;
  }
  CancelToken* token = CurrentCancelToken();
  bool mutation = info->Has(CommandInfo::kMutation);
  bool cacheable = !request.no_cache && !mutation &&
                   info->Has(CommandInfo::kCacheable);

  std::string cache_key;
  StatusOr<std::string> result = std::string();
  bool mutated = false;
  if (mutation) {
    if (read_only()) {
      // Warm standby: replication is the only writer until promotion.
      // UNAVAILABLE keeps the retry contract — nothing was applied.
      ZO_COUNTER_INC("svc.requests.read_only_rejected");
      response.status = WireStatus::kUnavailable;
      response.payload = StrCat("read-only follower: '", request.command,
                                "' not applied; retry after failover");
      return response;
    }
    if (ZO_FAULT_POINT("svc.session.mutate.fail")) {
      // Simulated allocation failure before the mutation starts: the
      // session is untouched, so the client may retry freely.
      ZO_COUNTER_INC("svc.requests.injected_unavailable");
      response.status = WireStatus::kUnavailable;
      response.payload =
          StrCat("injected fault: svc.session.mutate.fail before '",
                 request.command, "'");
      return response;
    }
    std::unique_lock<SessionMutex> lock(session->mutex);
    std::string command = request.command;
    std::string args = request.args;
    if (wal_ != nullptr && command == "load") {
      // Log the file's contents, not its path: replay and shipped
      // replicas must not depend on the primary's filesystem.
      StatusOr<std::string> contents = ReadFile(args);
      if (!contents.ok()) {
        ZO_COUNTER_INC("svc.requests.error");
        response.status = WireStatus::kErr;
        response.payload = contents.status().message();
        return response;
      }
      command = "loaddata";
      args = std::move(contents).value();
    }
    if (wal_ != nullptr) {
      // A record frame above kMaxWalRecordBytes can neither be logged nor
      // shipped to a follower inside one wire payload. Only `load` can
      // produce one (request lines are capped far below it); refuse it
      // with a definitive error — a retry cannot shrink the file.
      const std::size_t payload_bytes =
          command.size() + (args.empty() ? 0 : args.size() + 1);
      if (payload_bytes + kMaxWalHeaderBytes + 1 > kMaxWalRecordBytes) {
        ZO_COUNTER_INC("svc.requests.wal_oversized");
        response.status = WireStatus::kErr;
        response.payload = StrCat(
            "'", request.command, "' payload of ", payload_bytes,
            " bytes exceeds the ", kMaxWalRecordBytes,
            "-byte write-ahead log record cap; split the load or start "
            "the server with --wal=off");
        return response;
      }
    }
    std::uint64_t wal_before = 0;
    bool wal_appended = false;
    if (wal_ != nullptr) {
      // Write-ahead: the record is on disk (fsync'd in fsync ack mode)
      // before the command runs, so an OK response implies durability.
      Status prepared = wal_->Prepare();
      StatusOr<std::uint64_t> appended =
          prepared.ok()
              ? wal_->Append(request.session,
                             WalRecord{session->version + 1, command, args},
                             ack_mode_ == AckMode::kFsync)
              : StatusOr<std::uint64_t>(prepared);
      if (!appended.ok()) {
        ZO_COUNTER_INC("svc.requests.wal_unavailable");
        response.status = WireStatus::kUnavailable;
        response.payload = appended.status().message();
        return response;
      }
      wal_before = *appended;
      wal_appended = true;
    }
    result = RunCommand(session.get(), command, args, &mutated);
    if (mutated) {
      ++session->version;
      // Eager invalidation: results computed against older versions are
      // already unreachable (the version is in the key); erasing them
      // frees their bytes for live entries.
      const std::string prefix = StrCat(request.session, kKeySep);
      cache_.EraseIf([&prefix](std::string_view key) {
        return key.substr(0, prefix.size()) == prefix;
      });
      if (wal_appended) {
        ++session->wal_pending;
        MaybeCompactLocked(request.session, session.get());
      }
    } else if (wal_appended) {
      // The command failed (or was deadline-cancelled) and changed
      // nothing: roll its record back out so the log holds exactly the
      // applied mutations.
      wal_->TruncateTo(request.session, wal_before);
    }
  } else {
    std::shared_lock<SessionMutex> lock(session->mutex);
    // Compiled plans for this read are cached under (session, version):
    // any mutation bumps the version, so a stale plan is unreachable —
    // the same invalidation discipline as the result cache below.
    plan::ScopedPlanScope plan_scope(
        StrCat(request.session, kKeySep, session->version));
    if (cacheable) {
      cache_key = CacheKey(request, session->version,
                           session->has_query ? session->query.ToString()
                                              : std::string());
      std::string cached;
      if (cache_.Get(cache_key, &cached)) {
        response.payload = std::move(cached);
        return response;
      }
    }
    result = RunCommand(session.get(), request.command, request.args,
                        &mutated);
    // Publish while still holding the shared lock: mutations take the
    // exclusive lock, so no version bump + EraseIf can slip in between
    // computing the result and inserting it (which would re-insert an
    // unreachable entry that wastes cache budget until LRU eviction).
    if (cacheable && result.ok() &&
        (token == nullptr || !token->cancelled())) {
      cache_.Put(cache_key, result.value());
    }
  }

  if (token != nullptr && token->cancelled()) {
    // The evaluation was abandoned mid-enumeration; whatever RunCommand
    // returned is partial garbage. Report the partial failure explicitly.
    ZO_COUNTER_INC("svc.requests.deadline_exceeded");
    response.status = WireStatus::kDeadlineExceeded;
    response.payload = StrCat("deadline exceeded during '", request.command,
                              "'; partial result discarded");
    return response;
  }

  if (!result.ok()) {
    ZO_COUNTER_INC("svc.requests.error");
    response.status = WireStatus::kErr;
    response.payload = result.status().message();
    return response;
  }
  response.payload = std::move(result).value();
  ZO_COUNTER_INC("svc.requests.ok");
  return response;
}

Response Dispatcher::ExecuteSave(const Request& request,
                                 SessionState* session) {
  // Persist the session as it stands. Runs under the shared lock, so the
  // snapshot is a consistent (state, version) pair; a failed save changed
  // nothing server-side and is answered UNAVAILABLE so retrying is safe.
  Response response;
  response.id = request.id;
  if (snapshots_ == nullptr) {
    response.status = WireStatus::kErr;
    response.payload =
        "snapshots disabled (no snapshot directory configured)";
    return response;
  }
  std::shared_lock<SessionMutex> lock(session->mutex);
  if (session->persisted_version.load(std::memory_order_acquire) ==
      session->version) {
    // Nothing changed since the last persisted snapshot: answer without
    // rewriting the file (byte-identical payload to a real save).
    ZO_COUNTER_INC("svc.snapshot.save_skipped");
    response.payload =
        StrCat("saved ", request.session, " v", session->version);
    return response;
  }
  Status prepared = snapshots_->Prepare();
  Status saved = prepared.ok() ? snapshots_->Save(request.session, *session)
                               : prepared;
  if (!saved.ok()) {
    ZO_COUNTER_INC("svc.snapshot.save_failed");
    response.status = WireStatus::kUnavailable;
    response.payload = saved.message();
    return response;
  }
  session->persisted_version.store(session->version,
                                   std::memory_order_release);
  response.payload = StrCat("saved ", request.session, " v", session->version);
  return response;
}

Response Dispatcher::ExecuteShipList(const Request& request) {
  Response response;
  response.id = request.id;
  if (wal_ == nullptr) {
    response.status = WireStatus::kErr;
    response.payload =
        "log shipping disabled (no snapshot directory configured)";
    return response;
  }
  std::ostringstream out;
  for (const auto& [name, version] : SessionVersions()) {
    out << name << ' ' << version << '\n';
  }
  response.payload = out.str();
  return response;
}

Response Dispatcher::ExecuteShip(const Request& request) {
  Response response;
  response.id = request.id;
  if (wal_ == nullptr) {
    response.status = WireStatus::kErr;
    response.payload =
        "log shipping disabled (no snapshot directory configured)";
    return response;
  }
  const std::size_t space = request.args.find(' ');
  if (space == std::string::npos) {
    response.status = WireStatus::kErr;
    response.payload = "usage: ship <session> <from_version>";
    return response;
  }
  const std::string name = request.args.substr(0, space);
  StatusOr<std::uint64_t> from = ParseUint64(request.args.substr(space + 1));
  if (!IsValidSessionToken(name) || !from.ok()) {
    response.status = WireStatus::kErr;
    response.payload = "usage: ship <session> <from_version>";
    return response;
  }
  if (ZO_FAULT_POINT("ship.send.fail")) {
    // Simulated shipping failure before any state is read: the follower
    // retries from the same cursor on its next pull.
    ZO_COUNTER_INC("svc.requests.injected_unavailable");
    response.status = WireStatus::kUnavailable;
    response.payload = "injected fault: ship.send.fail during 'ship'";
    return response;
  }
  std::shared_ptr<SessionState> session = sessions_.GetOrCreate(name);
  std::shared_lock<SessionMutex> lock(session->mutex);
  if (*from >= session->version) {
    response.payload = "RECS 0 0\n";  // Follower is caught up.
    return response;
  }
  if (wal_->Exists(name)) {
    // The shared session lock excludes mutations, so the log is stable
    // while we read it.
    WalStore::ReadReport read;
    StatusOr<std::vector<WalRecord>> records = wal_->ReadAll(name, &read);
    if (records.ok() && *from >= read.base_version) {
      std::string frames;
      std::size_t count = 0;
      bool more = false;
      bool oversized = false;
      for (const WalRecord& record : *records) {
        if (record.version <= *from) continue;
        if (frames.size() >= kShipBatchBytes) {
          more = true;  // The follower pulls again immediately.
          break;
        }
        std::string frame = EncodeWalRecord(record);
        if (frame.size() > kMaxWalRecordBytes) {
          // A legacy record from before the append-time cap: shipping it
          // would overflow the wire payload and truncate mid-frame. Fall
          // back to the snapshot path below, which covers it.
          ZO_COUNTER_INC("svc.ship.oversized_records");
          oversized = true;
          break;
        }
        frames += frame;
        ++count;
      }
      if (!oversized) {
        response.payload = StrCat("RECS ", count, " ", more ? 1 : 0, "\n");
        response.payload += frames;
        ZO_COUNTER_INC("svc.ship.batches");
        return response;
      }
    }
  }
  // The log no longer reaches back to the follower's cursor (compacted
  // away, or the session predates its log): ship the full state.
  StatusOr<std::string> image = EncodeSnapshot(name, *session);
  if (!image.ok()) {
    response.status = WireStatus::kErr;
    response.payload = image.status().message();
    return response;
  }
  if (image->size() > kMaxPayloadBytes - 64) {
    response.status = WireStatus::kErr;
    response.payload = StrCat("session '", name, "' snapshot of ",
                              image->size(), " bytes is too large to ship");
    return response;
  }
  response.payload = StrCat("SNAP\n", *image);
  ZO_COUNTER_INC("svc.ship.snapshots");
  return response;
}

std::string Dispatcher::StatsJson() const {
  LruCache::Stats cache = cache_.stats();
  std::ostringstream out;
  out << "{\"cache\": {\"hits\": " << cache.hits
      << ", \"misses\": " << cache.misses
      << ", \"insertions\": " << cache.insertions
      << ", \"evictions\": " << cache.evictions
      << ", \"invalidations\": " << cache.invalidations
      << ", \"oversized_rejections\": " << cache.oversized_rejections
      << ", \"bytes\": " << cache.bytes
      << ", \"entries\": " << cache.entries
      << ", \"capacity_bytes\": " << cache.capacity_bytes << "}"
      << ", \"sessions\": " << sessions_.size()
      << ", \"read_only\": " << (read_only() ? "true" : "false") << "}";
  return out.str();
}

}  // namespace svc
}  // namespace zeroone
