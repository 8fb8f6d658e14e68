// perfbench: one loopback benchmark for MammothDB.
//
//   perfbench --workload point|scan|htap --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--workdir DIR] [--git-sha SHA]
//
// One process starts an epoll server::Server and drives it over loopback
// with four closed-loop server::Client connections (each sends its next
// request only after the previous reply arrived). The tables and every
// request parameter come from --seed; every answer is checked against the
// benchmark's own generator (workload.h), never against the engine.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates traced and untraced half-second slices (their throughput
// ratio is the tracing overhead), then replays a seeded sample of the
// traced statements in-process, layer by layer, at quiescence.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A human-readable report (configuration stamp, metrics with sample
// counts and ratio bases, span table) goes to stderr, and the same detail
// plus every span to files in --workdir.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "compress/compressed_kernels.h"
#include "core/catalog.h"
#include "mal/interpreter.h"
#include "mal/optimizer.h"
#include "parallel/task_pool.h"
#include "scan/shared_scan.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/parser.h"
#include "stats.h"
#include "trace.h"
#include "wal/db.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mammoth::Catalog;
using mammoth::Rng;
using mammoth::mal::QueryResult;
using mammoth::server::Client;
using mammoth::server::PreparedHandle;
using mammoth::server::Server;
using mammoth::server::ServerConfig;
using mammoth::server::ServerStatsSnapshot;

// Fixed configuration: recorded in the output, never derived from the host.
constexpr int kClients = 4;        ///< client threads = connections
constexpr int kHtapReaders = 2;    ///< htap: clients 0..1 read, 2 and 3 write
/// Server kernel TaskPool. One thread: four closed-loop clients already
/// keep the four cores busy with whole queries, and a shared pool of four
/// made each query wait behind another's parallel section. Measured on
/// scan over five seeds, that convoying spread read_p99_ms by 24% (IQR
/// over median) against 7% with a pool of one.
constexpr int kPoolThreads = 1;
constexpr int kWorkers = 4;        ///< reactor worker threads
constexpr int kMaxInflight = 4;    ///< admission bound
/// Set-ups per run (setup_s is their median): at least kSetupReps, and
/// more, up to kSetupMaxReps, until kSetupMinSeconds have been spent, so
/// a set-up of milliseconds is still measured over many repetitions.
constexpr size_t kSetupReps = 3;
constexpr size_t kSetupMaxReps = 25;
constexpr double kSetupMinSeconds = 1.0;
constexpr double kSliceSeconds = 0.5;   ///< traced/untraced alternation
/// Throughput and read percentiles are medians over this many equal time
/// windows of the run, so a host stall in one window does not move them.
/// p99 uses fewer windows when one would average under kReadsPerP99Window
/// reads: a p99 needs 1000 to have ten beyond it, plus margin because the
/// rate varies between windows.
constexpr size_t kWindows = 5;
constexpr size_t kReadsPerP99Window = 1200;
constexpr double kReplaySeconds = 3.0;  ///< replay budget of a traced run
constexpr size_t kReplayMax = 400;      ///< statements replayed at most
constexpr int kHtapTxnEvery = 4;  ///< every 4th reader group is a snapshot txn
constexpr int kTxnInserts = 4;    ///< writer B: INSERTs per transaction
constexpr int kMaxBatchRows = 8;  ///< writer A: rows per INSERT, 1..8

const char* const kPointSql = "SELECT a, b FROM kv WHERE id = ?";

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string workdir = ".bench_build/work";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o->trace = v == "1";
    } else if (k == "--scale") {
      o->tiny = v == "tiny";
    } else if (k == "--workdir") {
      o->workdir = v;
    } else if (k == "--git-sha") {
      o->git_sha = v;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && o->seconds > 0 &&
         (o->workload == "point" || o->workload == "scan" ||
          o->workload == "htap");
}

enum class Role { kPoint, kScan, kHtapReader, kWriterA, kWriterB };

/// A traced read, kept so the replay can run the same statement again.
struct Record {
  uint64_t request = 0;
  bool prepared = false;
  uint64_t stmt_id = 0;
  std::vector<Value> params;
  std::string sql;
  double client_us = 0;
};

/// One client thread: its connection, its seeded stream, what it measured.
struct Worker {
  Worker(int i, Role r, uint64_t seed)
      : index(i), role(r), rng(seed * 1000003 + static_cast<uint64_t>(i)),
        log(static_cast<uint64_t>(i) + 1) {}

  int index;
  Role role;
  Rng rng;
  SpanLog log;
  Client client;
  std::vector<PreparedHandle> handles;  ///< by Kind, or [0] = point lookup
  uint64_t seq = 0;
  uint64_t group = 0;
  int64_t next_key = 0;  ///< writers: next key to insert

  std::vector<Timed> read_ms, write_ms;  ///< (seconds into run, latency)
  std::vector<std::vector<double>> kind_ms =
      std::vector<std::vector<double>>(kKinds);  ///< scan/htap reads by Kind
  uint64_t attempted = 0, failed = 0, warmup_failed = 0;
  uint64_t ops_traced = 0, ops_untraced = 0;
  uint64_t user_bytes = 0;         ///< row bytes written, warm-up included
  uint64_t window_user_bytes = 0;  ///< the same, measured window only
  std::vector<int64_t> acked;  ///< keys of acknowledged inserts
  std::vector<Record> records;
  std::string first_error;
};

/// Inputs shared read-only by all threads.
struct Inputs {
  const Options* opt = nullptr;
  PointData point;
  FactData fact;
};

/// NowUs() when the measured window started (set before clients start).
double g_run_start_us = 0;

/// How one operation ended; the worker books it.
void Book(Worker* w, const Status& st, double start_us, double end_us,
          bool read, bool measured, bool traced) {
  if (!measured) {
    if (!st.ok()) {
      ++w->warmup_failed;
      if (w->first_error.empty()) w->first_error = "warm-up: " + st.ToString();
    }
    return;
  }
  ++w->attempted;
  ++(traced ? w->ops_traced : w->ops_untraced);
  if (!st.ok()) {
    ++w->failed;
    if (w->first_error.empty()) w->first_error = st.ToString();
    return;
  }
  (read ? w->read_ms : w->write_ms)
      .push_back({static_cast<float>((start_us - g_run_start_us) / 1e6),
                  static_cast<float>((end_us - start_us) / 1000.0)});
}

uint64_t RequestId(Worker* w) {
  return (static_cast<uint64_t>(w->index) << 32) | ++w->seq;
}

/// Runs one read (SQL text or EXECUTE), recording its span when traced.
Result<QueryResult> Read(Worker* w, bool prepared, uint64_t stmt_id,
                         const char* sql, std::vector<Value> params,
                         bool traced, uint64_t parent, double* start_us,
                         double* end_us) {
  const uint64_t req = RequestId(w);
  std::string text;
  if (!prepared || traced) text = RenderSql(sql, params);
  PreparedHandle h;
  h.stmt_id = stmt_id;
  h.nparams = static_cast<uint32_t>(params.size());
  *start_us = NowUs();
  Result<QueryResult> r = prepared ? w->client.ExecutePrepared(h, params)
                                   : w->client.Query(text);
  *end_us = NowUs();
  if (traced) {
    w->log.Add(prepared ? "client.execute" : "client.query", w->log.NewId(),
               parent, req, *start_us, *end_us);
    if (r.ok()) {
      w->records.push_back(Record{req, prepared, stmt_id, std::move(params),
                                  std::move(text), *end_us - *start_us});
    }
  }
  return r;
}

void PointOp(Worker* w, const Inputs& in, bool measured, bool traced) {
  const int64_t key = static_cast<int64_t>(w->rng.Uniform(in.point.rows()));
  const bool prepared = w->rng.Uniform(2) == 1;
  double t0 = 0, t1 = 0;
  Result<QueryResult> r = Read(w, prepared, w->handles[0].stmt_id, kPointSql,
                               {Value::Int(key)}, traced, 0, &t0, &t1);
  Book(w, r.ok() ? CheckPoint(in.point, key, *r) : r.status(), t0, t1, true,
       measured, traced);
}

void ScanOp(Worker* w, const Inputs& in, bool measured, bool traced) {
  const int cls = static_cast<int>((w->index + w->group++) % kScanClasses);
  const Query q = MakeScanQuery(in.fact, cls, &w->rng);
  double t0 = 0, t1 = 0;
  Result<QueryResult> r =
      Read(w, false, 0, KindSql(q.kind), q.params, traced, 0, &t0, &t1);
  const Status st = r.ok() ? CheckScan(in.fact, q, *r, false) : r.status();
  Book(w, st, t0, t1, true, measured, traced);
  if (st.ok() && measured) {
    w->kind_ms[static_cast<int>(q.kind)].push_back((t1 - t0) / 1000.0);
  }
}

/// htap reader: prepared scan classes; every kHtapTxnEvery-th group runs
/// two of them inside one read-only BEGIN..COMMIT snapshot transaction.
void HtapReadOp(Worker* w, const Inputs& in, bool measured, bool traced) {
  const bool in_txn = w->group % kHtapTxnEvery == kHtapTxnEvery - 1;
  const uint64_t root = traced && in_txn ? w->log.NewId() : 0;
  const double txn_start = NowUs();
  Status txn_st = Status::OK();
  if (in_txn) txn_st = w->client.Begin();
  for (int i = 0; i < (in_txn ? 2 : 1); ++i) {
    const int cls = static_cast<int>((w->index + w->group) % kScanClasses);
    const Query q = MakeScanQuery(in.fact, cls, &w->rng);
    double t0 = 0, t1 = 0;
    Status st = txn_st;
    if (st.ok()) {
      Result<QueryResult> r =
          Read(w, true, w->handles[static_cast<int>(q.kind)].stmt_id,
               KindSql(q.kind), q.params, traced, root, &t0, &t1);
      st = r.ok() ? CheckScan(in.fact, q, *r, true) : r.status();
    }
    Book(w, st, t0, t1, true, measured, traced);
    if (st.ok() && measured) {
      w->kind_ms[static_cast<int>(q.kind)].push_back((t1 - t0) / 1000.0);
    }
  }
  ++w->group;
  if (in_txn && txn_st.ok()) {
    const Status c = w->client.Commit();
    if (!c.ok()) Book(w, c, 0, 0, true, measured, traced);
  }
  if (root != 0) {
    w->log.Add("client.read_txn", root, 0, RequestId(w), txn_start, NowUs());
  }
}

/// Writer A: one auto-commit INSERT of 1..8 rows into the fact table.
void WriterAOp(Worker* w, const Inputs&, bool measured, bool traced) {
  const int rows = 1 + static_cast<int>(w->rng.Uniform(kMaxBatchRows));
  std::string sql = "INSERT INTO facts VALUES ";
  for (int i = 0; i < rows; ++i) {
    const int run = static_cast<int>(w->rng.Uniform(kRunValues));
    const int lc = static_cast<int>(w->rng.Uniform(kDimRows));
    const int32_t rnd = static_cast<int32_t>(static_cast<uint32_t>(w->rng.Next()));
    const std::string tag = TagName(static_cast<int>(w->rng.Uniform(kTagValues)));
    char row[96];
    std::snprintf(row, sizeof(row), "%s(%lld, %d, %d, %d, '%s')",
                  i > 0 ? ", " : "", static_cast<long long>(w->next_key + i),
                  run, lc, rnd, tag.c_str());
    sql += row;
  }
  const double t0 = NowUs();
  const Status st = w->client.Query(sql).status();
  const double t1 = NowUs();
  if (traced) {
    w->log.Add("client.insert", w->log.NewId(), 0, RequestId(w), t0, t1);
  }
  if (st.ok()) {
    for (int i = 0; i < rows; ++i) w->acked.push_back(w->next_key + i);
    const uint64_t bytes = static_cast<uint64_t>(rows) * (16 + TagName(0).size());
    w->user_bytes += bytes;
    if (measured) w->window_user_bytes += bytes;
  }
  w->next_key += rows;
  Book(w, st, t0, t1, false, measured, traced);
}

/// Writer B: BEGIN; INSERT x4 into its own table; COMMIT.
void WriterBOp(Worker* w, const Inputs&, bool measured, bool traced) {
  const uint64_t req = RequestId(w);
  const uint64_t root = traced ? w->log.NewId() : 0;
  const double t0 = NowUs();
  auto step = [&](const char* name, const std::string& sql) {
    const double s0 = NowUs();
    Status st = w->client.Query(sql).status();
    if (traced) w->log.Add(name, w->log.NewId(), root, req, s0, NowUs());
    return st;
  };
  Status st = step("client.begin", "BEGIN");
  for (int i = 0; i < kTxnInserts && st.ok(); ++i) {
    st = step("client.insert",
              "INSERT INTO orders VALUES (" +
                  std::to_string(w->next_key + i) + ", " +
                  std::to_string(w->rng.Uniform(1000)) + ")");
  }
  if (st.ok()) {
    st = step("client.commit", "COMMIT");
  } else {
    (void)w->client.Rollback();
  }
  const double t1 = NowUs();
  if (traced) w->log.Add("client.txn", root, 0, req, t0, t1);
  if (st.ok()) {
    for (int i = 0; i < kTxnInserts; ++i) w->acked.push_back(w->next_key + i);
    w->user_bytes += kTxnInserts * 12;
    if (measured) w->window_user_bytes += kTxnInserts * 12;
  }
  w->next_key += kTxnInserts;
  Book(w, st, t0, t1, false, measured, traced);
}

void RunOp(Worker* w, const Inputs& in, bool measured, bool traced) {
  switch (w->role) {
    case Role::kPoint: return PointOp(w, in, measured, traced);
    case Role::kScan: return ScanOp(w, in, measured, traced);
    case Role::kHtapReader: return HtapReadOp(w, in, measured, traced);
    case Role::kWriterA: return WriterAOp(w, in, measured, traced);
    case Role::kWriterB: return WriterBOp(w, in, measured, traced);
  }
}

/// One set-up: a loaded server with connected, warmed-up clients.
struct Rig {
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Worker>> workers;
  std::string db_dir;

  ~Rig() {
    for (auto& w : workers) w->client.Close();
    if (server != nullptr) server->Stop();
  }
};

ServerConfig FixedServerConfig() {
  ServerConfig c;
  c.threads = kPoolThreads;
  c.workers = kWorkers;
  c.admission.max_inflight = kMaxInflight;
  c.admission.queue_timeout_ms = 60000;
  c.max_sessions = 16;
  return c;
}

Role RoleOf(const std::string& workload, int i) {
  if (workload == "point") return Role::kPoint;
  if (workload == "scan") return Role::kScan;
  if (i < kHtapReaders) return Role::kHtapReader;
  return i == kHtapReaders ? Role::kWriterA : Role::kWriterB;
}

Result<std::unique_ptr<Rig>> SetUp(const Inputs& in) {
  const Options& o = *in.opt;
  auto rig = std::make_unique<Rig>();
  ServerConfig cfg = FixedServerConfig();
  const bool htap = o.workload == "htap";
  if (htap) {
    rig->db_dir = (fs::path(o.workdir) / "htap_db").string();
    std::error_code ec;
    fs::remove_all(rig->db_dir, ec);
    cfg.db_dir = rig->db_dir;
  }
  rig->server = std::make_unique<Server>(cfg);
  Server* s = rig->server.get();
  if (htap) MAMMOTH_RETURN_IF_ERROR(s->OpenDurableStorage());
  Catalog* cat = s->engine()->catalog();
  if (o.workload == "point") {
    MAMMOTH_ASSIGN_OR_RETURN(TablePtr kv, in.point.MakeTable());
    MAMMOTH_RETURN_IF_ERROR(cat->Register(kv));
  } else {
    MAMMOTH_ASSIGN_OR_RETURN(TablePtr facts, in.fact.MakeFactTable());
    MAMMOTH_ASSIGN_OR_RETURN(TablePtr dims, in.fact.MakeDimTable());
    MAMMOTH_RETURN_IF_ERROR(cat->Register(facts));
    MAMMOTH_RETURN_IF_ERROR(cat->Register(dims));
  }
  if (htap) {
    MAMMOTH_ASSIGN_OR_RETURN(
        TablePtr orders,
        mammoth::Table::Create("orders", {{"oid", mammoth::PhysType::kInt64},
                                          {"amount", mammoth::PhysType::kInt32}}));
    MAMMOTH_RETURN_IF_ERROR(cat->Register(orders));
    // Tables registered directly are not in the log; a checkpoint makes
    // them the durable base image.
    MAMMOTH_RETURN_IF_ERROR(s->engine()->Execute("CHECKPOINT").status());
  }
  MAMMOTH_RETURN_IF_ERROR(s->Start());

  for (int i = 0; i < kClients; ++i) {
    auto w = std::make_unique<Worker>(i, RoleOf(o.workload, i), o.seed);
    MAMMOTH_ASSIGN_OR_RETURN(w->client, Client::Connect("127.0.0.1", s->port()));
    if (w->role == Role::kPoint) {
      MAMMOTH_ASSIGN_OR_RETURN(PreparedHandle h, w->client.Prepare(kPointSql));
      w->handles.push_back(h);
    } else if (w->role == Role::kHtapReader) {
      for (int k = 0; k < kKinds; ++k) {
        MAMMOTH_ASSIGN_OR_RETURN(PreparedHandle h,
                                 w->client.Prepare(KindSql(static_cast<Kind>(k))));
        w->handles.push_back(h);
      }
    }
    w->next_key = static_cast<int64_t>(in.fact.rows());
    rig->workers.push_back(std::move(w));
  }

  // Warm-up, outside the measurement: every client runs each of its
  // statement shapes (filling plan and decode caches) before timing.
  for (auto& w : rig->workers) {
    const int rounds = w->role == Role::kPoint ? 64
                       : w->role == Role::kScan || w->role == Role::kHtapReader
                           ? 2 * kScanClasses
                           : 2;
    for (int i = 0; i < rounds; ++i) RunOp(w.get(), in, false, false);
  }
  return rig;
}

/// Server-side counters over the measured window.
struct Window {
  ServerStatsSnapshot before, after;
  mammoth::compress::KernelStats kbefore, kafter;
};

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Bytes the engine holds in memory for `t`'s columns: plain tails, string
/// heaps, codec streams and dictionaries, and pinned decode caches.
uint64_t TableBytes(const mammoth::Table& t) {
  uint64_t bytes = t.CompressedBytesTotal() + t.CompressedCacheBytesTotal();
  for (size_t i = 0; i < t.NumColumns(); ++i) {
    const mammoth::BatPtr& m = t.MainColumn(i);
    if (m == nullptr) continue;
    bytes += m->PayloadBytes();
    if (m->heap() != nullptr) bytes += m->heap()->ByteSize();
  }
  return bytes;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count / ratio base, for the report
};

void AddRatio(std::vector<Metric>* out, const std::string& name,
              const std::string& unit, Ratio r, const std::string& base_unit) {
  out->push_back({name, r.value(), unit, r.ToString()});
  out->push_back({name + ".base", r.den, base_unit, ""});
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Per-name medians of the replayed layer spans, plus self time.
struct LayerTimes {
  std::map<std::string, std::vector<double>> dur, self;
  double Median(const std::string& name) const {
    auto it = dur.find(name);
    return it == dur.end() ? 0.0 : perfbench::Median(it->second);
  }
};

LayerTimes Summarize(const std::vector<Span>& spans) {
  LayerTimes t;
  const std::vector<double> self = SelfTimes(spans);
  // Spans of one name inside one request are summed first (a statement
  // binds several columns; a transaction has several inserts).
  std::map<std::pair<std::string, uint64_t>, std::pair<double, double>> per;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& p = per[{spans[i].name, spans[i].request}];
    p.first += spans[i].duration();
    p.second += self[i];
  }
  for (const auto& [key, v] : per) {
    t.dur[key.first].push_back(v.first);
    t.self[key.first].push_back(v.second);
  }
  return t;
}

struct ReplayResult {
  std::vector<Span> spans;
  std::vector<double> frontend_us;
  uint64_t statements = 0, instructions = 0;
  double run_us_total = 0;
  Status status = Status::OK();
};

/// In-process replay of a seeded sample of traced reads, at quiescence:
/// the whole statement through Engine::ExecuteSession (or the prepared
/// twin), then the same statement layer by layer.
ReplayResult Replay(Server* s, std::vector<Record> records, uint64_t seed,
                    uint32_t caps) {
  ReplayResult out;
  Rng rng(seed * 7919 + 5);
  for (size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.Uniform(i)]);
  }
  mammoth::sql::Engine* engine = s->engine();
  Catalog* cat = engine->catalog();
  mammoth::sql::SessionPtr session = engine->CreateSession();
  // The server's execution context, rebuilt: a pool of the same size and a
  // shared-scan scheduler with the same configuration.
  mammoth::parallel::TaskPool pool(kPoolThreads);
  mammoth::scan::SharedScanScheduler scans(FixedServerConfig().shared_scan);
  const mammoth::parallel::ExecContext ctx =
      mammoth::parallel::ExecContext(&pool).WithSharedScans(&scans);
  SpanLog log(1000);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(kReplaySeconds));
  for (const Record& r : records) {
    if (out.statements >= kReplayMax ||
        (out.statements >= 5 && std::chrono::steady_clock::now() > deadline)) {
      break;
    }
    const uint64_t req = r.request;
    const double e0 = NowUs();
    Result<QueryResult> full =
        r.prepared
            ? engine->ExecutePreparedSession(session, r.stmt_id, r.params,
                                             ctx)
            : engine->ExecuteSession(session, r.sql, ctx);
    const double e1 = NowUs();
    log.Add("sql.execute", log.NewId(), 0, req, e0, e1);
    if (!full.ok()) {
      out.status = full.status();
      break;
    }
    out.frontend_us.push_back(r.client_us - (e1 - e0));

    ScopedSpan root(&log, "replay.layers", 0, req);
    Result<mammoth::sql::Statement> st(Status::OK());
    {
      ScopedSpan sp(&log, "sql.parse", root.id(), req);
      st = mammoth::sql::Parse(r.sql);
    }
    if (!st.ok() || !std::holds_alternative<mammoth::sql::SelectStmt>(*st)) {
      out.status = st.ok() ? Status::Internal("replay: not a SELECT")
                           : st.status();
      break;
    }
    Result<mammoth::mal::Program> prog(Status::OK());
    {
      ScopedSpan sp(&log, "sql.compile", root.id(), req);
      prog = engine->Compile(std::get<mammoth::sql::SelectStmt>(*st));
    }
    if (!prog.ok()) {
      out.status = prog.status();
      break;
    }
    {
      ScopedSpan sp(&log, "mal.optimize", root.id(), req);
      mammoth::mal::OptimizePipeline(&*prog);
    }
    mammoth::mal::RunStats rs;
    {
      const double r0 = NowUs();
      ScopedSpan sp(&log, "mal.run", root.id(), req);
      mammoth::mal::Interpreter interp(cat, nullptr, ctx);
      Result<QueryResult> run = interp.Run(*prog, &rs);
      if (!run.ok()) out.status = run.status();
      out.run_us_total += NowUs() - r0;
    }
    out.instructions += rs.instructions;
    for (const auto& ins : prog->instrs()) {
      if (ins.op != mammoth::mal::OpCode::kBind) continue;
      ScopedSpan sp(&log, "core.scan_column", root.id(), req);
      Result<TablePtr> t = cat->Get(ins.table);
      if (t.ok()) (void)(*t)->ScanColumn(ins.column);
    }
    Result<std::string> payload(std::string{});
    {
      ScopedSpan sp(&log, "server.encode", root.id(), req);
      payload = mammoth::server::EncodeResult(*full, caps);
    }
    if (!payload.ok()) {
      out.status = payload.status();
      break;
    }
    {
      ScopedSpan sp(&log, "server.decode", root.id(), req);
      Result<QueryResult> back = mammoth::server::DecodeResult(*payload);
      if (!back.ok()) out.status = back.status();
    }
    ++out.statements;
    if (!out.status.ok()) break;
  }
  out.spans = std::move(log.mutable_spans());
  return out;
}

/// Post-run durability check of htap: recover the db_dir into a fresh
/// catalog, compare it with the live one, and find every acknowledged
/// key exactly once. Returns the number of wrong keys (0 when correct).
uint64_t CheckDurable(Server* s, const Rig& rig, const Inputs& in,
                      double* recovery_s, std::string* error) {
  Catalog recovered;
  const auto t0 = std::chrono::steady_clock::now();
  Result<mammoth::wal::RecoveryInfo> info =
      mammoth::wal::Recover(rig.db_dir, &recovered);
  *recovery_s = Seconds(std::chrono::steady_clock::now() - t0);
  if (!info.ok()) {
    *error = "recovery: " + info.status().ToString();
    return 1;
  }
  Status cmp = mammoth::wal::CompareCatalogs(*s->engine()->catalog(), recovered);
  if (!cmp.ok()) {
    *error = "recovered catalog differs: " + cmp.ToString();
    return 1;
  }
  uint64_t wrong = 0;
  auto check = [&](const char* table, const char* column, int64_t min_key,
                   std::vector<int64_t> want) {
    Result<TablePtr> t = recovered.Get(table);
    Result<mammoth::BatPtr> col =
        t.ok() ? (*t)->ScanColumn(column) : Result<mammoth::BatPtr>(t.status());
    if (!col.ok()) {
      *error = std::string("durability check: ") + col.status().ToString();
      ++wrong;
      return;
    }
    std::vector<int64_t> got;
    for (size_t i = 0; i < (*col)->Count(); ++i) {
      const int64_t v = IntAt(**col, i);
      if (v >= min_key) got.push_back(v);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      *error = std::string("acknowledged keys of ") + table + ": " +
               std::to_string(got.size()) + " present, " +
               std::to_string(want.size()) + " acknowledged";
      wrong += std::max<uint64_t>(1, got.size() > want.size()
                                         ? got.size() - want.size()
                                         : want.size() - got.size());
    }
  };
  std::vector<int64_t> fact_keys, order_keys;
  for (const auto& w : rig.workers) {
    auto& dst = w->role == Role::kWriterA ? fact_keys : order_keys;
    if (w->role == Role::kWriterA || w->role == Role::kWriterB) {
      dst.insert(dst.end(), w->acked.begin(), w->acked.end());
    }
  }
  check("facts", "k", static_cast<int64_t>(in.fact.rows()), fact_keys);
  check("orders", "oid", std::numeric_limits<int64_t>::min(), order_keys);
  return wrong;
}

int Main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload point|scan|htap --seed N "
                 "--seconds S --trace 0|1 [--scale full|tiny] [--workdir D] "
                 "[--git-sha SHA]\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(opt.workdir, ec);

  // Inputs: generated once from the seed (the generator is the
  // benchmark's own work, outside setup_s).
  const Sizes sizes = SizesFor(opt.tiny);
  Inputs in;
  in.opt = &opt;
  const bool point = opt.workload == "point";
  const bool htap = opt.workload == "htap";
  if (point) {
    in.point = PointData::Generate(sizes.point_rows, opt.seed);
  } else {
    in.fact = FactData::Generate(sizes.fact_rows, sizes.blocks, opt.seed);
  }
  const double generate_s = Seconds(std::chrono::steady_clock::now() - process_start);

  // Set up several times; measure on the last set-up.
  std::vector<double> setup_s;
  double setup_total = 0;
  std::unique_ptr<Rig> rig;
  while (setup_s.size() < kSetupReps ||
         (setup_total < kSetupMinSeconds && setup_s.size() < kSetupMaxReps)) {
    rig.reset();
    const auto t0 = std::chrono::steady_clock::now();
    Result<std::unique_ptr<Rig>> r = SetUp(in);
    if (!r.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    rig = std::move(*r);
    setup_s.push_back(Seconds(std::chrono::steady_clock::now() - t0));
    setup_total += setup_s.back();
  }
  Server* server = rig->server.get();

  // Measured window: all clients start together and stop at the deadline.
  Window win;
  win.before = server->stats();
  win.kbefore = mammoth::compress::GetKernelStats();
  const auto start = std::chrono::steady_clock::now();
  g_run_start_us = NowUs();
  const auto duration =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opt.seconds));
  std::vector<std::thread> threads;
  for (auto& wp : rig->workers) {
    Worker* w = wp.get();
    threads.emplace_back([w, &in, &opt, start, duration] {
      for (;;) {
        const auto now = std::chrono::steady_clock::now();
        if (now - start >= duration) break;
        const bool traced =
            opt.trace &&
            static_cast<int64_t>(Seconds(now - start) / kSliceSeconds) % 2 == 1;
        RunOp(w, in, true, traced);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = Seconds(std::chrono::steady_clock::now() - start);
  win.after = server->stats();
  win.kafter = mammoth::compress::GetKernelStats();

  // Gather what the clients measured.
  std::vector<Timed> read_ms, write_ms;
  std::vector<std::vector<double>> kind_ms(kKinds);
  uint64_t attempted = 0, failed = 0, warmup_failed = 0, user_bytes = 0;
  uint64_t window_user_bytes = 0;
  uint64_t ops_traced = 0, ops_untraced = 0, reads = 0;
  std::vector<Record> records;
  std::vector<Span> spans;
  std::string first_error;
  for (auto& w : rig->workers) {
    read_ms.insert(read_ms.end(), w->read_ms.begin(), w->read_ms.end());
    write_ms.insert(write_ms.end(), w->write_ms.begin(), w->write_ms.end());
    std::vector<Timed>().swap(w->read_ms);  // keep peak_rss_mb the engine's
    std::vector<Timed>().swap(w->write_ms);
    for (int k = 0; k < kKinds; ++k) {
      kind_ms[k].insert(kind_ms[k].end(), w->kind_ms[k].begin(),
                        w->kind_ms[k].end());
    }
    attempted += w->attempted;
    failed += w->failed;
    warmup_failed += w->warmup_failed;
    user_bytes += w->user_bytes;
    window_user_bytes += w->window_user_bytes;
    ops_traced += w->ops_traced;
    ops_untraced += w->ops_untraced;
    records.insert(records.end(), w->records.begin(), w->records.end());
    spans.insert(spans.end(), w->log.spans().begin(), w->log.spans().end());
    if (first_error.empty()) first_error = w->first_error;
  }
  for (auto& w : rig->workers) {
    if (w->role != Role::kWriterA && w->role != Role::kWriterB) {
      reads += w->attempted;
    }
  }

  // Correctness beyond the per-answer checks.
  double recovery_s = 0;
  std::string durable_error;
  if (htap) {
    const uint64_t wrong = CheckDurable(server, *rig, in, &recovery_s,
                                        &durable_error);
    failed += wrong;
    if (first_error.empty()) first_error = durable_error;
  }

  // Space: the db_dir for htap, in-memory column storage otherwise.
  Catalog* cat = server->engine()->catalog();
  uint64_t held = 0, live_rows = 0, pending_rows = 0;
  for (const std::string& name : cat->TableNames()) {
    Result<TablePtr> t = cat->Get(name);
    if (!t.ok()) continue;
    held += TableBytes(**t);
    live_rows += (*t)->VisibleRowCount();
    pending_rows += (*t)->PendingInsertCount();
  }
  if (htap) held = DirBytes(rig->db_dir);
  const uint64_t logical =
      (point ? in.point.LogicalBytes() : in.fact.LogicalBytes()) + user_bytes;

  // The traced run's in-process replay.
  ReplayResult replay;
  if (opt.trace) {
    replay = Replay(server, records, opt.seed, rig->workers[0]->client.caps());
    if (!replay.status.ok()) {
      ++failed;
      if (first_error.empty()) {
        first_error = "replay: " + replay.status.ToString();
      }
    }
    spans.insert(spans.end(), replay.spans.begin(), replay.spans.end());
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  const size_t p99_windows =
      std::clamp<size_t>(read_ms.size() / kReadsPerP99Window, 1, kWindows);
  const Percentile rp50 = WindowedPercentile(read_ms, elapsed, kWindows, 0.50);
  const Percentile rp99 =
      WindowedPercentile(read_ms, elapsed, p99_windows, 0.99);
  std::vector<Timed> done = std::move(read_ms);  // every completed op
  done.insert(done.end(), write_ms.begin(), write_ms.end());
  std::vector<double> write_values;
  for (const Timed& w : write_ms) write_values.push_back(w.value);
  const Percentile wp50 = PercentileOf(write_values, 0.50);
  const Percentile wp99 = PercentileOf(write_values, 0.99);
  auto pct_note = [](const Percentile& p, size_t windows) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "p%.4g of n=%zu%s, %zu beyond%s",
                  p.p * 100, p.n,
                  windows > 1 ? (", median of " + std::to_string(windows) +
                                 " windows, fewest")
                                    .c_str()
                              : "",
                  p.beyond,
                  p.supported ? "" : " (requested rank unsupported)");
    return std::string(buf);
  };

  std::vector<Metric> e2e = {
      {"throughput_ops_s", WindowedRate(done, elapsed, kWindows), "1/s",
       "median of " + std::to_string(kWindows) + " windows; " +
           std::to_string(done.size()) + " ops in " + Fmt(elapsed) + " s"},
      {"read_p50_ms", rp50.value, "ms", pct_note(rp50, kWindows)},
      {"read_p99_ms", rp99.value, "ms", pct_note(rp99, p99_windows)},
      {"setup_s", Median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"peak_rss_mb", peak_rss_mb, "MB", ""},
      {"space_amp", static_cast<double>(held) / static_cast<double>(logical),
       "ratio", std::to_string(held) + " held / " + std::to_string(logical) +
                    " logical bytes"},
  };

  // Per-layer metrics (meaningful in the traced run; counters come from
  // the measured window, span timings from the replay).
  std::vector<Metric> layer;
  const ServerStatsSnapshot& a = win.before;
  const ServerStatsSnapshot& b = win.after;
  const double ops = static_cast<double>(attempted);
  const double nreads = static_cast<double>(reads);
  const LayerTimes lt = Summarize(replay.spans);
  auto med = [&](const char* n) { return lt.Median(n); };
  const std::string replayed =
      "median of " + std::to_string(replay.statements) + " replayed";
  layer.push_back({"server.frontend_us", Median(replay.frontend_us), "us",
                   replayed});
  layer.push_back({"server.encode_us", med("server.encode"), "us", replayed});
  layer.push_back({"server.decode_us", med("server.decode"), "us", replayed});
  AddRatio(&layer, "server.bytes_out_per_op", "bytes",
           {static_cast<double>(b.bytes_out - a.bytes_out), ops}, "ops");
  AddRatio(&layer, "server.admission_queued_ratio", "ratio",
           {static_cast<double>(b.admission.queued_total -
                                a.admission.queued_total),
            static_cast<double>(b.admission.admitted - a.admission.admitted)},
           "admitted");
  layer.push_back({"sql.parse_us", med("sql.parse"), "us", replayed});
  layer.push_back({"sql.compile_us", med("sql.compile"), "us", replayed});
  layer.push_back({"sql.execute_us", med("sql.execute"), "us", replayed});
  AddRatio(&layer, "sql.prepared_hit_ratio", "ratio",
           {static_cast<double>(b.prepared.hits - a.prepared.hits),
            static_cast<double>(b.prepared.hits - a.prepared.hits +
                                b.prepared.misses - a.prepared.misses)},
           "lookups");
  layer.push_back({"mal.optimize_us", med("mal.optimize"), "us", replayed});
  layer.push_back({"mal.run_us", med("mal.run"), "us", replayed});
  layer.push_back({"mal.instructions",
                   replay.statements == 0
                       ? 0.0
                       : static_cast<double>(replay.instructions) /
                             static_cast<double>(replay.statements),
                   "count", "mean per replayed statement"});
  AddRatio(&layer, "mal.us_per_instruction", "us",
           {replay.run_us_total, static_cast<double>(replay.instructions)},
           "instructions");
  layer.push_back({"core.scan_column_us", med("core.scan_column"), "us",
                   replayed + ", summed over bound columns"});
  layer.push_back({"core.pending_rows", static_cast<double>(pending_rows),
                   "count", "live rows " + std::to_string(live_rows)});
  layer.push_back({"core.live_rows", static_cast<double>(live_rows), "count", ""});
  const auto& ka = win.kbefore;
  const auto& kb = win.kafter;
  AddRatio(&layer, "compress.select_direct_ratio", "ratio",
           {static_cast<double>(kb.selects_direct - ka.selects_direct),
            static_cast<double>(kb.selects_direct - ka.selects_direct +
                                kb.selects_fallback - ka.selects_fallback)},
           "selects");
  AddRatio(&layer, "compress.aggr_direct_ratio", "ratio",
           {static_cast<double>(kb.aggrs_direct - ka.aggrs_direct),
            static_cast<double>(kb.aggrs_direct - ka.aggrs_direct +
                                kb.aggrs_fallback - ka.aggrs_fallback)},
           "aggregates");
  AddRatio(&layer, "compress.bounded_bytes_per_query", "bytes",
           {static_cast<double>(kb.project_bounded_bytes -
                                ka.project_bounded_bytes),
            nreads},
           "reads");
  const auto& sa = a.shared_scans;
  const auto& sb = b.shared_scans;
  AddRatio(&layer, "scan.loads_per_query", "count",
           {static_cast<double>(sb.chunks_loaded - sa.chunks_loaded +
                                sb.chunks_direct - sa.chunks_direct),
            nreads},
           "reads");
  AddRatio(&layer, "scan.skip_ratio", "ratio",
           {static_cast<double>(sb.chunks_skipped - sa.chunks_skipped),
            static_cast<double>(sb.chunks_skipped - sa.chunks_skipped +
                                sb.chunks_delivered - sa.chunks_delivered)},
           "chunks");
  AddRatio(&layer, "scan.bytes_loaded_per_query", "bytes",
           {static_cast<double>(sb.bytes_loaded - sa.bytes_loaded), nreads},
           "reads");
  AddRatio(&layer, "txn.conflict_ratio", "ratio",
           {static_cast<double>(b.txn.conflicts - a.txn.conflicts),
            static_cast<double>(b.txn.committed - a.txn.committed +
                                b.txn.conflicts - a.txn.conflicts)},
           "attempts");
  AddRatio(&layer, "wal.fsyncs_per_commit", "ratio",
           {static_cast<double>(b.wal.fsyncs - a.wal.fsyncs),
            static_cast<double>(b.wal.commits_synced - a.wal.commits_synced)},
           "commits");
  AddRatio(&layer, "wal.bytes_per_user_byte", "ratio",
           {static_cast<double>(b.wal.bytes_logged - a.wal.bytes_logged),
            static_cast<double>(window_user_bytes)},
           "bytes");
  layer.push_back({"wal.checkpoints",
                   static_cast<double>(b.wal.checkpoints - a.wal.checkpoints),
                   "count", "during the measured window"});
  layer.push_back({"wal.log_bytes_since_checkpoint",
                   static_cast<double>(b.wal.next_lsn - b.wal.checkpoint_lsn),
                   "bytes", "at the end of the run"});
  // Tracing overhead: throughput of traced vs untraced slices.
  double traced_s = 0, untraced_s = opt.trace ? 0 : elapsed;
  for (int64_t i = 0; opt.trace && i * kSliceSeconds < elapsed; ++i) {
    const double len = std::min(kSliceSeconds, elapsed - i * kSliceSeconds);
    (i % 2 == 1 ? traced_s : untraced_s) += len;
  }
  const double tput_traced = traced_s > 0 ? ops_traced / traced_s : 0;
  const double tput_untraced = untraced_s > 0 ? ops_untraced / untraced_s : 0;
  layer.push_back({"trace.throughput_traced_ops_s", tput_traced, "1/s",
                   std::to_string(ops_traced) + " ops in " + Fmt(traced_s) + " s"});
  layer.push_back({"trace.throughput_untraced_ops_s", tput_untraced, "1/s",
                   std::to_string(ops_untraced) + " ops in " + Fmt(untraced_s) +
                       " s"});
  AddRatio(&layer, "trace.overhead_ratio", "ratio",
           {tput_untraced - tput_traced, tput_untraced}, "ops/s");
  // Metrics of one workload only (0 elsewhere), and the failure ratio,
  // which is 0 when the code is correct.
  layer.push_back({"e2e.write_p50_ms", wp50.value, "ms", pct_note(wp50, 1)});
  layer.push_back({"e2e.write_p99_ms", wp99.value, "ms", pct_note(wp99, 1)});
  layer.push_back({"e2e.recovery_s", recovery_s, "s", "wal::Recover of the db_dir"});
  AddRatio(&layer, "e2e.failed_ratio", "ratio",
           {static_cast<double>(failed), static_cast<double>(attempted)},
           "ops");

  const bool correct = failed == 0 && warmup_failed == 0;

  // Report to stderr.
  std::fprintf(stderr,
               "perfbench %s seed=%llu seconds=%g trace=%d | git %s, build %s, "
               "nproc %ld | rows: %s | server: pool %d, workers %d, admission "
               "%d, clients %d | generate %.3f s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? 1 : 0, opt.git_sha.c_str(),
               PERFBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN),
               point ? ("kv=" + std::to_string(in.point.rows())).c_str()
                     : ("facts=" + std::to_string(in.fact.rows()) +
                        " dims=" + std::to_string(kDimRows))
                           .c_str(),
               kPoolThreads, kWorkers, kMaxInflight, kClients, generate_s);
  for (const auto& list : {e2e, layer}) {
    for (const Metric& m : list) {
      if (m.name.size() > 5 && m.name.compare(m.name.size() - 5, 5, ".base") == 0) {
        continue;
      }
      std::fprintf(stderr, "  %-34s %14s %-6s %s\n", m.name.c_str(),
                   Fmt(m.value).c_str(), m.unit.c_str(), m.note.c_str());
    }
  }
  for (int k = 0; k < kKinds; ++k) {
    if (kind_ms[k].empty()) continue;
    const Percentile p50 = PercentileOf(kind_ms[k], 0.50);
    const Percentile p99 = PercentileOf(kind_ms[k], 0.99);
    std::fprintf(stderr, "  read %-12s n=%-7zu p50 %.3f ms, %s %.3f ms\n",
                 KindName(static_cast<Kind>(k)), p50.n, p50.value,
                 p99.supported ? "p99" : "tail", p99.value);
  }
  if (opt.trace) {
    std::fprintf(stderr, "  %-22s %8s %12s %12s\n", "span", "count",
                 "median_us", "self_us");
    const LayerTimes all = Summarize(spans);
    for (const auto& [name, v] : all.dur) {
      std::fprintf(stderr, "  %-22s %8zu %12.1f %12.1f\n", name.c_str(),
                   v.size(), Median(v), Median(all.self.at(name)));
    }
  }
  std::fprintf(stderr, "  attempted %llu, failed %llu, warm-up failed %llu%s%s\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(warmup_failed),
               first_error.empty() ? "" : ", first error: ",
               first_error.c_str());

  // Detail and spans to files, the result line to stdout.
  const std::string tag = opt.workload + (opt.trace ? "_traced" : "");
  {
    std::ofstream f(fs::path(opt.workdir) / ("result_" + tag + ".json"));
    f << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"git_sha\": \"" << JsonEscape(opt.git_sha)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"rows\": {\"kv\": " << (point ? in.point.rows() : 0)
      << ", \"facts\": " << (point ? 0 : in.fact.rows())
      << ", \"dims\": " << (point ? 0 : kDimRows)
      << "}, \"server\": {\"pool_threads\": " << kPoolThreads
      << ", \"workers\": " << kWorkers << ", \"max_inflight\": " << kMaxInflight
      << ", \"clients\": " << kClients << "}, \"metrics\": [";
    bool first = true;
    for (const auto& list : {e2e, layer}) {
      for (const Metric& m : list) {
        f << (first ? "" : ", ") << "{\"name\": \"" << m.name
          << "\", \"value\": " << Fmt(m.value) << ", \"unit\": \"" << m.unit
          << "\", \"note\": \"" << JsonEscape(m.note) << "\"}";
        first = false;
      }
    }
    f << "]}\n";
  }
  if (opt.trace) {
    std::ofstream f(fs::path(opt.workdir) / ("spans_" + tag + ".jsonl"));
    for (const Span& s : spans) {
      f << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_us\": " << Fmt(s.start_us)
        << ", \"end_us\": " << Fmt(s.end_us) << "}\n";
    }
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : opt.trace ? layer : e2e) {
    line += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            Fmt(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  rig.reset();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
