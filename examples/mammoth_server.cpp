// The MammothDB network server: binds a TCP port, speaks the wire.h
// protocol through its epoll front-end (one event loop, a bounded worker
// pool) and runs every session against one shared sql::Engine.
//
//   ./build/examples/mammoth_server --port 50517 --init warmup.sql
//
// Flags:
//   --host <addr>       bind address          (default 127.0.0.1)
//   --port <n>          port, 0 = ephemeral   (default 50517)
//   --sessions <n>      max concurrent sessions        (default 32)
//   --inflight <n>      max concurrently executing queries (default 4)
//   --timeout-ms <n>    admission queue timeout        (default 5000)
//   --threads <n>       kernel TaskPool workers, 0 = hardware (default 0)
//   --workers <n>       reactor worker pool size, 0 = from --inflight
//   --max-pipeline <n>  per-connection in-flight request bound (default 32)
//   --init <file>       SQL script executed before accepting connections
//                       (with --db-dir: only when the directory is fresh —
//                       a recovered catalog is never re-seeded)
//   --db-dir <dir>      durable database directory: recovered on startup,
//                       every DDL/DML write-ahead-logged with group commit
//   --checkpoint-bytes <n>  log bytes between automatic checkpoints
//                           (0 = only explicit CHECKPOINT; default 64 MiB)
//   --no-group-commit   one fsync per commit (benchmark baseline)
//   --replicate-from <host:port>  start as a read replica of that
//                       primary: engine is read-only (SELECTs only),
//                       fed from the primary's WAL stream; PROMOTE
//                       turns it into a writable primary (with
//                       --db-dir: a durable one, at the replayed LSN)
//   --no-semi-sync      primary acks commits without waiting for a
//                       replica to replay them (async replication)
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight queries drain,
// new connections and queries are rejected with a typed Error frame,
// then the process exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace mammoth;

  server::ServerConfig config;
  config.port = 50517;
  std::string init_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto need = [&](const char* flag) {
      if (value == nullptr) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      ++i;
      return value;
    };
    if (arg == "--host") {
      config.host = need("--host");
    } else if (arg == "--port") {
      config.port = static_cast<uint16_t>(std::atoi(need("--port")));
    } else if (arg == "--sessions") {
      config.max_sessions = std::atoi(need("--sessions"));
    } else if (arg == "--inflight") {
      config.admission.max_inflight = std::atoi(need("--inflight"));
    } else if (arg == "--timeout-ms") {
      config.admission.queue_timeout_ms = std::atoi(need("--timeout-ms"));
    } else if (arg == "--threads") {
      config.threads = std::atoi(need("--threads"));
    } else if (arg == "--workers") {
      config.workers = std::atoi(need("--workers"));
    } else if (arg == "--max-pipeline") {
      config.max_pipeline = std::atoi(need("--max-pipeline"));
    } else if (arg == "--init") {
      init_file = need("--init");
    } else if (arg == "--db-dir") {
      config.db_dir = need("--db-dir");
    } else if (arg == "--checkpoint-bytes") {
      config.db.wal.checkpoint_log_bytes =
          static_cast<size_t>(std::atoll(need("--checkpoint-bytes")));
    } else if (arg == "--no-group-commit") {
      config.db.wal.group_commit = false;
    } else if (arg == "--replicate-from") {
      config.replicate_from = need("--replicate-from");
    } else if (arg == "--no-semi-sync") {
      config.repl_semi_sync = false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  server::Server server(config);
  if (!config.replicate_from.empty()) {
    // Replica role: the catalog comes from the primary's WAL stream, so
    // neither recovery nor the init script runs here. With --db-dir the
    // directory stays untouched until PROMOTE re-anchors a fresh WAL in
    // it at the replayed LSN.
    init_file.clear();
  }
  if (!config.db_dir.empty() && config.replicate_from.empty()) {
    // Open (and recover) durable storage before the init script so the
    // script's DML is logged too — but only seed a *fresh* directory:
    // recovered data must not be re-seeded on every restart.
    const mammoth::Status opened = server.OpenDurableStorage();
    if (!opened.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   opened.ToString().c_str());
      return 1;
    }
    const auto& info = server.recovery_info();
    std::printf("recovered %s: checkpoint lsn %llu, %llu txns replayed%s\n",
                config.db_dir.c_str(),
                static_cast<unsigned long long>(info.checkpoint_lsn),
                static_cast<unsigned long long>(info.txns_applied),
                info.torn_tail ? " (torn tail truncated)" : "");
    if (!server.engine()->catalog()->TableNames().empty()) {
      init_file.clear();
    }
  }
  if (!init_file.empty()) {
    std::ifstream f(init_file);
    if (!f) {
      std::fprintf(stderr, "cannot open init script %s\n",
                   init_file.c_str());
      return 1;
    }
    std::stringstream script;
    script << f.rdbuf();
    auto init = server.engine()->ExecuteScript(script.str());
    if (!init.ok()) {
      std::fprintf(stderr, "init script failed: %s\n",
                   init.status().ToString().c_str());
      return 1;
    }
    std::printf("init script %s applied\n", init_file.c_str());
  }

  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("mammoth_server listening on %s:%u "
              "(sessions<=%d, inflight<=%d)\n",
              config.host.c_str(), server.port(), config.max_sessions,
              config.admission.max_inflight);
  if (!config.replicate_from.empty()) {
    std::printf("read replica of %s (read-only until PROMOTE)\n",
                config.replicate_from.c_str());
  }
  std::fflush(stdout);

  struct sigaction sa {};
  sa.sa_handler = HandleSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  // Sleep in short ticks so a signal is noticed promptly; the signal
  // handler itself only sets a flag (async-signal-safe), the actual
  // drain runs here on the main thread.
  while (g_shutdown == 0) {
    struct timespec tick {0, 100 * 1000 * 1000};
    nanosleep(&tick, nullptr);
  }

  std::printf("shutdown signal received, draining...\n");
  std::fflush(stdout);
  server.Stop();  // drains in-flight queries, rejects new work, joins
  const auto stats = server.stats();
  std::printf("served %llu queries over %llu sessions, bye\n",
              static_cast<unsigned long long>(stats.queries_ok),
              static_cast<unsigned long long>(stats.sessions_total));
  return 0;
}
