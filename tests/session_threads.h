#ifndef MAMMOTH_TESTS_SESSION_THREADS_H_
#define MAMMOTH_TESTS_SESSION_THREADS_H_

#include <functional>
#include <latch>
#include <thread>
#include <vector>

#include "sql/engine.h"

namespace mammoth::testutil {

/// `n` fresh sessions of `engine`.
inline std::vector<sql::SessionPtr> NewSessions(sql::Engine& engine, int n) {
  std::vector<sql::SessionPtr> sessions;
  for (int i = 0; i < n; ++i) sessions.push_back(engine.CreateSession());
  return sessions;
}

/// Runs `body(thread, round, session)` for rounds 0..rounds-1 on one thread
/// per session in `sessions`. Execute() would put every thread on the
/// engine's one default session, which runs statements one at a time; here
/// each thread owns its session, so statements overlap. A latch releases
/// the threads together, and a thread whose rounds end before the engine
/// has seen two SELECTs at once runs further rounds (at most
/// kMaxExtraRounds), so callers can assert overlap with
/// `engine.peak_concurrent_selects() >= 2`.
inline void RunOnSessions(
    sql::Engine& engine, const std::vector<sql::SessionPtr>& sessions,
    int rounds,
    const std::function<void(int thread, int round,
                             const sql::SessionPtr& session)>& body) {
  constexpr int kMaxExtraRounds = 200;
  std::latch start(static_cast<std::ptrdiff_t>(sessions.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < sessions.size(); ++t) {
    threads.emplace_back([&, t] {
      const int thread = static_cast<int>(t);
      start.arrive_and_wait();
      int round = 0;
      for (; round < rounds; ++round) body(thread, round, sessions[t]);
      for (int extra = 0; extra < kMaxExtraRounds &&
                          engine.peak_concurrent_selects() < 2;
           ++extra) {
        body(thread, round++, sessions[t]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace mammoth::testutil

#endif  // MAMMOTH_TESTS_SESSION_THREADS_H_
