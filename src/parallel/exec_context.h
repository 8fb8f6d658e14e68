#ifndef MAMMOTH_PARALLEL_EXEC_CONTEXT_H_
#define MAMMOTH_PARALLEL_EXEC_CONTEXT_H_

#include "common/status.h"
#include "parallel/task_pool.h"

namespace mammoth::scan {
class SharedScanScheduler;  // WithSharedScans only; see below
}  // namespace mammoth::scan

namespace mammoth::parallel {

/// Execution context handed to the parallel-aware kernels. It carries the
/// worker pool (or none, for strictly serial execution); kernels only ever
/// go through ParallelFor/threads(), so a context with no pool makes any
/// kernel run its exact serial schedule.
///
/// Every kernel is required to produce bit-identical results — values,
/// hseqbase, properties — for any context, so callers may freely default to
/// ExecContext::Default() (sized from the MAMMOTH_THREADS environment
/// variable, falling back to the hardware thread count) while tests pin
/// ExecContext::Serial() or a pool of their own.
class ExecContext {
 public:
  /// A context with no pool: everything runs inline on the caller.
  ExecContext() = default;

  /// A context backed by `pool` (not owned; may be null for serial).
  explicit ExecContext(TaskPool* pool) : pool_(pool) {}

  /// Worker slots available to a kernel (>= 1).
  int threads() const { return pool_ == nullptr ? 1 : pool_->threads(); }

  /// Morsel loop over [0, n); see TaskPool::ParallelFor. Runs inline over
  /// the identical morsel grid when no pool is attached.
  Status ParallelFor(size_t n, size_t grain,
                     const TaskPool::MorselFn& fn) const {
    if (pool_ == nullptr) return TaskPool::RunInline(n, grain, fn);
    return pool_->ParallelFor(n, grain, fn);
  }

  /// Process-wide default: MAMMOTH_THREADS workers if the variable is set
  /// to a positive integer, else std::thread::hardware_concurrency(). The
  /// pool is created lazily on first use and lives for the process.
  static const ExecContext& Default();

  /// The no-pool context (kernels run their serial schedule).
  static const ExecContext& Serial();

  /// Kept only for perfbench until ROADMAP item 8: returns this context
  /// unchanged (there is no shared-scan scheduler to route through).
  ExecContext WithSharedScans(scan::SharedScanScheduler*) const {
    return *this;
  }

 private:
  TaskPool* pool_ = nullptr;
};

/// Parses a MAMMOTH_THREADS-style value: returns the thread count, or
/// `fallback` when `value` is null, empty, non-numeric, or <= 0. Exposed
/// for tests.
int ParseThreadCount(const char* value, int fallback);

/// The thread count ExecContext::Default() uses (env var or hardware).
int DefaultThreadCount();

}  // namespace mammoth::parallel

#endif  // MAMMOTH_PARALLEL_EXEC_CONTEXT_H_
