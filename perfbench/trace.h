#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span recording for the traced run. Every thread owns one SpanLog, so
// recording takes no lock; the logs are merged after the threads join and
// written out once at exit.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Microseconds since a process-wide epoch on the steady clock.
inline double NowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// One thread's spans. Ids are unique across logs: the log number sits in
/// the high bits.
class SpanLog {
 public:
  explicit SpanLog(uint64_t log_number) : next_id_(log_number << 40) {}

  uint64_t NewId() { return ++next_id_; }

  /// Records a finished span whose times the caller took.
  void Add(const char* name, uint64_t id, uint64_t parent, uint64_t request,
           double start_us, double end_us) {
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.request = request;
    s.start_us = start_us;
    s.end_us = end_us;
    spans_.push_back(std::move(s));
  }

  uint64_t Begin(const char* name, uint64_t parent, uint64_t request) {
    const uint64_t id = NewId();
    Add(name, id, parent, request, NowUs(), 0);
    return id;
  }
  /// Closes the most recent open span with id `id` (spans close in LIFO
  /// order on one thread, so this scans back only over its children).
  void End(uint64_t id) {
    const double now = NowUs();
    for (size_t i = spans_.size(); i-- > 0;) {
      if (spans_[i].id == id) {
        spans_[i].end_us = now;
        return;
      }
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& mutable_spans() { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing (tracing off).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
             uint64_t request)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
