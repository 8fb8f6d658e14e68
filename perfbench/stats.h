#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic, kept free of engine headers so
// perfbench_test.cc can check it in isolation: percentiles that a sample
// supports, medians over time windows, ratios that carry their base, and
// span self time.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is a handful of outliers, not a
/// distribution.
inline constexpr size_t kMinSamplesBeyond = 10;

struct Percentile {
  double p = 0;        ///< requested quantile, e.g. 0.99
  double value = 0;    ///< sample at the nearest rank
  size_t n = 0;        ///< sample count
  size_t beyond = 0;   ///< samples strictly above the reported rank
  bool supported = false;
};

/// Nearest-rank index of quantile `p` in `n` sorted samples:
/// ceil(p * n) - 1, clamped to [0, n - 1].
inline size_t NearestRankIndex(size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p * static_cast<double>(n));
  if (rank <= 1) return 0;
  return std::min(n - 1, static_cast<size_t>(rank) - 1);
}

/// Quantile `p` of `samples` (sorted here). Unsupported quantiles fall back
/// to the highest rank that still has kMinSamplesBeyond samples beyond it,
/// and say so through `supported`; `p` then reports the rank actually used.
inline Percentile PercentileOf(std::vector<double> samples, double p) {
  Percentile out;
  out.p = p;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  size_t idx = NearestRankIndex(out.n, p);
  out.supported = out.n - 1 - idx >= kMinSamplesBeyond;
  if (!out.supported) {
    idx = out.n > kMinSamplesBeyond ? out.n - 1 - kMinSamplesBeyond : 0;
    out.p = static_cast<double>(idx + 1) / static_cast<double>(out.n);
  }
  out.value = samples[idx];
  out.beyond = out.n - 1 - idx;
  return out;
}

/// Median of `v` (0 for an empty sample).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// A sample taken `t` seconds into a run. Floats keep a million samples
/// at 8 MB, so the benchmark's own buffers stay small next to the engine's
/// memory in peak_rss_mb.
struct Timed {
  float t = 0;
  float value = 0;
};

/// Splits a run of `span` seconds into `windows` equal slices and reports
/// the median over the slices of each slice's quantile `p`, so a stall on
/// the host that hits less than half of the slices does not move the
/// result. `n` is the sample count, `beyond` the fewest samples any slice
/// had beyond its rank, and `supported` holds when every slice's quantile
/// was supported.
inline Percentile WindowedPercentile(const std::vector<Timed>& samples,
                                     double span, size_t windows, double p) {
  Percentile out;
  out.p = p;
  out.n = samples.size();
  if (samples.empty() || windows == 0 || span <= 0) return out;
  std::vector<std::vector<double>> slices(windows);
  for (const Timed& s : samples) {
    const double w = s.t / span * static_cast<double>(windows);
    slices[std::min(windows - 1, static_cast<size_t>(std::max(0.0, w)))]
        .push_back(s.value);
  }
  std::vector<double> values;
  out.supported = true;
  out.beyond = samples.size();
  for (std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    const Percentile q = PercentileOf(std::move(slice), p);
    values.push_back(q.value);
    out.supported = out.supported && q.supported;
    out.beyond = std::min(out.beyond, q.beyond);
  }
  out.value = Median(std::move(values));
  return out;
}

/// Median over `windows` equal slices of a run of `span` seconds of the
/// rate of events (one per sample, at its time into the run).
inline double WindowedRate(const std::vector<Timed>& events, double span,
                           size_t windows) {
  if (windows == 0 || span <= 0) return 0;
  std::vector<double> counts(windows, 0);
  for (const Timed& e : events) {
    const double w = e.t / span * static_cast<double>(windows);
    counts[std::min(windows - 1, static_cast<size_t>(std::max(0.0, w)))] += 1;
  }
  return Median(std::move(counts)) / (span / static_cast<double>(windows));
}

/// A ratio together with its base, so "0.5" is never read without knowing
/// whether it means 1 of 2 or 5000 of 10000. An empty base reads as 0.
struct Ratio {
  double num = 0;
  double den = 0;
  double value() const { return den == 0 ? 0.0 : num / den; }
  std::string ToString() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.6g (%.0f/%.0f)", value(), num, den);
    return buf;
  }
};

/// One traced call: a layer boundary the benchmark crossed. Times are
/// microseconds on one steady clock; `parent` is 0 for a root span.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  double start_us = 0;
  double end_us = 0;
  double duration() const { return end_us - start_us; }
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval covered by the union of its children, each child
/// clipped to the parent's interval. Overlapping children (concurrent
/// calls) are counted once.
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Children grouped by parent id; a sort keeps this O(n log n).
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (spans[a].parent != spans[b].parent) {
      return spans[a].parent < spans[b].parent;
    }
    return spans[a].start_us < spans[b].start_us;
  });
  std::vector<std::pair<uint64_t, size_t>> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id.emplace_back(spans[i].id, i);
  std::sort(by_id.begin(), by_id.end());

  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration();
  size_t g = 0;
  while (g < order.size()) {
    const uint64_t parent = spans[order[g]].parent;
    size_t end = g;
    while (end < order.size() && spans[order[end]].parent == parent) ++end;
    auto it = std::lower_bound(by_id.begin(), by_id.end(),
                               std::make_pair(parent, size_t{0}));
    if (parent != 0 && it != by_id.end() && it->first == parent) {
      const Span& p = spans[it->second];
      double covered = 0;
      double cur_lo = 0, cur_hi = -1;  // current merged interval
      for (size_t j = g; j < end; ++j) {
        const double lo = std::max(spans[order[j]].start_us, p.start_us);
        const double hi = std::min(spans[order[j]].end_us, p.end_us);
        if (hi <= lo) continue;
        if (cur_hi < cur_lo || lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      self[it->second] = std::max(0.0, p.duration() - covered);
    }
    g = end;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
