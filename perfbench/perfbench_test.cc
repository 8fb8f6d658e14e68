// Tests of the benchmark's own arithmetic (stats.h): the percentile rule,
// medians over time windows, ratios that carry their base, and self time
// of nested spans. Exits non-zero if any expectation fails.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_test:%d: expected %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileRule() {
  using perfbench::PercentileOf;
  // 1000 samples: p99 is the 990th value, with exactly 10 beyond it.
  perfbench::Percentile p = PercentileOf(OneTo(1000), 0.99);
  EXPECT(p.supported);
  EXPECT(Near(p.value, 990));
  EXPECT(p.beyond == 10);
  EXPECT(p.n == 1000);

  // 999 samples: only 9 would lie beyond the nearest rank of p99, so the
  // report falls back to the highest rank with 10 beyond and says so.
  p = PercentileOf(OneTo(999), 0.99);
  EXPECT(!p.supported);
  EXPECT(p.beyond == 10);
  EXPECT(Near(p.value, 989));
  EXPECT(p.p < 0.99);

  // The median of a small sample is supported; order does not matter.
  p = PercentileOf({5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16,
                    17, 18, 19, 20, 21},
                   0.5);
  EXPECT(p.supported);
  EXPECT(Near(p.value, 11));
  EXPECT(p.beyond == 10);

  // Every reported percentile has at least 10 samples beyond it, and a
  // supported one sits at the requested nearest rank.
  for (size_t n = 11; n < 3000; n += 7) {
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      const perfbench::Percentile r = PercentileOf(OneTo(n), q);
      EXPECT(r.beyond >= perfbench::kMinSamplesBeyond);
      if (r.supported) {
        EXPECT(Near(r.value, static_cast<double>(
                                 perfbench::NearestRankIndex(n, q) + 1)));
      }
    }
  }
  // The median needs 20 samples: at 19 only 9 lie beyond its rank.
  EXPECT(PercentileOf(OneTo(20), 0.5).supported);
  EXPECT(!PercentileOf(OneTo(19), 0.5).supported);
  EXPECT(PercentileOf({}, 0.5).n == 0);
}

void TestWindowedMedians() {
  // A 10 s run, 5 windows of 2000 samples each: latency 1 everywhere,
  // except window 3, where a stall makes every sample 100.
  std::vector<perfbench::Timed> samples, done;
  for (int i = 0; i < 10000; ++i) {
    const float t = (static_cast<float>(i) + 0.5f) * 0.001f;  // mid-slot
    const bool stalled = t >= 6 && t < 8;
    samples.push_back({t, stalled ? 100.0f : 1.0f});
    if (!stalled) done.push_back({t, 1.0f});  // the stall completes none
  }
  perfbench::Percentile p =
      perfbench::WindowedPercentile(samples, 10, 5, 0.99);
  EXPECT(Near(p.value, 1));
  EXPECT(p.supported);
  EXPECT(p.n == 10000);
  EXPECT(p.beyond == 20);  // 2000 per window: rank 1980, 20 beyond
  // Over one window the stall shows.
  EXPECT(Near(perfbench::WindowedPercentile(samples, 10, 1, 0.99).value, 100));
  // Rates: 1000 events/s in four windows, none in the stalled one.
  EXPECT(Near(perfbench::WindowedRate(done, 10, 5), 1000));
  EXPECT(Near(perfbench::WindowedRate(done, 10, 1), 800));
  // A window too small for its quantile is flagged.
  p = perfbench::WindowedPercentile(samples, 10, 5, 0.999);
  EXPECT(!p.supported);
  EXPECT(p.beyond == 10);
}

void TestRatioCarriesBase() {
  perfbench::Ratio r{5, 10};
  EXPECT(Near(r.value(), 0.5));
  EXPECT(r.ToString() == "0.5 (5/10)");
  perfbench::Ratio big{5000, 10000};
  EXPECT(Near(big.value(), 0.5));
  EXPECT(big.ToString() == "0.5 (5000/10000)");
  // An empty base reads as 0 and still shows the base.
  perfbench::Ratio none{0, 0};
  EXPECT(Near(none.value(), 0));
  EXPECT(none.ToString() == "0 (0/0)");
}

perfbench::Span S(const char* name, uint64_t id, uint64_t parent, double a,
                  double b) {
  perfbench::Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_us = a;
  s.end_us = b;
  return s;
}

void TestSelfTimeOfNestedSpans() {
  // root [0,100) with children [10,30) and [50,60); child 1 has a
  // grandchild [12,20). Self times: root 70, child 1 12, child 2 10, and
  // the grandchild 8.
  std::vector<perfbench::Span> spans = {
      S("root", 1, 0, 0, 100), S("a", 2, 1, 10, 30), S("b", 3, 1, 50, 60),
      S("c", 4, 2, 12, 20)};
  std::vector<double> self = perfbench::SelfTimes(spans);
  EXPECT(Near(self[0], 70));
  EXPECT(Near(self[1], 12));
  EXPECT(Near(self[2], 10));
  EXPECT(Near(self[3], 8));

  // Overlapping children are covered once, and a child sticking out of
  // its parent is clipped to the parent's interval.
  spans = {S("root", 1, 0, 0, 100), S("x", 2, 1, 10, 40), S("y", 3, 1, 30, 50),
           S("z", 4, 1, 90, 120)};
  self = perfbench::SelfTimes(spans);
  EXPECT(Near(self[0], 100 - 40 - 10));
  EXPECT(Near(self[3], 30));  // leaves keep their full duration

  // Span order in the input does not matter.
  spans = {S("c", 4, 2, 12, 20), S("b", 3, 1, 50, 60), S("a", 2, 1, 10, 30),
           S("root", 1, 0, 0, 100)};
  self = perfbench::SelfTimes(spans);
  EXPECT(Near(self[3], 70));
  EXPECT(Near(self[2], 12));
}

}  // namespace

int main() {
  TestPercentileRule();
  TestWindowedMedians();
  TestRatioCarriesBase();
  TestSelfTimeOfNestedSpans();
  if (failures == 0) std::printf("perfbench_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
