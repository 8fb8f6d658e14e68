#ifndef MAMMOTH_RECYCLE_RECYCLER_H_
#define MAMMOTH_RECYCLE_RECYCLER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "compress/compressed_exec.h"
#include "core/bat.h"
#include "core/value.h"

namespace mammoth::recycle {

/// A cached runtime value: MAL instructions produce column images (a plain
/// BAT for every computed intermediate) and scalars. When the value passes
/// a column's encoded image through, a cache hit restores that image, so
/// the compressed-execution routes apply again, and admission charges its
/// encoded footprint, not the decoded width.
struct CachedVal {
  compress::ColumnImage image;
  Value scalar;
};

/// Cache replacement policies (§6.1: "traditional cache replacement
/// policies can be applied to avoid double work").
enum class Policy : uint8_t { kLru, kBenefit, kRandom };

const char* PolicyName(Policy p);

/// The Recycler ([19], §6.1): a cache of materialized intermediates keyed
/// by instruction signature. The operator-at-a-time paradigm materializes
/// every intermediate anyway, which "provides a hook for easier
/// materialized view capturing" — the recycler simply keeps them, aware of
/// their lineage, and serves repeated (sub)queries from the cache.
///
/// Beyond exact matches it supports *subsumption* for range selects: a
/// cached select over a wider range answers a narrower one by re-selecting
/// within the cached candidate list.
///
/// Thread-safe: all operations take an internal mutex, so one recycler may
/// serve concurrent sessions (cached BATs are immutable once inserted, so
/// sharing the BatPtrs across threads is safe).
class Recycler {
 public:
  explicit Recycler(size_t capacity_bytes, Policy policy = Policy::kLru)
      : capacity_bytes_(capacity_bytes), policy_(policy) {}

  /// Exact-match lookup. On hit fills `outputs` and returns true.
  bool Lookup(uint64_t sig, std::vector<CachedVal>* outputs);

  /// Caches the outputs of the instruction with this signature.
  /// `cost_seconds` is the measured execution time (the benefit policy
  /// weighs it).
  void Insert(uint64_t sig, std::vector<CachedVal> outputs,
              double cost_seconds);

  /// Registers a cached inclusive range-select [lo, hi] over the input
  /// identified by `base_sig`, so narrower ranges can subsume from it.
  void RegisterRange(uint64_t base_sig, double lo, double hi, uint64_t sig);

  /// Finds a cached range select over `base_sig` whose [lo', hi'] covers
  /// [lo, hi]. On success returns the cached candidate OID BAT.
  bool LookupRangeSuperset(uint64_t base_sig, double lo, double hi,
                           BatPtr* cands);

  /// Drops everything (e.g. after updates invalidate the workload).
  void Clear();

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t subsumption_hits = 0;
    size_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
    size_t compressed_bytes = 0;  ///< portion of `bytes` held compressed
    double seconds_saved = 0;     ///< sum of cached costs served from cache
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  size_t capacity_bytes() const { return capacity_bytes_; }
  Policy policy() const { return policy_; }

 private:
  struct Entry {
    std::vector<CachedVal> outputs;
    double cost_seconds = 0;
    size_t bytes = 0;
    size_t compressed_bytes = 0;
    size_t hits = 0;
    uint64_t last_used = 0;
  };

  size_t EntryBytes(const Entry& e, size_t* compressed_bytes) const;
  void EvictUntilFits(size_t incoming_bytes);

  size_t capacity_bytes_;
  Policy policy_;

  /// Guards everything below (entries, ranges, stats, rng).
  mutable std::mutex mu_;
  Rng rng_{0xdecaf};  ///< kRandom eviction draws
  uint64_t tick_ = 0;
  size_t used_bytes_ = 0;
  size_t used_compressed_bytes_ = 0;
  std::unordered_map<uint64_t, Entry> entries_;

  struct RangeEntry {
    double lo, hi;
    uint64_t sig;
  };
  std::unordered_map<uint64_t, std::vector<RangeEntry>> ranges_;

  Stats stats_;
};

}  // namespace mammoth::recycle

#endif  // MAMMOTH_RECYCLE_RECYCLER_H_
