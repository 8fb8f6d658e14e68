#include "recycle/recycler.h"

#include <algorithm>

#include "common/rng.h"

namespace mammoth::recycle {

const char* PolicyName(Policy p) {
  switch (p) {
    case Policy::kLru:
      return "lru";
    case Policy::kBenefit:
      return "benefit";
    case Policy::kRandom:
      return "random";
  }
  return "?";
}

size_t Recycler::EntryBytes(const Entry& e, size_t* compressed_bytes) const {
  size_t bytes = 64;  // bookkeeping overhead
  size_t comp = 0;
  for (const CachedVal& v : e.outputs) {
    // An encoded image costs its encoded bytes: charging them (not the
    // logical width) lets proportionally more compressed intermediates
    // fit in the same budget.
    comp += v.image.EncodedBytes();
    if (v.image.bat != nullptr) bytes += v.image.bat->PayloadBytes();
  }
  *compressed_bytes = comp;
  return bytes + comp;
}

bool Recycler::Lookup(uint64_t sig, std::vector<CachedVal>* outputs) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(sig);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  it->second.last_used = ++tick_;
  it->second.hits += 1;
  ++stats_.hits;
  stats_.seconds_saved += it->second.cost_seconds;
  *outputs = it->second.outputs;
  return true;
}

void Recycler::Insert(uint64_t sig, std::vector<CachedVal> outputs,
                      double cost_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(sig) > 0) return;
  Entry e;
  e.outputs = std::move(outputs);
  e.cost_seconds = cost_seconds;
  e.bytes = EntryBytes(e, &e.compressed_bytes);
  e.last_used = ++tick_;
  if (e.bytes > capacity_bytes_) return;  // too large to ever cache
  EvictUntilFits(e.bytes);
  used_bytes_ += e.bytes;
  used_compressed_bytes_ += e.compressed_bytes;
  entries_.emplace(sig, std::move(e));
  stats_.entries = entries_.size();
  stats_.bytes = used_bytes_;
  stats_.compressed_bytes = used_compressed_bytes_;
}

// Requires mu_ held (called from Insert).
void Recycler::EvictUntilFits(size_t incoming_bytes) {
  while (used_bytes_ + incoming_bytes > capacity_bytes_ && !entries_.empty()) {
    auto victim = entries_.begin();
    switch (policy_) {
      case Policy::kLru:
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          if (it->second.last_used < victim->second.last_used) victim = it;
        }
        break;
      case Policy::kBenefit: {
        // Evict the entry with the least saved-time-per-byte potential.
        auto score = [](const Entry& e) {
          return e.cost_seconds * static_cast<double>(e.hits + 1) /
                 static_cast<double>(e.bytes);
        };
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          if (score(it->second) < score(victim->second)) victim = it;
        }
        break;
      }
      case Policy::kRandom: {
        size_t skip = rng_.Uniform(entries_.size());
        victim = entries_.begin();
        std::advance(victim, skip);
        break;
      }
    }
    // Drop any range registration pointing at the victim.
    for (auto& [base, vec] : ranges_) {
      vec.erase(std::remove_if(vec.begin(), vec.end(),
                               [&](const RangeEntry& r) {
                                 return r.sig == victim->first;
                               }),
                vec.end());
    }
    used_bytes_ -= victim->second.bytes;
    used_compressed_bytes_ -= victim->second.compressed_bytes;
    entries_.erase(victim);
    ++stats_.evictions;
  }
  stats_.entries = entries_.size();
  stats_.bytes = used_bytes_;
  stats_.compressed_bytes = used_compressed_bytes_;
}

void Recycler::RegisterRange(uint64_t base_sig, double lo, double hi,
                             uint64_t sig) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(sig) == 0) return;  // only index entries we hold
  ranges_[base_sig].push_back({lo, hi, sig});
}

bool Recycler::LookupRangeSuperset(uint64_t base_sig, double lo, double hi,
                                   BatPtr* cands) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ranges_.find(base_sig);
  if (it == ranges_.end()) return false;
  const RangeEntry* best = nullptr;
  double best_width = 0;
  for (const RangeEntry& r : it->second) {
    if (r.lo <= lo && hi <= r.hi && entries_.count(r.sig) > 0) {
      const double width = r.hi - r.lo;
      if (best == nullptr || width < best_width) {
        best = &r;
        best_width = width;
      }
    }
  }
  if (best == nullptr) return false;
  Entry& e = entries_[best->sig];
  e.last_used = ++tick_;
  e.hits += 1;
  ++stats_.subsumption_hits;
  *cands = e.outputs[0].image.bat;
  return true;
}

void Recycler::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  ranges_.clear();
  used_bytes_ = 0;
  used_compressed_bytes_ = 0;
  stats_.entries = 0;
  stats_.bytes = 0;
  stats_.compressed_bytes = 0;
}

}  // namespace mammoth::recycle
