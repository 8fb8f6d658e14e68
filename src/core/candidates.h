#ifndef MAMMOTH_CORE_CANDIDATES_H_
#define MAMMOTH_CORE_CANDIDATES_H_

#include <algorithm>

#include "core/bat.h"

namespace mammoth {

/// Whether `oids` is known to ascend: absent ("every row"), dense, at most
/// one entry, or stamped sorted (every select result is).
inline bool KnownSorted(const BatPtr& oids) {
  return oids == nullptr || oids->IsDenseTail() || oids->Count() <= 1 ||
         oids->props().sorted;
}

/// A sorted OID list cut at `boundary`: `low` holds the OIDs below it and
/// `high` the rest, each headed where its entries sat in `oids`. A null
/// list ("every row") cuts into two null halves. This is how a read over
/// a (main image, delta) pair routes its candidates: the delta is headed
/// at the main row count.
struct OidSplit {
  BatPtr low, high;
};

inline OidSplit SplitSortedOids(const BatPtr& oids, Oid boundary) {
  if (oids == nullptr) return {};
  const size_t n = oids->Count();
  const Oid h = oids->hseqbase();
  if (oids->IsDenseTail()) {
    const Oid first = oids->tseqbase();
    const size_t k =
        first >= boundary ? 0 : std::min<size_t>(n, boundary - first);
    return {Bat::NewDense(first, k, h), Bat::NewDense(first + k, n - k, h + k)};
  }
  const Oid* data = oids->TailData<Oid>();
  const size_t k = static_cast<size_t>(
      std::lower_bound(data, data + n, boundary) - data);
  auto slice = [&](size_t begin, size_t end) {
    if (begin == 0 && end == n) return oids;
    BatPtr out = Bat::New(PhysType::kOid);
    out->AppendRaw(data + begin, end - begin);
    out->set_hseqbase(h + begin);
    out->mutable_props().sorted = true;
    out->mutable_props().key = oids->props().key;
    return out;
  };
  return {slice(0, k), slice(k, n)};
}

/// Read-only view over a candidate list: the (sorted, key) OID BAT that
/// restricts which head positions of a base BAT an operator may touch.
/// A null candidate BAT means "all positions". Dense candidate lists are
/// read without materialization.
class CandidateReader {
 public:
  /// `cands` may be null. `base` provides hseqbase and the full count.
  CandidateReader(const Bat* cands, const Bat* base)
      : cands_(cands), base_hseq_(base->hseqbase()) {
    if (cands_ == nullptr) {
      mode_ = Mode::kAll;
      count_ = base->Count();
    } else if (cands_->IsDenseTail()) {
      mode_ = Mode::kDense;
      count_ = cands_->Count();
      dense_first_ = cands_->tseqbase();
    } else {
      mode_ = Mode::kArray;
      count_ = cands_->Count();
      arr_ = cands_->TailData<Oid>();
    }
  }

  size_t size() const { return count_; }

  /// Position (array index) within the base BAT of the i-th candidate.
  size_t PositionAt(size_t i) const {
    switch (mode_) {
      case Mode::kAll:
        return i;
      case Mode::kDense:
        return static_cast<size_t>(dense_first_ + i - base_hseq_);
      case Mode::kArray:
      default:
        return static_cast<size_t>(arr_[i] - base_hseq_);
    }
  }

  /// Head OID of the i-th candidate.
  Oid OidAt(size_t i) const {
    return static_cast<Oid>(PositionAt(i)) + base_hseq_;
  }

  /// True when candidates cover positions [0, base count) contiguously.
  bool IsAll() const { return mode_ == Mode::kAll; }

 private:
  enum class Mode { kAll, kDense, kArray };
  const Bat* cands_;
  Oid base_hseq_;
  Mode mode_ = Mode::kAll;
  size_t count_ = 0;
  Oid dense_first_ = 0;
  const Oid* arr_ = nullptr;
};

}  // namespace mammoth

#endif  // MAMMOTH_CORE_CANDIDATES_H_
