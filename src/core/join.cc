#include "core/join.h"

#include <optional>
#include <vector>

#include "common/bitutil.h"
#include "common/hash.h"
#include "core/dispatch.h"

namespace mammoth::algebra {

namespace {

/// Bucket-chained hash join on numeric tails. Build on r, probe with l.
template <typename T>
JoinResult HashJoinTyped(const Bat& l, const Bat& r) {
  const T* rv = r.TailData<T>();
  const T* lv = l.TailData<T>();
  const size_t rn = r.Count();
  const size_t ln = l.Count();

  const size_t nbuckets = NextPow2(rn < 8 ? 8 : rn);
  const uint64_t mask = nbuckets - 1;
  // next[i] chains build tuples; buckets holds 1-based heads (0 = empty).
  std::vector<uint32_t> buckets(nbuckets, 0);
  std::vector<uint32_t> next(rn, 0);
  for (size_t i = 0; i < rn; ++i) {
    uint64_t h;
    if constexpr (std::is_floating_point_v<T>) {
      h = HashDouble(static_cast<double>(rv[i])) & mask;
    } else {
      h = HashInt(static_cast<uint64_t>(rv[i])) & mask;
    }
    next[i] = buckets[h];
    buckets[h] = static_cast<uint32_t>(i + 1);
  }

  JoinResult out;
  out.left = Bat::New(PhysType::kOid);
  out.right = Bat::New(PhysType::kOid);
  out.left->Reserve(ln);
  out.right->Reserve(ln);
  const Oid lbase = l.hseqbase();
  const Oid rbase = r.hseqbase();
  for (size_t i = 0; i < ln; ++i) {
    const T key = lv[i];
    uint64_t h;
    if constexpr (std::is_floating_point_v<T>) {
      h = HashDouble(static_cast<double>(key)) & mask;
    } else {
      h = HashInt(static_cast<uint64_t>(key)) & mask;
    }
    for (uint32_t j = buckets[h]; j != 0; j = next[j - 1]) {
      if (rv[j - 1] == key) {
        out.left->Append<Oid>(lbase + i);
        out.right->Append<Oid>(rbase + (j - 1));
      }
    }
  }
  return out;
}

JoinResult HashJoinString(const Bat& l, const Bat& r) {
  const uint64_t* roffs = r.TailData<uint64_t>();
  const uint64_t* loffs = l.TailData<uint64_t>();
  const size_t rn = r.Count();
  const size_t ln = l.Count();
  const StringHeap& rheap = *r.heap();
  const StringHeap& lheap = *l.heap();
  const bool same_heap = r.heap() == l.heap();

  const size_t nbuckets = NextPow2(rn < 8 ? 8 : rn);
  const uint64_t mask = nbuckets - 1;
  std::vector<uint32_t> buckets(nbuckets, 0);
  std::vector<uint32_t> next(rn, 0);
  for (size_t i = 0; i < rn; ++i) {
    const uint64_t h = HashString(rheap.Get(roffs[i])) & mask;
    next[i] = buckets[h];
    buckets[h] = static_cast<uint32_t>(i + 1);
  }

  JoinResult out;
  out.left = Bat::New(PhysType::kOid);
  out.right = Bat::New(PhysType::kOid);
  const Oid lbase = l.hseqbase();
  const Oid rbase = r.hseqbase();
  for (size_t i = 0; i < ln; ++i) {
    const std::string_view key = lheap.Get(loffs[i]);
    const uint64_t h = HashString(key) & mask;
    for (uint32_t j = buckets[h]; j != 0; j = next[j - 1]) {
      const bool eq = same_heap ? roffs[j - 1] == loffs[i]
                                : rheap.Get(roffs[j - 1]) == key;
      if (eq) {
        out.left->Append<Oid>(lbase + i);
        out.right->Append<Oid>(rbase + (j - 1));
      }
    }
  }
  return out;
}

template <typename T>
JoinResult MergeJoinTyped(const Bat& l, const Bat& r) {
  const T* lv = l.TailData<T>();
  const T* rv = r.TailData<T>();
  const size_t ln = l.Count();
  const size_t rn = r.Count();
  const Oid lbase = l.hseqbase();
  const Oid rbase = r.hseqbase();

  JoinResult out;
  out.left = Bat::New(PhysType::kOid);
  out.right = Bat::New(PhysType::kOid);
  size_t i = 0, j = 0;
  while (i < ln && j < rn) {
    if (lv[i] < rv[j]) {
      ++i;
    } else if (rv[j] < lv[i]) {
      ++j;
    } else {
      // Emit the cross product of the two equal runs.
      size_t jend = j;
      while (jend < rn && rv[jend] == lv[i]) ++jend;
      for (; i < ln && lv[i] == rv[j]; ++i) {
        for (size_t k = j; k < jend; ++k) {
          out.left->Append<Oid>(lbase + i);
          out.right->Append<Oid>(rbase + k);
        }
      }
      j = jend;
    }
  }
  // Left OIDs come out non-decreasing.
  out.left->mutable_props().sorted = true;
  return out;
}

/// First value `lo` of r's tail when that tail is exactly lo, lo+1, ...,
/// lo+n-1 — a dense key, the void column of §3 — else nullopt. Values
/// compare as uint64_t (integers convert modulo 2^64), so the check never
/// overflows. One early-exit pass; a dense tail needs none. Floating
/// tails never qualify.
std::optional<uint64_t> ContiguousBase(const Bat& r) {
  if (r.IsDenseTail()) return r.tseqbase();
  return DispatchNumeric(r.type(), [&](auto tag) -> std::optional<uint64_t> {
    using T = typename decltype(tag)::type;
    if constexpr (std::is_floating_point_v<T>) {
      return std::nullopt;
    } else {
      const T* v = r.TailData<T>();
      const size_t n = r.Count();
      const uint64_t lo = n == 0 ? 0 : static_cast<uint64_t>(v[0]);
      for (size_t i = 1; i < n; ++i) {
        if (static_cast<uint64_t>(v[i]) - lo != i) return std::nullopt;
      }
      return lo;
    }
  });
}

/// Positional fetch-join into a dense key starting at `lo`: the r row
/// holding value v is v - lo, so every probe is an array index, not a hash
/// probe. `key_at(i)` is l's value at row i as uint64_t; a value outside
/// [lo, lo+rn) wraps to an offset >= rn and emits nothing. Pairs come out
/// in HashJoin's order (left ascending, at most one match each).
template <typename KeyAt>
JoinResult PositionalProbe(size_t ln, Oid lbase, const KeyAt& key_at,
                           uint64_t lo, size_t rn, Oid rbase) {
  JoinResult out;
  out.left = Bat::New(PhysType::kOid);
  out.right = Bat::New(PhysType::kOid);
  out.left->Resize(ln);
  out.right->Resize(ln);
  Oid* lout = out.left->MutableTailData<Oid>();
  Oid* rout = out.right->MutableTailData<Oid>();
  size_t m = 0;
  for (size_t i = 0; i < ln; ++i) {
    const uint64_t d = key_at(i) - lo;
    lout[m] = lbase + i;
    rout[m] = rbase + d;
    m += d < rn ? 1 : 0;
  }
  out.left->Resize(m);
  out.right->Resize(m);
  out.left->mutable_props().sorted = true;
  return out;
}

/// PositionalProbe of l into r when r is a dense key, else nullopt.
std::optional<JoinResult> PositionalJoin(const Bat& l, const Bat& r) {
  const std::optional<uint64_t> lo = ContiguousBase(r);
  if (!lo.has_value()) return std::nullopt;
  const size_t ln = l.Count();
  const size_t rn = r.Count();
  if (l.IsDenseTail()) {
    const Oid lseq = l.tseqbase();
    return PositionalProbe(
        ln, l.hseqbase(), [&](size_t i) { return uint64_t{lseq + i}; }, *lo,
        rn, r.hseqbase());
  }
  return DispatchNumeric(l.type(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    const T* v = l.TailData<T>();
    return PositionalProbe(
        ln, l.hseqbase(),
        [&](size_t i) { return static_cast<uint64_t>(v[i]); }, *lo, rn,
        r.hseqbase());
  });
}

Status ValidateJoinInputs(const BatPtr& l, const BatPtr& r) {
  if (l == nullptr || r == nullptr) {
    return Status::InvalidArgument("join: null input");
  }
  const bool lstr = l->type() == PhysType::kStr;
  const bool rstr = r->type() == PhysType::kStr;
  if (lstr != rstr) return Status::TypeMismatch("join: str vs non-str");
  if (!lstr && l->type() != r->type()) {
    // Permissive about width (int vs lng) would need casts; require equal.
    return Status::TypeMismatch("join: tail types differ");
  }
  return Status::OK();
}

BatPtr Materialized(const BatPtr& b) {
  if (!b->IsDenseTail()) return b;
  BatPtr m = b->Clone();
  m->MaterializeDense();
  return m;
}

}  // namespace

Result<JoinResult> HashJoin(const BatPtr& l, const BatPtr& r) {
  MAMMOTH_RETURN_IF_ERROR(ValidateJoinInputs(l, r));
  if (l->type() == PhysType::kStr) return HashJoinString(*l, *r);
  const BatPtr lm = Materialized(l);
  const BatPtr rm = Materialized(r);
  return DispatchNumeric(lm->type(), [&](auto tag) -> JoinResult {
    using T = typename decltype(tag)::type;
    return HashJoinTyped<T>(*lm, *rm);
  });
}

Result<JoinResult> MergeJoin(const BatPtr& l, const BatPtr& r) {
  MAMMOTH_RETURN_IF_ERROR(ValidateJoinInputs(l, r));
  if (l->type() == PhysType::kStr) {
    return Status::Unimplemented("merge join on strings");
  }
  if (!l->props().sorted || !r->props().sorted) {
    return Status::InvalidArgument("merge join: inputs must be sorted");
  }
  const BatPtr lm = Materialized(l);
  const BatPtr rm = Materialized(r);
  return DispatchNumeric(lm->type(), [&](auto tag) -> JoinResult {
    using T = typename decltype(tag)::type;
    return MergeJoinTyped<T>(*lm, *rm);
  });
}

Result<JoinResult> Join(const BatPtr& l, const BatPtr& r) {
  MAMMOTH_RETURN_IF_ERROR(ValidateJoinInputs(l, r));
  if (l->type() == PhysType::kStr) return HashJoinString(*l, *r);
  if (std::optional<JoinResult> fetched = PositionalJoin(*l, *r)) {
    return *std::move(fetched);
  }
  if (l->props().sorted && r->props().sorted) return MergeJoin(l, r);
  return HashJoin(l, r);
}

}  // namespace mammoth::algebra
