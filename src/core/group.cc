#include "core/group.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/bitutil.h"
#include "common/hash.h"
#include "core/dispatch.h"
#include "core/project.h"

namespace mammoth::algebra {

namespace {

using parallel::ExecContext;
using parallel::TaskPool;

/// Kernels switch to per-worker partials only past this row count (below
/// it the scan is cheaper than waking the pool)...
constexpr size_t kParallelGrain = TaskPool::kDefaultGrain;
/// ...and only while the per-worker accumulator arrays stay reasonably
/// sized (nworkers copies of ngroups slots).
constexpr size_t kMaxPartialGroups = size_t{1} << 20;

bool UseParallel(const ExecContext& ctx, size_t n, size_t ngroups) {
  return ctx.threads() > 1 && n > 2 * kParallelGrain &&
         ngroups <= kMaxPartialGroups;
}

/// Canonical 64-bit key for one tail slot: integers sign-extend, floats use
/// the double bit pattern, strings use their (interned, hence canonical)
/// heap offset.
template <typename T>
uint64_t CanonicalKey(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    const double d = static_cast<double>(v);
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
  } else {
    return static_cast<uint64_t>(static_cast<int64_t>(v));
  }
}

/// Direct-indexed grouping serves (prev group, key) domains of at most
/// this many pairs, which bounds its per-slot arrays (256 KiB of ids).
constexpr uint64_t kMaxDirectSlots = uint64_t{1} << 16;
/// Rows per step of the min/max pass, which stops at the first step whose
/// domain has grown past kMaxDirectSlots.
constexpr size_t kDomainStep = 4096;

/// Numbers the slots `slot_of(i)` of rows [0, n) by first appearance in
/// one serial pass.
template <typename SlotOf>
void AssignDirectSerial(size_t n, uint64_t nslots, const SlotOf& slot_of,
                        Oid hseq, Oid* gids, Bat* extents, uint32_t* next_id) {
  constexpr uint32_t kUnset = 0xffffffffu;
  std::vector<uint32_t> ids(nslots, kUnset);
  for (size_t i = 0; i < n; ++i) {
    uint32_t& id = ids[slot_of(i)];
    if (id == kUnset) {
      id = (*next_id)++;
      extents->Append<Oid>(hseq + i);
    }
    gids[i] = id;
  }
}

/// The same numbering with no serial pass over the rows. (1) Morsel-
/// parallel: gids takes each row's slot, and every worker keeps the first
/// row it saw per slot. (2) Serial over the slots: a slot's first row is
/// the minimum over the workers, and sorting the used slots by first row
/// numbers them by first appearance. (3) Morsel-parallel: each gid turns
/// from its slot into that number.
template <typename SlotOf>
void AssignDirectParallel(const ExecContext& ctx, size_t n, uint64_t nslots,
                          const SlotOf& slot_of, Oid hseq, Oid* gids,
                          Bat* extents, uint32_t* next_id) {
  constexpr Oid kNone = std::numeric_limits<Oid>::max();
  std::vector<std::vector<Oid>> first(static_cast<size_t>(ctx.threads()));
  Status s = ctx.ParallelFor(
      n, kParallelGrain, [&](size_t begin, size_t end, int worker) {
        std::vector<Oid>& f = first[static_cast<size_t>(worker)];
        if (f.empty()) f.assign(nslots, kNone);
        for (size_t i = begin; i < end; ++i) {
          const uint64_t slot = slot_of(i);
          gids[i] = slot;
          f[slot] = std::min<Oid>(f[slot], i);
        }
        return Status::OK();
      });
  MAMMOTH_CHECK(s.ok(), "direct group phase 1 cannot fail");

  std::vector<std::pair<Oid, uint32_t>> used;  // (first row, slot)
  for (uint64_t slot = 0; slot < nslots; ++slot) {
    Oid row = kNone;
    for (const std::vector<Oid>& f : first) {
      if (!f.empty()) row = std::min(row, f[slot]);
    }
    if (row != kNone) used.emplace_back(row, static_cast<uint32_t>(slot));
  }
  std::sort(used.begin(), used.end());
  std::vector<uint32_t> ids(nslots, 0);
  for (const auto& [row, slot] : used) {
    ids[slot] = (*next_id)++;
    extents->Append<Oid>(hseq + row);
  }

  s = ctx.ParallelFor(n, kParallelGrain,
                      [&](size_t begin, size_t end, int) {
                        for (size_t i = begin; i < end; ++i) {
                          gids[i] = ids[gids[i]];
                        }
                        return Status::OK();
                      });
  MAMMOTH_CHECK(s.ok(), "direct group phase 3 cannot fail");
}

/// Direct-indexed grouping of integer keys: one pass finds the key range
/// [lo, hi] and the largest prev group id; when prev groups × (hi - lo + 1)
/// is at most kMaxDirectSlots, the slot prev·span + (v - lo) indexes a
/// plain array instead of GroupTable, and slots are numbered by first
/// appearance — GroupTable's id order, so groups, extents and ngroups are
/// bit-identical to the hash route. Values subtract as uint64_t (modulo
/// 2^64), which is exact at INT64_MIN/MAX. Returns false, having written
/// nothing, when the domain is wider.
template <typename T>
bool GroupDirect(const ExecContext& ctx, const T* v, const Oid* prevg,
                 size_t n, Oid hseq, Oid* gids, Bat* extents,
                 uint32_t* next_id) {
  if (n == 0) return false;
  T lo = v[0];
  T hi = v[0];
  Oid pmax = 0;
  uint64_t span = 1;
  uint64_t nprev = 1;
  for (size_t begin = 0; begin < n; begin += kDomainStep) {
    const size_t end = std::min(n, begin + kDomainStep);
    for (size_t i = begin; i < end; ++i) {
      lo = std::min(lo, v[i]);
      hi = std::max(hi, v[i]);
    }
    if (prevg != nullptr) {
      for (size_t i = begin; i < end; ++i) pmax = std::max(pmax, prevg[i]);
    }
    const uint64_t width =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (width >= kMaxDirectSlots || pmax >= kMaxDirectSlots) return false;
    span = width + 1;
    nprev = pmax + 1;
    if (span * nprev > kMaxDirectSlots) return false;
  }

  const uint64_t base = static_cast<uint64_t>(lo);
  const uint64_t nslots = span * nprev;
  auto assign = [&](const auto& slot_of) {
    if (UseParallel(ctx, n, nslots)) {
      AssignDirectParallel(ctx, n, nslots, slot_of, hseq, gids, extents,
                           next_id);
    } else {
      AssignDirectSerial(n, nslots, slot_of, hseq, gids, extents, next_id);
    }
  };
  if (prevg == nullptr) {
    assign([&](size_t i) { return static_cast<uint64_t>(v[i]) - base; });
  } else {
    assign([&](size_t i) {
      return prevg[i] * span + (static_cast<uint64_t>(v[i]) - base);
    });
  }
  return true;
}

/// Open-addressing map from (prev group, canonical key) to group id.
/// Grows (rehashes) at 50% load, so any number of groups is supported.
class GroupTable {
 public:
  explicit GroupTable(size_t expected) {
    nslots_ = NextPow2(expected * 2 < 16 ? 16 : expected * 2);
    slots_.assign(nslots_, kEmpty);
  }

  /// Returns the group id for the composite key, assigning the next id on
  /// first sight. `next_id` is incremented on inserts.
  uint32_t GetOrInsert(uint64_t prev, uint64_t key, uint32_t* next_id) {
    if (prevs_.size() * 2 >= nslots_) Grow();
    const uint64_t h = HashCombine(HashInt(prev), key);
    size_t slot = h & (nslots_ - 1);
    while (true) {
      const uint32_t gid = slots_[slot];
      if (gid == kEmpty) {
        slots_[slot] = *next_id;
        prevs_.push_back(prev);
        keys_.push_back(key);
        return (*next_id)++;
      }
      if (prevs_[gid] == prev && keys_[gid] == key) return gid;
      slot = (slot + 1) & (nslots_ - 1);
    }
  }

  /// Composite key of a previously assigned group id (for the renumber
  /// pass of the parallel grouping).
  uint64_t PrevOf(uint32_t gid) const { return prevs_[gid]; }
  uint64_t KeyOf(uint32_t gid) const { return keys_[gid]; }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;

  void Grow() {
    nslots_ *= 2;
    slots_.assign(nslots_, kEmpty);
    for (uint32_t gid = 0; gid < prevs_.size(); ++gid) {
      const uint64_t h = HashCombine(HashInt(prevs_[gid]), keys_[gid]);
      size_t slot = h & (nslots_ - 1);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & (nslots_ - 1);
      slots_[slot] = gid;
    }
  }

  size_t nslots_;
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> prevs_;  // indexed by gid
  std::vector<uint64_t> keys_;
};

}  // namespace

Result<GroupResult> Group(const BatPtr& b, const BatPtr& prev,
                          size_t prev_ngroups,
                          const parallel::ExecContext& ctx) {
  if (b == nullptr) return Status::InvalidArgument("group: null input");
  if (prev != nullptr && prev->Count() != b->Count()) {
    return Status::InvalidArgument("group: prev grouping misaligned");
  }
  const size_t n = b->Count();

  GroupResult out;
  out.groups = Bat::New(PhysType::kOid);
  out.groups->Resize(n);
  out.extents = Bat::New(PhysType::kOid);
  Oid* gids = out.groups->MutableTailData<Oid>();

  BatPtr base = b;
  if (b->IsDenseTail()) {
    base = b->Clone();
    base->MaterializeDense();
  }
  BatPtr prevm = prev;
  if (prevm != nullptr && prevm->IsDenseTail()) {
    prevm = prevm->Clone();
    prevm->MaterializeDense();
  }
  const Oid* prevg = prevm == nullptr ? nullptr : prevm->TailData<Oid>();
  const Oid hseq = base->hseqbase();

  uint32_t next_id = 0;

  auto run_serial = [&](auto key_at) {
    GroupTable table(prev_ngroups == 0 ? 64 : prev_ngroups * 4);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t pg = prevg == nullptr ? 0 : prevg[i];
      const uint32_t gid = table.GetOrInsert(pg, key_at(i), &next_id);
      gids[i] = gid;
      if (gid + 1 == next_id &&
          static_cast<size_t>(gid) == out.extents->Count()) {
        out.extents->Append<Oid>(hseq + i);
      }
    }
  };

  /// Parallel grouping in two phases. Phase 1 (parallel): every worker
  /// hashes its morsels into a private table, storing *local* group ids in
  /// the output array. Phase 2 (serial): walk the rows in order, mapping
  /// each (worker, local id) pair to a global id assigned at its first
  /// appearance — exactly the id order the serial kernel produces. Phase 2
  /// does one array lookup per row; the hash work stays in phase 1.
  auto run_parallel = [&](auto key_at) {
    const int nworkers = ctx.threads();
    const size_t grain = kParallelGrain;
    const size_t nmorsels = (n + grain - 1) / grain;
    std::vector<GroupTable> local;
    local.reserve(static_cast<size_t>(nworkers));
    for (int w = 0; w < nworkers; ++w) {
      local.emplace_back(prev_ngroups == 0 ? 64 : prev_ngroups * 4);
    }
    std::vector<uint32_t> local_next(static_cast<size_t>(nworkers), 0);
    std::vector<int> morsel_worker(nmorsels, 0);

    Status s = ctx.ParallelFor(
        n, grain, [&](size_t begin, size_t end, int worker) {
          morsel_worker[begin / grain] = worker;
          GroupTable& table = local[static_cast<size_t>(worker)];
          uint32_t* next = &local_next[static_cast<size_t>(worker)];
          for (size_t i = begin; i < end; ++i) {
            const uint64_t pg = prevg == nullptr ? 0 : prevg[i];
            gids[i] = table.GetOrInsert(pg, key_at(i), next);
          }
          return Status::OK();
        });
    MAMMOTH_CHECK(s.ok(), "group phase 1 cannot fail");

    constexpr uint32_t kUnset = 0xffffffffu;
    std::vector<std::vector<uint32_t>> remap(static_cast<size_t>(nworkers));
    for (int w = 0; w < nworkers; ++w) {
      remap[static_cast<size_t>(w)].assign(
          local_next[static_cast<size_t>(w)], kUnset);
    }
    GroupTable global(prev_ngroups == 0 ? 64 : prev_ngroups * 4);
    for (size_t i = 0; i < n; ++i) {
      const size_t w = static_cast<size_t>(morsel_worker[i / grain]);
      const uint32_t lg = static_cast<uint32_t>(gids[i]);
      uint32_t g = remap[w][lg];
      if (g == kUnset) {
        g = global.GetOrInsert(local[w].PrevOf(lg), local[w].KeyOf(lg),
                               &next_id);
        remap[w][lg] = g;
        if (g + 1 == next_id &&
            static_cast<size_t>(g) == out.extents->Count()) {
          out.extents->Append<Oid>(hseq + i);
        }
      }
      gids[i] = g;
    }
  };

  auto run = [&](auto key_at) {
    if (UseParallel(ctx, n, kMaxPartialGroups)) {
      run_parallel(key_at);
    } else {
      run_serial(key_at);
    }
  };

  if (base->type() == PhysType::kStr) {
    const uint64_t* offs = base->TailData<uint64_t>();
    run([&](size_t i) { return offs[i]; });
  } else {
    DispatchNumeric(base->type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      const T* v = base->TailData<T>();
      if constexpr (!std::is_floating_point_v<T>) {
        if (GroupDirect(ctx, v, prevg, n, hseq, gids, out.extents.get(),
                        &next_id)) {
          return;
        }
      }
      run([&](size_t i) { return CanonicalKey(v[i]); });
    });
  }

  out.ngroups = next_id;
  out.groups->mutable_props().sorted = false;
  out.extents->mutable_props().sorted = true;
  out.extents->mutable_props().key = true;
  return out;
}

namespace {

Status ValidateAggr(const BatPtr& values, const BatPtr& groups,
                    size_t ngroups) {
  if (values == nullptr) return Status::InvalidArgument("aggr: null values");
  if (groups == nullptr) {
    if (ngroups != 1) {
      return Status::InvalidArgument("aggr: global aggregate needs ngroups=1");
    }
    return Status::OK();
  }
  if (groups->type() != PhysType::kOid) {
    return Status::TypeMismatch("aggr: groups must be bat[:oid]");
  }
  if (groups->Count() != values->Count()) {
    return Status::InvalidArgument("aggr: groups misaligned with values");
  }
  return Status::OK();
}

const Oid* GroupIds(const BatPtr& groups, BatPtr* holder) {
  if (groups == nullptr) return nullptr;
  if (groups->IsDenseTail()) {
    *holder = groups->Clone();
    (*holder)->MaterializeDense();
    return (*holder)->TailData<Oid>();
  }
  return groups->TailData<Oid>();
}

/// Folds rows [0, n) into `acc` (size ngroups) with `fold(acc_slot, i)`,
/// using per-worker partial accumulators merged in worker order by
/// `merge(acc_slot, partial_slot)`. Requires fold/merge to be exactly
/// associative and commutative (integer adds, min, max) so the merged
/// result is bit-identical to the serial fold.
template <typename A, typename FoldFn, typename MergeFn>
void FoldGroups(const ExecContext& ctx, size_t n, const Oid* gids,
                std::vector<A>* acc, const FoldFn& fold,
                const MergeFn& merge) {
  const size_t ngroups = acc->size();
  if (ngroups == 0 || !UseParallel(ctx, n, ngroups)) {
    A* a = acc->data();
    for (size_t i = 0; i < n; ++i) fold(&a[gids ? gids[i] : 0], i);
    return;
  }
  const int nworkers = ctx.threads();
  const A init = (*acc)[0];  // caller-provided identity fills the array
  std::vector<std::vector<A>> partial(static_cast<size_t>(nworkers));
  Status s = ctx.ParallelFor(
      n, kParallelGrain, [&](size_t begin, size_t end, int worker) {
        std::vector<A>& p = partial[static_cast<size_t>(worker)];
        if (p.empty()) p.assign(ngroups, init);
        A* a = p.data();
        for (size_t i = begin; i < end; ++i) fold(&a[gids ? gids[i] : 0], i);
        return Status::OK();
      });
  MAMMOTH_CHECK(s.ok(), "aggregate fold cannot fail");
  for (const std::vector<A>& p : partial) {
    if (p.empty()) continue;
    for (size_t g = 0; g < ngroups; ++g) merge(&(*acc)[g], p[g]);
  }
}

}  // namespace

Result<BatPtr> AggrSum(const BatPtr& values, const BatPtr& groups,
                       size_t ngroups, const parallel::ExecContext& ctx) {
  MAMMOTH_RETURN_IF_ERROR(ValidateAggr(values, groups, ngroups));
  if (values->type() == PhysType::kStr) {
    return Status::TypeMismatch("sum over strings");
  }
  BatPtr holder;
  const Oid* gids = GroupIds(groups, &holder);
  const size_t n = values->Count();

  BatPtr vm = values;
  if (vm->IsDenseTail()) {
    vm = vm->Clone();
    vm->MaterializeDense();
  }
  return DispatchNumeric(vm->type(), [&](auto tag) -> BatPtr {
    using T = typename decltype(tag)::type;
    const T* v = vm->TailData<T>();
    if constexpr (std::is_floating_point_v<T>) {
      // Serial on purpose: float addition is not associative, and the
      // kernels guarantee results independent of the thread count.
      std::vector<double> acc(ngroups, 0.0);
      for (size_t i = 0; i < n; ++i) acc[gids ? gids[i] : 0] += v[i];
      BatPtr r = Bat::New(PhysType::kDouble);
      r->AppendRaw(acc.data(), ngroups);
      return r;
    } else {
      std::vector<int64_t> acc(ngroups, 0);
      FoldGroups<int64_t>(
          ctx, n, gids, &acc,
          [&](int64_t* a, size_t i) { *a += static_cast<int64_t>(v[i]); },
          [](int64_t* a, int64_t p) { *a += p; });
      BatPtr r = Bat::New(PhysType::kInt64);
      r->AppendRaw(acc.data(), ngroups);
      return r;
    }
  });
}

Result<BatPtr> AggrCount(const BatPtr& groups, size_t ngroups, size_t nrows,
                         const parallel::ExecContext& ctx) {
  if (groups == nullptr) {
    BatPtr r = Bat::New(PhysType::kInt64);
    r->Append<int64_t>(static_cast<int64_t>(nrows));
    return r;
  }
  if (groups->type() != PhysType::kOid) {
    return Status::TypeMismatch("count: groups must be bat[:oid]");
  }
  BatPtr holder;
  const Oid* gids = GroupIds(groups, &holder);
  std::vector<int64_t> acc(ngroups, 0);
  const size_t n = groups->Count();
  FoldGroups<int64_t>(
      ctx, n, gids, &acc, [](int64_t* a, size_t) { *a += 1; },
      [](int64_t* a, int64_t p) { *a += p; });
  BatPtr r = Bat::New(PhysType::kInt64);
  r->AppendRaw(acc.data(), ngroups);
  return r;
}

namespace {

template <bool kMin>
Result<BatPtr> AggrMinMax(const BatPtr& values, const BatPtr& groups,
                          size_t ngroups, const ExecContext& ctx) {
  MAMMOTH_RETURN_IF_ERROR(ValidateAggr(values, groups, ngroups));
  if (values->type() == PhysType::kStr) {
    return Status::Unimplemented("min/max over strings");
  }
  BatPtr holder;
  const Oid* gids = GroupIds(groups, &holder);
  const size_t n = values->Count();
  BatPtr vm = values;
  if (vm->IsDenseTail()) {
    vm = vm->Clone();
    vm->MaterializeDense();
  }
  return DispatchNumeric(vm->type(), [&](auto tag) -> BatPtr {
    using T = typename decltype(tag)::type;
    const T* v = vm->TailData<T>();
    std::vector<T> acc(ngroups,
                       kMin ? std::numeric_limits<T>::max()
                            : std::numeric_limits<T>::lowest());
    FoldGroups<T>(
        ctx, n, gids, &acc,
        [&](T* a, size_t i) {
          if constexpr (kMin) {
            if (v[i] < *a) *a = v[i];
          } else {
            if (v[i] > *a) *a = v[i];
          }
        },
        [](T* a, T p) {
          if constexpr (kMin) {
            if (p < *a) *a = p;
          } else {
            if (p > *a) *a = p;
          }
        });
    BatPtr r = Bat::New(vm->type());
    r->AppendRaw(acc.data(), ngroups);
    return r;
  });
}

}  // namespace

Result<BatPtr> AggrMin(const BatPtr& values, const BatPtr& groups,
                       size_t ngroups, const parallel::ExecContext& ctx) {
  return AggrMinMax<true>(values, groups, ngroups, ctx);
}

Result<BatPtr> AggrMax(const BatPtr& values, const BatPtr& groups,
                       size_t ngroups, const parallel::ExecContext& ctx) {
  return AggrMinMax<false>(values, groups, ngroups, ctx);
}

Result<BatPtr> AggrAvg(const BatPtr& values, const BatPtr& groups,
                       size_t ngroups) {
  MAMMOTH_RETURN_IF_ERROR(ValidateAggr(values, groups, ngroups));
  if (values->type() == PhysType::kStr) {
    return Status::TypeMismatch("avg over strings");
  }
  BatPtr holder;
  const Oid* gids = GroupIds(groups, &holder);
  const size_t n = values->Count();
  BatPtr vm = values;
  if (vm->IsDenseTail()) {
    vm = vm->Clone();
    vm->MaterializeDense();
  }
  std::vector<double> sum(ngroups, 0.0);
  std::vector<int64_t> cnt(ngroups, 0);
  DispatchNumeric(vm->type(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    const T* v = vm->TailData<T>();
    for (size_t i = 0; i < n; ++i) {
      const Oid g = gids ? gids[i] : 0;
      sum[g] += static_cast<double>(v[i]);
      cnt[g] += 1;
    }
  });
  BatPtr r = Bat::New(PhysType::kDouble);
  r->Reserve(ngroups);
  for (size_t g = 0; g < ngroups; ++g) {
    r->Append<double>(cnt[g] == 0 ? 0.0 : sum[g] / static_cast<double>(cnt[g]));
  }
  return r;
}

Result<BatPtr> Distinct(const BatPtr& b, const parallel::ExecContext& ctx) {
  MAMMOTH_ASSIGN_OR_RETURN(GroupResult g, Group(b, nullptr, 0, ctx));
  return Project(g.extents, b, ctx);
}

}  // namespace mammoth::algebra
