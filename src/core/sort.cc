#include "core/sort.h"

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/candidates.h"
#include "core/dispatch.h"
#include "core/project.h"
#include "parallel/loser_tree.h"
#include "parallel/task_pool.h"

namespace mammoth::algebra {

namespace {

using parallel::ExecContext;
using parallel::LoserTree;
using parallel::TaskPool;

/// Inputs below two morsels always run the serial schedule, matching the
/// dispatch threshold of the PR 1 kernels: pool hand-off would cost more
/// than the sort itself.
constexpr size_t kParallelSortMin = 2 * TaskPool::kDefaultGrain;

// ------------------------------------------------------------ radix path --
//
// LSB radix sort of the position permutation for integer tails. Every pass
// is a stable counting scatter on 11 key bits; the parallel pass uses
// per-morsel histograms combined by a bucket-major / chunk-minor prefix sum
// (the same disjoint-destination scheme as the parallel radix-cluster
// passes in join/radix_cluster.h), so the scattered layout — and therefore
// the final permutation — is byte-identical to the serial pass.

constexpr int kRadixBits = 11;
constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;

/// Maps a value to the unsigned key whose ascending order is the requested
/// output order: signed values are biased so negatives sort first, and a
/// descending ask complements the key (stable descending == stable
/// ascending on complemented keys).
template <typename T>
inline std::make_unsigned_t<T> RadixKey(T v, bool descending) {
  using U = std::make_unsigned_t<T>;
  U u = static_cast<U>(v);
  if constexpr (std::is_signed_v<T>) {
    u ^= U{1} << (8 * sizeof(U) - 1);
  }
  return descending ? static_cast<U>(~u) : u;
}

template <typename T>
void RadixPass(const T* v, bool descending, int shift, const uint32_t* src,
               uint32_t* dst, size_t n, const ExecContext& ctx) {
  const auto bucket_of = [v, descending, shift](uint32_t idx) {
    return static_cast<size_t>((RadixKey(v[idx], descending) >> shift) &
                               (kRadixBuckets - 1));
  };
  const size_t grain = TaskPool::kDefaultGrain;
  if (ctx.threads() <= 1 || n < kParallelSortMin) {
    std::vector<size_t> hist(kRadixBuckets, 0);
    for (size_t i = 0; i < n; ++i) ++hist[bucket_of(src[i])];
    size_t sum = 0;
    for (size_t b = 0; b < kRadixBuckets; ++b) {
      const size_t count = hist[b];
      hist[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) dst[hist[bucket_of(src[i])]++] = src[i];
    return;
  }

  // Phase A: per-chunk histograms (chunks own disjoint hist rows).
  const size_t nchunks = (n + grain - 1) / grain;
  std::vector<std::vector<size_t>> hist(nchunks);
  Status st = ctx.ParallelFor(
      n, grain, [&](size_t begin, size_t end, int /*worker*/) {
        std::vector<size_t>& h = hist[begin / grain];
        h.assign(kRadixBuckets, 0);
        for (size_t i = begin; i < end; ++i) ++h[bucket_of(src[i])];
        return Status::OK();
      });
  MAMMOTH_CHECK(st.ok(), "radix histogram cannot fail");

  // Bucket-major, chunk-minor prefix walk: chunk c's cursor for bucket b
  // starts after bucket b's rows from earlier chunks and all earlier
  // buckets — exactly the slot the serial left-to-right scatter would use.
  size_t sum = 0;
  for (size_t b = 0; b < kRadixBuckets; ++b) {
    for (size_t c = 0; c < nchunks; ++c) {
      const size_t count = hist[c][b];
      hist[c][b] = sum;
      sum += count;
    }
  }

  // Phase B: scatter; every chunk advances only its own cursors.
  st = ctx.ParallelFor(
      n, grain, [&](size_t begin, size_t end, int /*worker*/) {
        std::vector<size_t>& cur = hist[begin / grain];
        for (size_t i = begin; i < end; ++i) {
          dst[cur[bucket_of(src[i])]++] = src[i];
        }
        return Status::OK();
      });
  MAMMOTH_CHECK(st.ok(), "radix scatter cannot fail");
}

template <typename T>
void RadixSortPerm(const T* v, size_t n, bool descending,
                   const ExecContext& ctx, std::vector<uint32_t>* out) {
  constexpr int kPasses =
      static_cast<int>((8 * sizeof(T) + kRadixBits - 1) / kRadixBits);
  std::vector<uint32_t>& src = *out;
  src.resize(n);
  std::vector<uint32_t> dst(n);
  Status st = ctx.ParallelFor(
      n, TaskPool::kDefaultGrain, [&](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; ++i) {
          src[i] = static_cast<uint32_t>(i);
        }
        return Status::OK();
      });
  MAMMOTH_CHECK(st.ok(), "radix iota cannot fail");
  for (int pass = 0; pass < kPasses; ++pass) {
    RadixPass(v, descending, pass * kRadixBits, src.data(), dst.data(), n,
              ctx);
    src.swap(dst);
  }
  // kPasses swaps leave the final permutation in src == *out.
}

// ------------------------------------------------------------ merge path --

/// Stable-sort permutation for comparison-ordered tails: morsel-parallel
/// run formation followed by a k-way loser-tree merge. `less` must be a
/// strict *total* order on positions (key comparison, position tie-break);
/// totality makes the permutation unique, so the merged result matches the
/// serial sort exactly no matter how the runs were cut or scheduled.
template <typename Less>
void MergeSortPerm(size_t n, const ExecContext& ctx, Less less,
                   std::vector<uint32_t>* out) {
  std::vector<uint32_t>& perm = *out;
  perm.resize(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  if (n <= 1) return;
  if (ctx.threads() <= 1 || n < kParallelSortMin) {
    std::sort(perm.begin(), perm.end(), less);
    return;
  }
  // Run formation: one contiguous run per morsel, sized so every worker
  // gets about one run but never below the default morsel grain.
  const size_t nthreads = static_cast<size_t>(ctx.threads());
  const size_t grain =
      std::max(TaskPool::kDefaultGrain, (n + nthreads - 1) / nthreads);
  Status st = ctx.ParallelFor(
      n, grain, [&](size_t begin, size_t end, int /*worker*/) {
        std::sort(perm.begin() + static_cast<ptrdiff_t>(begin),
                  perm.begin() + static_cast<ptrdiff_t>(end), less);
        return Status::OK();
      });
  MAMMOTH_CHECK(st.ok(), "run formation cannot fail");
  std::vector<std::pair<size_t, size_t>> runs;
  for (size_t begin = 0; begin < n; begin += grain) {
    runs.emplace_back(begin, std::min(begin + grain, n));
  }
  if (runs.size() == 1) return;
  std::vector<uint32_t> merged(n);
  LoserTree<Less> tree(perm.data(), std::move(runs), less);
  for (size_t i = 0; i < n; ++i) merged[i] = tree.Pop();
  perm = std::move(merged);
}

/// Computes the stable ascending/descending permutation of `base`'s tail:
/// radix for 4/8-byte integer tails, run-merge for everything else.
void SortPermutation(const Bat& base, bool descending, const ExecContext& ctx,
                     std::vector<uint32_t>* perm) {
  const size_t n = base.Count();
  if (base.type() == PhysType::kStr) {
    const uint64_t* offs = base.TailData<uint64_t>();
    const StringHeap& heap = *base.heap();
    auto less = [&heap, offs, descending](uint32_t a, uint32_t b) {
      const std::string_view sa = heap.Get(offs[a]);
      const std::string_view sb = heap.Get(offs[b]);
      const int c = sa.compare(sb);
      if (c != 0) return descending ? c > 0 : c < 0;
      return a < b;
    };
    MergeSortPerm(n, ctx, less, perm);
    return;
  }
  DispatchNumeric(base.type(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    const T* v = base.TailData<T>();
    if constexpr (std::is_integral_v<T> && sizeof(T) >= 4) {
      RadixSortPerm(v, n, descending, ctx, perm);
    } else {
      auto less = [v, descending](uint32_t a, uint32_t b) {
        if (descending ? v[b] < v[a] : v[a] < v[b]) return true;
        if (descending ? v[a] < v[b] : v[b] < v[a]) return false;
        return a < b;
      };
      MergeSortPerm(n, ctx, less, perm);
    }
  });
}

// ------------------------------------------------------------ fast paths --

/// True when `b` is already in the asked order (sorted ascending for an
/// ascending ask, reverse-sorted for a descending one) or trivially so.
bool OrderMatches(const BatProperties& p, size_t n, bool descending) {
  return n <= 1 || (descending ? p.revsorted : p.sorted);
}

/// True when `b` is in exactly the opposite order *and* tie-free, so the
/// stable permutation is the plain reversal. Without the key property a
/// reversal would flip the head order of equal keys and diverge from the
/// stable sort.
bool ReversalMatches(const BatProperties& p, bool descending) {
  return p.key && (descending ? p.sorted : p.revsorted);
}

BatPtr ReversedOrderBat(Oid hseq, size_t n, const ExecContext& ctx) {
  BatPtr order = Bat::New(PhysType::kOid);
  order->Resize(n);
  Oid* ord = order->MutableTailData<Oid>();
  Status st = ctx.ParallelFor(
      n, TaskPool::kDefaultGrain, [&](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; ++i) ord[i] = hseq + (n - 1 - i);
        return Status::OK();
      });
  MAMMOTH_CHECK(st.ok(), "order reversal cannot fail");
  BatProperties& op = order->mutable_props();
  op.key = true;
  op.revsorted = true;
  op.sorted = n <= 1;
  return order;
}

}  // namespace

Result<SortResult> Sort(const BatPtr& b, bool descending,
                        const ExecContext& ctx) {
  if (b == nullptr) return Status::InvalidArgument("sort: null input");
  const size_t n = b->Count();
  const Oid hseq = b->hseqbase();
  const BatProperties props = b->props();

  // Property short-circuit: the input already carries the asked order.
  if (OrderMatches(props, n, descending)) {
    SortResult out;
    out.order = Bat::NewDense(hseq, n, 0);
    out.sorted = b->Clone();
    out.sorted->set_hseqbase(0);  // aligned with the order list, like Project
    BatProperties& sp = out.sorted->mutable_props();
    sp.sorted = sp.sorted || !descending || n <= 1;
    sp.revsorted = sp.revsorted || descending || n <= 1;
    sp.key = sp.key || n <= 1;
    return out;
  }
  // Opposite order with no ties: the stable permutation is the reversal.
  if (ReversalMatches(props, descending)) {
    SortResult out;
    out.order = ReversedOrderBat(hseq, n, ctx);
    MAMMOTH_ASSIGN_OR_RETURN(out.sorted, Project(out.order, b, ctx));
    BatProperties& sp = out.sorted->mutable_props();
    sp.sorted = !descending;
    sp.revsorted = descending;
    sp.key = true;
    return out;
  }

  BatPtr base = b;
  if (b->IsDenseTail()) {
    base = b->Clone();
    base->MaterializeDense();
  }

  std::vector<uint32_t> perm;
  SortPermutation(*base, descending, ctx, &perm);

  SortResult out;
  out.order = Bat::New(PhysType::kOid);
  out.order->Resize(n);
  Oid* ord = out.order->MutableTailData<Oid>();
  Status st = ctx.ParallelFor(
      n, TaskPool::kDefaultGrain, [&](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; ++i) ord[i] = hseq + perm[i];
        return Status::OK();
      });
  MAMMOTH_CHECK(st.ok(), "order materialization cannot fail");
  out.order->mutable_props().key = true;

  MAMMOTH_ASSIGN_OR_RETURN(out.sorted, Project(out.order, base, ctx));
  BatProperties& sp = out.sorted->mutable_props();
  // A 0/1-row result is trivially both sorted and reverse-sorted.
  sp.sorted = !descending || n <= 1;
  sp.revsorted = descending || n <= 1;
  return out;
}

namespace {

/// Scans [0, n) keeping the k best positions under `out_less` (a strict
/// total output order on positions): every worker maintains a bounded
/// binary max-heap over the morsels it happens to claim, and the union of
/// the per-worker survivors — which must contain the true top-k — is sorted
/// and truncated serially. The merge makes the result independent of
/// morsel scheduling, so any context yields identical bytes.
template <typename OutLess>
void TopKPositions(size_t n, size_t k, const ExecContext& ctx,
                   OutLess out_less, std::vector<uint32_t>* out) {
  std::vector<std::vector<uint32_t>> heaps(
      static_cast<size_t>(ctx.threads()));
  Status st = ctx.ParallelFor(
      n, TaskPool::kDefaultGrain, [&](size_t begin, size_t end, int worker) {
        std::vector<uint32_t>& h = heaps[static_cast<size_t>(worker)];
        for (size_t i = begin; i < end; ++i) {
          const uint32_t idx = static_cast<uint32_t>(i);
          if (h.size() < k) {
            h.push_back(idx);
            std::push_heap(h.begin(), h.end(), out_less);
          } else if (out_less(idx, h.front())) {
            // Beats the worst survivor: replace the heap top.
            std::pop_heap(h.begin(), h.end(), out_less);
            h.back() = idx;
            std::push_heap(h.begin(), h.end(), out_less);
          }
        }
        return Status::OK();
      });
  MAMMOTH_CHECK(st.ok(), "topn scan cannot fail");
  std::vector<uint32_t>& cand = *out;
  cand.clear();
  for (const std::vector<uint32_t>& h : heaps) {
    cand.insert(cand.end(), h.begin(), h.end());
  }
  std::sort(cand.begin(), cand.end(), out_less);
  if (cand.size() > k) cand.resize(k);
}

}  // namespace

Result<BatPtr> TopN(const BatPtr& b, size_t k, bool descending,
                    const ExecContext& ctx) {
  if (b == nullptr) return Status::InvalidArgument("topn: null input");
  const size_t n = b->Count();
  if (k > n) k = n;
  const Oid hseq = b->hseqbase();
  if (k == 0) {
    BatPtr r = Bat::New(PhysType::kOid);
    r->mutable_props().key = true;
    return r;
  }

  const BatProperties props = b->props();
  // Already in the asked order: the top-k is the first k head OIDs.
  if (OrderMatches(props, n, descending)) {
    return Bat::NewDense(hseq, k, 0);
  }
  // Opposite order, tie-free: the top-k is the last k head OIDs reversed.
  if (ReversalMatches(props, descending)) {
    BatPtr r = Bat::New(PhysType::kOid);
    r->Resize(k);
    Oid* ord = r->MutableTailData<Oid>();
    for (size_t i = 0; i < k; ++i) ord[i] = hseq + (n - 1 - i);
    r->mutable_props().key = true;
    return r;
  }

  BatPtr base = b;
  if (b->IsDenseTail()) {
    base = b->Clone();
    base->MaterializeDense();
  }

  std::vector<uint32_t> top;
  if (base->type() == PhysType::kStr) {
    const uint64_t* offs = base->TailData<uint64_t>();
    const StringHeap& heap = *base->heap();
    auto out_less = [&heap, offs, descending](uint32_t a, uint32_t b2) {
      const std::string_view sa = heap.Get(offs[a]);
      const std::string_view sb = heap.Get(offs[b2]);
      const int c = sa.compare(sb);
      if (c != 0) return descending ? c > 0 : c < 0;
      return a < b2;
    };
    TopKPositions(n, k, ctx, out_less, &top);
  } else {
    DispatchNumeric(base->type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      const T* v = base->TailData<T>();
      auto out_less = [v, descending](uint32_t a, uint32_t b2) {
        if (descending ? v[b2] < v[a] : v[a] < v[b2]) return true;
        if (descending ? v[a] < v[b2] : v[b2] < v[a]) return false;
        return a < b2;
      };
      TopKPositions(n, k, ctx, out_less, &top);
    });
  }

  BatPtr r = Bat::New(PhysType::kOid);
  r->Resize(k);
  Oid* ord = r->MutableTailData<Oid>();
  for (size_t i = 0; i < k; ++i) ord[i] = hseq + top[i];
  r->mutable_props().key = true;
  return r;
}

namespace {

/// Phase 1 of RefineSort: reorders `pos` so every tie-group slice
/// [starts[g], starts[g+1]) is stably sorted by value (`less` compares
/// positions by value only). A single all-spanning group runs the full
/// parallel sort machinery with slot tie-breaking; otherwise whole groups
/// fan out to workers, which is deterministic because groups are disjoint.
template <typename ValueLess>
void RefineOrder(std::vector<uint32_t>* pos_io,
                 const std::vector<size_t>& starts, const ExecContext& ctx,
                 ValueLess less) {
  std::vector<uint32_t>& pos = *pos_io;
  const size_t n = pos.size();
  const size_t ngin = starts.size() - 1;
  if (n <= 1) return;
  if (ngin == 1) {
    auto slot_less = [&pos, &less](uint32_t a, uint32_t b) {
      if (less(pos[a], pos[b])) return true;
      if (less(pos[b], pos[a])) return false;
      return a < b;  // stability: earlier incoming slot first
    };
    std::vector<uint32_t> idx;
    MergeSortPerm(n, ctx, slot_less, &idx);
    std::vector<uint32_t> next(n);
    Status st = ctx.ParallelFor(
        n, TaskPool::kDefaultGrain, [&](size_t begin, size_t end, int) {
          for (size_t i = begin; i < end; ++i) next[i] = pos[idx[i]];
          return Status::OK();
        });
    MAMMOTH_CHECK(st.ok(), "refine gather cannot fail");
    pos = std::move(next);
    return;
  }
  Status st = ctx.ParallelFor(
      ngin, /*grain=*/1, [&](size_t gbegin, size_t gend, int /*worker*/) {
        for (size_t g = gbegin; g < gend; ++g) {
          std::stable_sort(
              pos.begin() + static_cast<ptrdiff_t>(starts[g]),
              pos.begin() + static_cast<ptrdiff_t>(starts[g + 1]),
              [&less](uint32_t a, uint32_t b) { return less(a, b); });
        }
        return Status::OK();
      });
  MAMMOTH_CHECK(st.ok(), "refine sort cannot fail");
}

/// Phase 2 of RefineSort: renumbers tie groups over the refined order —
/// a new group starts at every incoming group boundary and at every value
/// change inside a group. Boundary flags are computed morsel-parallel
/// (reads only), the id prefix scan is a cheap serial pass, so ids are
/// identical for any context.
template <typename ValueEq>
size_t RefineGroups(const std::vector<uint32_t>& pos,
                    const std::vector<size_t>& starts, const ExecContext& ctx,
                    ValueEq eq, std::vector<uint32_t>* ids) {
  const size_t n = pos.size();
  ids->assign(n, 0);
  if (n == 0) return 0;
  std::vector<uint8_t> flag(n);
  Status st = ctx.ParallelFor(
      n, TaskPool::kDefaultGrain, [&](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; ++i) {
          flag[i] = i == 0 || !eq(pos[i], pos[i - 1]) ? 1 : 0;
        }
        return Status::OK();
      });
  MAMMOTH_CHECK(st.ok(), "refine flags cannot fail");
  for (size_t g = 1; g + 1 < starts.size(); ++g) flag[starts[g]] = 1;
  uint32_t cur = 0;
  for (size_t i = 0; i < n; ++i) {
    if (flag[i] && i > 0) ++cur;
    (*ids)[i] = cur;
  }
  return static_cast<size_t>(cur) + 1;
}

}  // namespace

Result<RefineSortResult> RefineSort(const BatPtr& b, const BatPtr& order,
                                    const BatPtr& tie_groups, bool descending,
                                    const ExecContext& ctx) {
  if (b == nullptr) return Status::InvalidArgument("refinesort: null input");
  if (order != nullptr && order->type() != PhysType::kOid) {
    return Status::TypeMismatch("refinesort: order must be bat[:oid]");
  }
  const size_t n = order != nullptr ? order->Count() : b->Count();
  if (tie_groups != nullptr) {
    if (tie_groups->type() != PhysType::kOid) {
      return Status::TypeMismatch("refinesort: tie groups must be bat[:oid]");
    }
    if (tie_groups->Count() != n) {
      return Status::InvalidArgument(
          "refinesort: tie groups not aligned with order");
    }
    // Every incoming tie group is one row: the order is already total, so
    // a later key of an ORDER BY chain costs nothing.
    if (order != nullptr && tie_groups->props().key) {
      return RefineSortResult{order, tie_groups, n};
    }
  }

  BatPtr base = b;
  if (b->IsDenseTail()) {
    base = b->Clone();
    base->MaterializeDense();
  }
  const Oid hseq = base->hseqbase();
  const size_t vcount = base->Count();

  // Current positions into `base`, in incoming order.
  std::vector<uint32_t> pos(n);
  if (order == nullptr) {
    for (size_t i = 0; i < n; ++i) pos[i] = static_cast<uint32_t>(i);
  } else {
    CandidateReader cr(order.get(), base.get());
    Status st = ctx.ParallelFor(
        n, TaskPool::kDefaultGrain, [&](size_t begin, size_t end, int) {
          for (size_t i = begin; i < end; ++i) {
            const size_t p = cr.PositionAt(i);
            if (p >= vcount) {
              return Status::OutOfRange("refinesort: oid beyond sort column");
            }
            pos[i] = static_cast<uint32_t>(p);
          }
          return Status::OK();
        });
    MAMMOTH_RETURN_IF_ERROR(st);
  }

  // Tie-group starts from the (non-decreasing) incoming ids. A dense id
  // BAT means every row is already its own group.
  std::vector<size_t> starts;
  starts.push_back(0);
  if (tie_groups != nullptr && n > 1) {
    if (tie_groups->IsDenseTail()) {
      for (size_t i = 1; i < n; ++i) starts.push_back(i);
    } else {
      const Oid* g = tie_groups->TailData<Oid>();
      for (size_t i = 1; i < n; ++i) {
        if (g[i] != g[i - 1]) starts.push_back(i);
      }
    }
  }
  starts.push_back(n);
  const size_t ngin = starts.size() - 1;

  std::vector<uint32_t> ids;
  size_t ngroups = 0;
  if (base->type() == PhysType::kStr) {
    const uint64_t* offs = base->TailData<uint64_t>();
    const StringHeap& heap = *base->heap();
    auto less = [&heap, offs, descending](uint32_t a, uint32_t b2) {
      return descending ? heap.Get(offs[b2]) < heap.Get(offs[a])
                        : heap.Get(offs[a]) < heap.Get(offs[b2]);
    };
    auto eq = [&heap, offs](uint32_t a, uint32_t b2) {
      return heap.Get(offs[a]) == heap.Get(offs[b2]);
    };
    RefineOrder(&pos, starts, ctx, less);
    ngroups = RefineGroups(pos, starts, ctx, eq, &ids);
  } else {
    DispatchNumeric(base->type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      const T* v = base->TailData<T>();
      bool radixed = false;
      if constexpr (std::is_integral_v<T> && sizeof(T) >= 4) {
        // First ordering key over the identity: take the radix path.
        if (order == nullptr && ngin == 1 && n > 1) {
          RadixSortPerm(v, n, descending, ctx, &pos);
          radixed = true;
        }
      }
      auto less = [v, descending](uint32_t a, uint32_t b2) {
        return descending ? v[b2] < v[a] : v[a] < v[b2];
      };
      auto eq = [v](uint32_t a, uint32_t b2) { return v[a] == v[b2]; };
      if (!radixed) RefineOrder(&pos, starts, ctx, less);
      ngroups = RefineGroups(pos, starts, ctx, eq, &ids);
    });
  }

  RefineSortResult out;
  out.order = Bat::New(PhysType::kOid);
  out.order->Resize(n);
  Oid* ord = out.order->MutableTailData<Oid>();
  Status st = ctx.ParallelFor(
      n, TaskPool::kDefaultGrain, [&](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; ++i) ord[i] = hseq + pos[i];
        return Status::OK();
      });
  MAMMOTH_CHECK(st.ok(), "refine order materialization cannot fail");
  out.order->mutable_props().key = true;

  out.tie_groups = Bat::New(PhysType::kOid);
  out.tie_groups->Resize(n);
  Oid* gid = out.tie_groups->MutableTailData<Oid>();
  st = ctx.ParallelFor(
      n, TaskPool::kDefaultGrain, [&](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; ++i) gid[i] = ids[i];
        return Status::OK();
      });
  MAMMOTH_CHECK(st.ok(), "tie group materialization cannot fail");
  BatProperties& gp = out.tie_groups->mutable_props();
  gp.sorted = true;
  gp.revsorted = ngroups <= 1;
  gp.key = ngroups == n;
  out.ngroups = ngroups;
  return out;
}

}  // namespace mammoth::algebra
