#include "core/project.h"

#include <cstring>

#include "core/candidates.h"
#include "core/dispatch.h"

namespace mammoth::algebra {

namespace {

using parallel::ExecContext;
using parallel::TaskPool;

/// The typed gather loop: out[i] = in[position of oid i], bounds-checked.
/// Each morsel owns the disjoint output slice [begin, end), so the parallel
/// and serial schedules write identical bytes.
template <typename T>
Status GatherSlices(const CandidateReader& cr, bool dense, const T* in,
                    T* out, size_t n, size_t vcount, const ExecContext& ctx) {
  if (dense && n > 0) {
    // A dense OID list is one row range: check its ends and copy it.
    const size_t first = cr.PositionAt(0);
    if (first >= vcount || vcount - first < n) {
      return Status::OutOfRange("project: oid beyond value BAT");
    }
    std::memcpy(out, in + first, n * sizeof(T));
    return Status::OK();
  }
  return ctx.ParallelFor(
      n, TaskPool::kDefaultGrain,
      [&](size_t begin, size_t end, int /*worker*/) {
        for (size_t i = begin; i < end; ++i) {
          const size_t pos = cr.PositionAt(i);
          if (pos >= vcount) {
            return Status::OutOfRange("project: oid beyond value BAT");
          }
          out[i] = in[pos];
        }
        return Status::OK();
      });
}

}  // namespace

Result<BatPtr> Project(const BatPtr& oids, const BatPtr& values,
                       const parallel::ExecContext& ctx) {
  if (oids == nullptr || values == nullptr) {
    return Status::InvalidArgument("project: null input");
  }
  if (oids->type() != PhysType::kOid) {
    return Status::TypeMismatch("project: oid list must be bat[:oid]");
  }
  const size_t n = oids->Count();
  const Oid vbase = values->hseqbase();
  const size_t vcount = values->Count();

  // Dense OID list over a dense value tail: result stays dense.
  if (oids->IsDenseTail() && values->IsDenseTail()) {
    const Oid start =
        values->tseqbase() + (oids->tseqbase() - vbase);
    BatPtr r = Bat::NewDense(start, n, oids->hseqbase());
    return r;
  }

  CandidateReader cr(oids.get(), values.get());

  BatPtr base = values;
  if (values->IsDenseTail()) {
    base = values->Clone();
    base->MaterializeDense();
  }

  BatPtr r;
  if (base->type() == PhysType::kStr) {
    r = Bat::NewString(base->heap());
    r->Resize(n);
    MAMMOTH_RETURN_IF_ERROR(GatherSlices<uint64_t>(
        cr, oids->IsDenseTail(), base->TailData<uint64_t>(),
        r->MutableTailData<uint64_t>(), n, vcount, ctx));
  } else {
    r = Bat::New(base->type());
    r->Resize(n);
    MAMMOTH_RETURN_IF_ERROR(DispatchNumeric(base->type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      return GatherSlices<T>(cr, oids->IsDenseTail(), base->TailData<T>(),
                             r->MutableTailData<T>(), n, vcount, ctx);
    }));
  }
  r->set_hseqbase(oids->hseqbase());
  return r;
}

}  // namespace mammoth::algebra
