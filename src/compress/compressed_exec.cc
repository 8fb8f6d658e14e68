#include "compress/compressed_exec.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "compress/compressed_kernels.h"
#include "core/candidates.h"
#include "core/project.h"

namespace mammoth::compress {

Result<BatPtr> CompressedProject(
    const BatPtr& oids, const std::shared_ptr<const CompressedBat>& values,
    const parallel::ExecContext& ctx) {
  if (oids == nullptr || values == nullptr) {
    return Status::InvalidArgument("project: null input");
  }
  if (oids->type() != PhysType::kOid) {
    return Status::TypeMismatch("project: oid list must be bat[:oid]");
  }
  const size_t n = oids->Count();
  if (oids->IsDenseTail()) {
    // Contiguous positions: decode exactly [tseqbase, tseqbase + n).
    const size_t start = oids->tseqbase();
    if (start + n > values->Count()) {
      return Status::OutOfRange("project: oid beyond value BAT");
    }
    BatPtr r = Bat::New(values->type());
    r->Resize(n);
    MAMMOTH_RETURN_IF_ERROR(
        values->DecodeRangeRaw(start, n, r->tail().raw_data()));
    r->mutable_props() = BatProperties{};
    r->set_hseqbase(oids->hseqbase());
    if (n < values->Count()) stats::ProjectBounded(n * values->width());
    return r;
  }
  if (n == 0) {
    BatPtr r = Bat::New(values->type());
    r->set_hseqbase(oids->hseqbase());
    return r;
  }
  // Arbitrary OID list. When the list is narrow and the codec has random
  // access, decode only the touched row span into a transient buffer
  // instead of materializing (and permanently caching) the whole column.
  const Oid* os = oids->TailData<Oid>();
  if (values->codec() == Codec::kPfor || values->codec() == Codec::kPdict) {
    Oid lo = os[0], hi = os[0];
    for (size_t i = 1; i < n; ++i) {
      lo = std::min(lo, os[i]);
      hi = std::max(hi, os[i]);
    }
    if (hi >= values->Count()) {
      return Status::OutOfRange("project: oid beyond value BAT");
    }
    const size_t span = static_cast<size_t>(hi - lo) + 1;
    if (span <= values->Count() / 2) {
      const size_t w = values->width();
      std::vector<uint8_t> tmp(span * w);
      MAMMOTH_RETURN_IF_ERROR(values->DecodeRangeRaw(lo, span, tmp.data()));
      BatPtr r = Bat::New(values->type());
      r->Resize(n);
      if (values->type() == PhysType::kInt32) {
        const int32_t* in = reinterpret_cast<const int32_t*>(tmp.data());
        int32_t* out = r->MutableTailData<int32_t>();
        for (size_t i = 0; i < n; ++i) out[i] = in[os[i] - lo];
      } else {
        const int64_t* in = reinterpret_cast<const int64_t*>(tmp.data());
        int64_t* out = r->MutableTailData<int64_t>();
        for (size_t i = 0; i < n; ++i) out[i] = in[os[i] - lo];
      }
      r->set_hseqbase(oids->hseqbase());
      stats::ProjectBounded(span * w);
      return r;
    }
  }
  // Wide or stream-coded: gather from the shared whole-column decode.
  stats::ProjectFull();
  MAMMOTH_ASSIGN_OR_RETURN(BatPtr full, values->DecodedBat());
  return algebra::Project(oids, full, ctx);
}

Result<BatPtr> ProjectMainDelta(
    const BatPtr& oids, const BatPtr& main,
    const std::shared_ptr<const CompressedBat>& comp, const BatPtr& delta,
    const parallel::ExecContext& ctx) {
  if (oids == nullptr || (main == nullptr && comp == nullptr)) {
    return Status::InvalidArgument("project: null input");
  }
  auto project_main = [&](const BatPtr& o) {
    return main != nullptr ? algebra::Project(o, main, ctx)
                           : CompressedProject(o, comp, ctx);
  };
  if (delta == nullptr || delta->empty()) return project_main(oids);
  if (!KnownSorted(oids)) {
    BatPtr plain = main;
    if (plain == nullptr) {
      stats::ProjectFull();
      MAMMOTH_ASSIGN_OR_RETURN(plain, comp->DecodedBat());
    }
    return algebra::Project(oids, ConcatColumn(plain, delta), ctx);
  }
  const OidSplit split = SplitSortedOids(oids, delta->hseqbase());
  if (split.high->empty()) return project_main(oids);
  MAMMOTH_ASSIGN_OR_RETURN(BatPtr out,
                           algebra::Project(split.high, delta, ctx));
  if (!split.low->empty()) {
    MAMMOTH_ASSIGN_OR_RETURN(BatPtr head, project_main(split.low));
    head->AppendTail(*out);
    out = std::move(head);
  }
  out->set_hseqbase(oids->hseqbase());
  return out;
}

}  // namespace mammoth::compress
