#include "compress/compressed_exec.h"

#include <vector>

#include "compress/compressed_kernels.h"
#include "core/candidates.h"
#include "core/project.h"

namespace mammoth::compress {

namespace {

/// CompressedBat::Gather, reporting a row beyond the column with the
/// message algebra::Project uses.
Status GatherOrOutOfRange(const CompressedBat& values, const Oid* rows,
                          size_t n, void* out) {
  Status st = values.Gather(rows, n, out);
  if (st.code() == StatusCode::kOutOfRange) {
    return Status::OutOfRange("project: oid beyond value BAT");
  }
  return st;
}

/// Projection of an unsorted OID list over (compressed main, delta): the
/// main rows gather from the codec stream in one call, the delta rows
/// straight from the delta, each into its slot of the result.
template <typename T>
Result<BatPtr> ProjectUnsorted(const BatPtr& oids, const CompressedBat& comp,
                               const BatPtr& delta) {
  const size_t n = oids->Count();
  const Oid* os = oids->TailData<Oid>();
  const Oid boundary = delta->hseqbase();
  const T* dvals = delta->TailData<T>();
  BatPtr r = Bat::New(comp.type());
  r->Resize(n);
  T* out = r->MutableTailData<T>();
  std::vector<Oid> rows;
  std::vector<size_t> slots;
  for (size_t i = 0; i < n; ++i) {
    if (os[i] < boundary) {
      rows.push_back(os[i]);
      slots.push_back(i);
    } else if (os[i] - boundary < delta->Count()) {
      out[i] = dvals[os[i] - boundary];
    } else {
      return Status::OutOfRange("project: oid beyond value BAT");
    }
  }
  std::vector<T> main_vals(rows.size());
  MAMMOTH_RETURN_IF_ERROR(
      GatherOrOutOfRange(comp, rows.data(), rows.size(), main_vals.data()));
  for (size_t k = 0; k < rows.size(); ++k) out[slots[k]] = main_vals[k];
  if (!rows.empty()) stats::ProjectBounded(rows.size() * sizeof(T));
  r->set_hseqbase(oids->hseqbase());
  return r;
}

}  // namespace

Result<BatPtr> CompressedProject(
    const BatPtr& oids, const std::shared_ptr<const CompressedBat>& values) {
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
  // Any other OID list gathers just the listed rows from the codec
  // stream, sorted or not.
  BatPtr r = Bat::New(values->type());
  r->Resize(n);
  MAMMOTH_RETURN_IF_ERROR(
      GatherOrOutOfRange(*values, oids->TailData<Oid>(), n,
                         r->tail().raw_data()));
  r->set_hseqbase(oids->hseqbase());
  if (n > 0) stats::ProjectBounded(n * values->width());
  return r;
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
                           : CompressedProject(o, comp);
  };
  if (delta == nullptr || delta->empty()) return project_main(oids);
  if (!KnownSorted(oids)) {
    if (main != nullptr) {
      return algebra::Project(oids, ConcatColumn(main, delta), ctx);
    }
    return comp->type() == PhysType::kInt32
               ? ProjectUnsorted<int32_t>(oids, *comp, delta)
               : ProjectUnsorted<int64_t>(oids, *comp, delta);
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
