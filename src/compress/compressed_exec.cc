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

/// Projection of an unsorted OID list over (encoded main, delta): the
/// main rows gather from the encoded image in one `gather_main(rows, n,
/// out)` call, the delta rows straight from the delta's tail, each into
/// its slot of `r` (an empty BAT of the result type; T is the tail slot
/// type, the heap offset for strings).
template <typename T, typename GatherFn>
Result<BatPtr> ProjectUnsorted(const BatPtr& oids, BatPtr r,
                               const BatPtr& delta,
                               const GatherFn& gather_main) {
  const size_t n = oids->Count();
  const Oid* os = oids->TailData<Oid>();
  const Oid boundary = delta->hseqbase();
  const T* dvals = delta->TailData<T>();
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
      gather_main(rows.data(), rows.size(), main_vals.data()));
  for (size_t k = 0; k < rows.size(); ++k) out[slots[k]] = main_vals[k];
  if (!rows.empty()) stats::ProjectBounded(rows.size() * sizeof(T));
  r->set_hseqbase(oids->hseqbase());
  return r;
}

Status CheckOids(const BatPtr& oids) {
  if (oids->type() != PhysType::kOid) {
    return Status::TypeMismatch("project: oid list must be bat[:oid]");
  }
  return Status::OK();
}

}  // namespace

Result<BatPtr> CompressedProject(
    const BatPtr& oids, const std::shared_ptr<const CompressedBat>& values) {
  if (oids == nullptr || values == nullptr) {
    return Status::InvalidArgument("project: null input");
  }
  MAMMOTH_RETURN_IF_ERROR(CheckOids(oids));
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

Result<BatPtr> DictProject(const BatPtr& oids,
                           const std::shared_ptr<const StrDict>& values) {
  if (oids == nullptr || values == nullptr) {
    return Status::InvalidArgument("project: null input");
  }
  MAMMOTH_RETURN_IF_ERROR(CheckOids(oids));
  const size_t n = oids->Count();
  BatPtr r = Bat::NewString(values->heap());
  r->Resize(n);
  uint64_t* out = r->MutableTailData<uint64_t>();
  if (oids->IsDenseTail()) {
    const size_t start = oids->tseqbase();
    if (start + n > values->Count()) {
      return Status::OutOfRange("project: oid beyond value BAT");
    }
    values->RangeOffsets(start, n, out);
    if (n < values->Count()) stats::ProjectBounded(n * sizeof(uint64_t));
  } else {
    MAMMOTH_RETURN_IF_ERROR(
        values->GatherOffsets(oids->TailData<Oid>(), n, out));
    if (n > 0) stats::ProjectBounded(n * sizeof(uint64_t));
  }
  r->set_hseqbase(oids->hseqbase());
  return r;
}

ColumnImage ColumnImage::Store(BatPtr b, bool compress) {
  if (compress && (b->type() == PhysType::kInt32 ||
                   b->type() == PhysType::kInt64)) {
    // No codec that shrinks the column (or an empty column) leaves it
    // plain.
    Result<CompressedBat> c = CompressedBat::CompressBest(b);
    if (c.ok()) {
      return {.comp = std::make_shared<const CompressedBat>(*std::move(c))};
    }
  } else if (compress && b->type() == PhysType::kStr) {
    // High cardinality leaves the column plain.
    Result<StrDict> d = StrDict::Encode(b);
    if (d.ok()) {
      return {.sdict = std::make_shared<const StrDict>(*std::move(d))};
    }
  }
  return {.bat = std::move(b)};
}

PhysType ColumnImage::type() const {
  if (comp != nullptr) return comp->type();
  return sdict != nullptr ? PhysType::kStr : bat->type();
}

size_t ColumnImage::Count() const {
  if (comp != nullptr) return comp->Count();
  return sdict != nullptr ? sdict->Count() : bat->Count();
}

Result<BatPtr> ColumnImage::Decode() const {
  if (comp != nullptr) return comp->Decode();
  return sdict != nullptr ? sdict->Decode() : Result<BatPtr>(bat);
}

BatPtr ColumnImage::Stub() const {
  if (comp != nullptr) return Bat::New(comp->type());
  return sdict != nullptr ? Bat::NewString(sdict->heap()) : bat;
}

Result<BatPtr> ColumnImage::Project(const BatPtr& oids,
                                    const parallel::ExecContext& ctx) const {
  if (comp != nullptr) return CompressedProject(oids, comp);
  if (sdict != nullptr) return DictProject(oids, sdict);
  return algebra::Project(oids, bat, ctx);
}

Result<BatPtr> ColumnImage::Fold(FoldOp op) const {
  if (comp == nullptr || !AggregatableOnCompressed(*comp)) return BatPtr();
  switch (op) {
    case FoldOp::kSum:
      return CompressedAggrSum(*comp);
    case FoldOp::kMin:
      return CompressedAggrMin(*comp);
    case FoldOp::kMax:
      return CompressedAggrMax(*comp);
  }
  return BatPtr();
}

size_t ColumnImage::EncodedBytes() const {
  if (comp != nullptr) return comp->CompressedBytes();
  return sdict != nullptr ? sdict->CompressedBytes() : 0;
}

size_t ColumnImage::LogicalBytes() const {
  if (comp != nullptr) return comp->LogicalBytes();
  return sdict != nullptr ? sdict->LogicalBytes() : 0;
}

size_t ColumnImage::IndexBytes() const {
  if (comp != nullptr) return comp->IndexBytes();
  return sdict != nullptr ? sdict->IndexBytes() : 0;
}

Result<BatPtr> ProjectMainDelta(const BatPtr& oids, const ColumnImage& main,
                                const BatPtr& delta,
                                const parallel::ExecContext& ctx) {
  if (oids == nullptr || !main) {
    return Status::InvalidArgument("project: null input");
  }
  if (delta == nullptr || delta->empty()) return main.Project(oids, ctx);
  if (main.sdict != nullptr && delta->heap() != main.sdict->heap()) {
    return Status::Internal("project: string delta off the dictionary heap");
  }
  if (!KnownSorted(oids)) {
    if (main.bat != nullptr) {
      return algebra::Project(oids, ConcatColumn(main.bat, delta), ctx);
    }
    MAMMOTH_RETURN_IF_ERROR(CheckOids(oids));
    if (main.sdict != nullptr) {
      return ProjectUnsorted<uint64_t>(
          oids, Bat::NewString(main.sdict->heap()), delta,
          [&](const Oid* rows, size_t n, uint64_t* out) {
            return main.sdict->GatherOffsets(rows, n, out);
          });
    }
    const CompressedBat& comp = *main.comp;
    auto gather = [&](const Oid* rows, size_t n, void* out) {
      return GatherOrOutOfRange(comp, rows, n, out);
    };
    return comp.type() == PhysType::kInt32
               ? ProjectUnsorted<int32_t>(oids, Bat::New(comp.type()), delta,
                                          gather)
               : ProjectUnsorted<int64_t>(oids, Bat::New(comp.type()), delta,
                                          gather);
  }
  const OidSplit split = SplitSortedOids(oids, delta->hseqbase());
  if (split.high->empty()) return main.Project(oids, ctx);
  MAMMOTH_ASSIGN_OR_RETURN(BatPtr out,
                           algebra::Project(split.high, delta, ctx));
  if (!split.low->empty()) {
    MAMMOTH_ASSIGN_OR_RETURN(BatPtr head, main.Project(split.low, ctx));
    head->AppendTail(*out);
    out = std::move(head);
  }
  out->set_hseqbase(oids->hseqbase());
  return out;
}

}  // namespace mammoth::compress
