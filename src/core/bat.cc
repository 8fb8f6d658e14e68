#include "core/bat.h"

#include <cstdio>

namespace mammoth {

Bat::Bat(PhysType type) : type_(type), tail_(type) {
  if (type == PhysType::kStr) heap_ = std::make_shared<StringHeap>();
}

BatPtr Bat::New(PhysType type) { return std::make_shared<Bat>(type); }

BatPtr Bat::NewString(std::shared_ptr<StringHeap> heap) {
  BatPtr b = std::make_shared<Bat>(PhysType::kStr);
  if (heap != nullptr) b->heap_ = std::move(heap);
  return b;
}

BatPtr Bat::NewDense(Oid tseqbase, size_t count, Oid hseqbase) {
  BatPtr b = std::make_shared<Bat>(PhysType::kOid);
  b->dense_tail_ = true;
  b->tseqbase_ = tseqbase;
  b->dense_count_ = count;
  b->hseqbase_ = hseqbase;
  b->props_.sorted = true;
  b->props_.key = true;
  b->props_.revsorted = count <= 1;
  return b;
}

void Bat::MaterializeDense() {
  if (!dense_tail_) return;
  tail_.Resize(dense_count_);
  Oid* out = tail_.Data<Oid>();
  for (size_t i = 0; i < dense_count_; ++i) out[i] = tseqbase_ + i;
  dense_tail_ = false;
  dense_count_ = 0;
  props_.sorted = true;
  props_.key = true;
}

void Bat::AppendString(std::string_view s) {
  MAMMOTH_DCHECK(type_ == PhysType::kStr, "AppendString on non-str BAT");
  tail_.Append<uint64_t>(heap_->Put(s));
}

std::string_view Bat::StringAt(size_t i) const {
  MAMMOTH_DCHECK(type_ == PhysType::kStr, "StringAt on non-str BAT");
  return heap_->Get(tail_.Data<uint64_t>()[i]);
}

namespace {

template <typename T>
void DeriveNumericProps(const T* v, size_t n, BatProperties* props) {
  bool sorted = true, revsorted = true, key = true;
  for (size_t i = 1; i < n; ++i) {
    if (v[i - 1] > v[i]) sorted = false;
    if (v[i - 1] < v[i]) revsorted = false;
    if (v[i - 1] == v[i]) key = false;
    if (!sorted && !revsorted) break;  // key no longer derivable cheaply
  }
  props->sorted = sorted;
  props->revsorted = revsorted;
  // key is only certain when we scanned everything in order; a strictly
  // monotone sequence is certainly key.
  props->key = (sorted || revsorted) && key && n > 0;
  if (n <= 1) {
    props->sorted = props->revsorted = true;
    props->key = true;
  }
}

}  // namespace

void Bat::DeriveProps() {
  if (dense_tail_) {
    props_.sorted = true;
    props_.key = true;
    props_.revsorted = Count() <= 1;
    return;
  }
  const size_t n = tail_.size();
  switch (type_) {
    case PhysType::kBool:
    case PhysType::kInt8:
      DeriveNumericProps(tail_.Data<int8_t>(), n, &props_);
      break;
    case PhysType::kInt16:
      DeriveNumericProps(tail_.Data<int16_t>(), n, &props_);
      break;
    case PhysType::kInt32:
      DeriveNumericProps(tail_.Data<int32_t>(), n, &props_);
      break;
    case PhysType::kInt64:
      DeriveNumericProps(tail_.Data<int64_t>(), n, &props_);
      break;
    case PhysType::kOid:
    case PhysType::kStr:  // offsets: sortedness of offsets is meaningless,
                          // but key-ness of offsets == key-ness of strings
                          // thanks to interning; approximate with oid scan.
      DeriveNumericProps(tail_.Data<uint64_t>(), n, &props_);
      if (type_ == PhysType::kStr) {
        props_.sorted = props_.revsorted = false;
      }
      break;
    case PhysType::kFloat:
      DeriveNumericProps(tail_.Data<float>(), n, &props_);
      break;
    case PhysType::kDouble:
      DeriveNumericProps(tail_.Data<double>(), n, &props_);
      break;
  }
}

BatPtr Bat::Clone() const {
  BatPtr out = std::make_shared<Bat>(type_);
  out->hseqbase_ = hseqbase_;
  out->props_ = props_;
  if (dense_tail_) {
    out->dense_tail_ = true;
    out->tseqbase_ = tseqbase_;
    out->dense_count_ = dense_count_;
  } else {
    out->tail_ = tail_.Clone();
  }
  out->heap_ = heap_;  // heaps are shared by design
  return out;
}

void Bat::AppendTail(const Bat& src) {
  MAMMOTH_DCHECK(src.type_ == type_, "AppendTail type mismatch");
  MaterializeDense();
  const size_t n = src.Count();
  if (src.dense_tail_) {
    tail_.Reserve(tail_.size() + n);
    for (size_t i = 0; i < n; ++i) tail_.Append<Oid>(src.tseqbase_ + i);
  } else {
    MAMMOTH_DCHECK(type_ != PhysType::kStr || src.heap_ == heap_,
                   "AppendTail string heaps differ");
    tail_.AppendRaw(src.tail_.raw_data(), n);
  }
  props_ = BatProperties{};
}

std::string Bat::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "bat[:oid,:%s]{count=%zu%s%s%s%s}",
                TypeName(type_), Count(), dense_tail_ ? ",dense" : "",
                props_.sorted ? ",sorted" : "",
                props_.revsorted ? ",revsorted" : "", props_.key ? ",key" : "");
  return buf;
}

BatPtr ConcatColumn(const BatPtr& main, const BatPtr& delta) {
  if (delta == nullptr || delta->empty()) return main;
  BatPtr out = main->Clone();
  out->AppendTail(*delta);
  return out;
}

BatPtr MakeStringBat(std::initializer_list<std::string_view> values) {
  BatPtr b = Bat::NewString(nullptr);
  for (std::string_view s : values) b->AppendString(s);
  return b;
}

}  // namespace mammoth
