#ifndef MAMMOTH_CORE_BAT_H_
#define MAMMOTH_CORE_BAT_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "core/column.h"
#include "core/string_heap.h"
#include "core/types.h"

namespace mammoth {

class Bat;
using BatPtr = std::shared_ptr<Bat>;

/// Tail properties maintained opportunistically by the kernels (§3.1: "They
/// maintain properties over the object accessed to gear the selection of
/// subsequent algorithms"). A property set to true is a guarantee; false
/// means "unknown", not "violated".
struct BatProperties {
  bool sorted = false;     ///< tail is non-decreasing
  bool revsorted = false;  ///< tail is non-increasing
  bool key = false;        ///< tail values are pairwise distinct
};

/// Binary Association Table: the storage unit of the engine (§3).
///
/// The head is always a *virtual* dense OID sequence starting at
/// `hseqbase()` — it occupies no memory, and positional lookup is a plain
/// array read (the O(1) lookup the paper contrasts with B-tree+slotted-page
/// designs). The tail is a typed memory array; string tails store offsets
/// into a shared StringHeap.
///
/// OID-typed tails can additionally be *dense* (a virtual arithmetic
/// sequence `tseqbase + i` with no backing array), which is how contiguous
/// select results and candidate lists avoid materialization.
class Bat {
 public:
  /// Creates an empty BAT with the given tail type.
  static BatPtr New(PhysType type);

  /// Creates an empty string BAT sharing `heap` (pass nullptr for a fresh
  /// heap).
  static BatPtr NewString(std::shared_ptr<StringHeap> heap);

  /// Creates a dense OID BAT: head [hseqbase..) and virtual tail
  /// [tseqbase, tseqbase+count). Used for candidate lists over full ranges.
  static BatPtr NewDense(Oid tseqbase, size_t count, Oid hseqbase = 0);

  explicit Bat(PhysType type);

  Bat(const Bat&) = delete;
  Bat& operator=(const Bat&) = delete;

  PhysType type() const { return type_; }
  size_t Count() const { return dense_tail_ ? dense_count_ : tail_.size(); }
  bool empty() const { return Count() == 0; }

  Oid hseqbase() const { return hseqbase_; }
  void set_hseqbase(Oid h) { hseqbase_ = h; }

  /// --- Dense (virtual) OID tails -------------------------------------
  bool IsDenseTail() const { return dense_tail_; }
  Oid tseqbase() const { return tseqbase_; }

  /// Converts a dense tail into an explicit array (no-op otherwise).
  void MaterializeDense();

  /// --- Typed access ----------------------------------------------------
  /// Direct pointer into the tail array. Invalid for dense tails (call
  /// MaterializeDense() first); checked in debug builds.
  template <typename T>
  const T* TailData() const {
    MAMMOTH_DCHECK(!dense_tail_, "TailData on dense tail");
    return tail_.Data<T>();
  }
  template <typename T>
  T* MutableTailData() {
    MAMMOTH_DCHECK(!dense_tail_, "TailData on dense tail");
    props_ = BatProperties{};  // writer may invalidate any guarantee
    return tail_.Data<T>();
  }

  /// OID at position i; handles dense and materialized tails.
  Oid OidAt(size_t i) const {
    MAMMOTH_DCHECK(type_ == PhysType::kOid, "OidAt on non-oid BAT");
    return dense_tail_ ? tseqbase_ + i : tail_.Data<Oid>()[i];
  }

  /// Value at position i (numeric tails only).
  template <typename T>
  T ValueAt(size_t i) const {
    return tail_.Data<T>()[i];
  }

  /// --- Building --------------------------------------------------------
  template <typename T>
  void Append(T v) {
    MAMMOTH_DCHECK(!dense_tail_, "Append on dense tail");
    MAMMOTH_DCHECK(TypeTraits<T>::kType == type_ ||
                       (type_ == PhysType::kStr && false),
                   "Append type mismatch");
    tail_.Append(v);
  }

  /// Appends `n` raw values of the tail's width.
  void AppendRaw(const void* src, size_t n) {
    MAMMOTH_DCHECK(!dense_tail_, "AppendRaw on dense tail");
    tail_.AppendRaw(src, n);
  }

  void Reserve(size_t n) { tail_.Reserve(n); }
  void Resize(size_t n) {
    MAMMOTH_DCHECK(!dense_tail_, "Resize on dense tail");
    tail_.Resize(n);
  }

  /// --- Strings ----------------------------------------------------------
  const std::shared_ptr<StringHeap>& heap() const { return heap_; }

  /// Interns `s` in the heap and appends its offset.
  void AppendString(std::string_view s);

  /// String value at position i (string tails only).
  std::string_view StringAt(size_t i) const;

  /// --- Properties --------------------------------------------------------
  const BatProperties& props() const { return props_; }
  BatProperties& mutable_props() { return props_; }

  /// Scans the tail and (re)derives sorted/revsorted/key properties.
  /// O(n) — used by tests and by optimizers that deem it worthwhile.
  void DeriveProps();

  /// Deep copy (string BATs share the heap).
  BatPtr Clone() const;

  /// Appends every tail value of `src` (same tail type). A string `src`
  /// must share this BAT's heap, so its offsets copy straight across
  /// (a table keeps every string delta on its main column's heap); a
  /// dense OID tail on either side is materialized. Resets the
  /// properties.
  void AppendTail(const Bat& src);

  /// Debug rendering: "bat[:oid,:int]{count=42,sorted}".
  std::string ToString() const;

  /// Bytes of tail payload (dense tails report 0).
  size_t PayloadBytes() const {
    return dense_tail_ ? 0 : tail_.size() * tail_.width();
  }

  /// Internal column (for kernels that build results in place).
  Column& tail() { return tail_; }
  const Column& tail() const { return tail_; }

  /// Attaches an object whose lifetime must cover this BAT's (e.g. the
  /// MappedFile backing a zero-copy tail).
  void set_keepalive(std::shared_ptr<void> k) { keepalive_ = std::move(k); }

 private:
  PhysType type_;
  Column tail_;
  std::shared_ptr<StringHeap> heap_;  // only for kStr
  Oid hseqbase_ = 0;

  bool dense_tail_ = false;
  Oid tseqbase_ = 0;
  size_t dense_count_ = 0;

  BatProperties props_;
  std::shared_ptr<void> keepalive_;
};

/// Convenience: builds a materialized BAT from a value list (testing aid).
template <typename T>
BatPtr MakeBat(std::initializer_list<T> values) {
  BatPtr b = Bat::New(TypeTraits<T>::kType);
  b->Reserve(values.size());
  for (T v : values) b->Append(v);
  return b;
}

/// Convenience: builds a string BAT from a list of literals.
BatPtr MakeStringBat(std::initializer_list<std::string_view> values);

/// `main` ++ `delta` as one BAT headed at main's hseqbase: `main` itself
/// when `delta` is null or empty, a fresh copy otherwise. The one
/// materializer of a column image together with its pending delta.
BatPtr ConcatColumn(const BatPtr& main, const BatPtr& delta);

}  // namespace mammoth

#endif  // MAMMOTH_CORE_BAT_H_
