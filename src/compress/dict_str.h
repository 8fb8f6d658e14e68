#ifndef MAMMOTH_COMPRESS_DICT_STR_H_
#define MAMMOTH_COMPRESS_DICT_STR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "compress/bitpack.h"
#include "core/bat.h"
#include "core/string_heap.h"

namespace mammoth::compress {

/// A dictionary-compressed string column: the distinct strings of the heap,
/// sorted lexicographically, plus one bit-packed code per row. Because the
/// dictionary is sorted, every string predicate rewrites into a per-code
/// LUT cheaply — `=` and `<>` are one binary-search probe, ordered
/// comparisons and LIKE-prefix patterns mark a code range found by binary
/// search, and arbitrary LIKE patterns evaluate once per *distinct* word —
/// so scans touch only the packed codes, never the heap.
///
/// The dictionary is the column's only image: the table keeps no per-row
/// offset tail next to it. Each dictionary builds a string heap holding
/// its words in code order, so a code maps to its heap offset through a
/// per-code table; projections gather codes and emit offsets into that
/// heap, and the table's pending delta interns into the same heap, so main
/// and delta rows concatenate by offset.
///
/// The dictionary is immutable once encoded (only its heap grows, by the
/// delta's new words); Table re-encodes at MergeDeltas (the same lifecycle
/// as integer CompressedBat columns). Instances are shared via
/// shared_ptr<const StrDict>.
class StrDict {
 public:
  /// Dictionaries beyond 2^16 distinct words stop paying for themselves
  /// (same bound as PDICT); Encode fails and the column stays plain.
  static constexpr size_t kMaxDistinct = size_t{1} << 16;

  /// Encodes a kStr BAT (offset tail + heap). Fails with InvalidArgument
  /// on cardinality above kMaxDistinct, Unsupported on non-string input.
  static Result<StrDict> Encode(const BatPtr& b);

  size_t Count() const { return count_; }
  uint32_t dsize() const { return static_cast<uint32_t>(offsets_.size() - 1); }
  uint32_t bits() const { return bits_; }
  const BatProperties& props() const { return props_; }

  /// The dictionary word for `code` (codes are in sorted word order).
  std::string_view Word(uint32_t code) const {
    return std::string_view(chars_.data() + offsets_[code],
                            offsets_[code + 1] - offsets_[code]);
  }

  /// The bit-packed code stream (8 bytes of slack past the last code);
  /// kernels unpack it in batches with UnpackBits.
  const uint8_t* code_data() const { return codes_.data(); }

  /// Code of row `row` (< Count()).
  uint32_t CodeAt(size_t row) const {
    return UnpackOne<uint32_t>(codes_.data(), row, static_cast<int>(bits_));
  }

  /// The column's string heap: the dictionary words interned in code
  /// order when the dictionary was built. The table's (empty) main BAT and
  /// its pending delta share it; the delta's new words append to it.
  const std::shared_ptr<StringHeap>& heap() const { return heap_; }

  /// Heap offsets of rows [start, start + n) into `out` (n slots).
  /// Requires start + n <= Count().
  void RangeOffsets(size_t start, size_t n, uint64_t* out) const;

  /// Heap offsets of the listed rows into `out` (n slots), in list order;
  /// OutOfRange (with algebra::Project's message) for a row at or beyond
  /// Count().
  Status GatherOffsets(const Oid* rows, size_t n, uint64_t* out) const;

  /// Code of `s` if present (binary search over the sorted dictionary).
  bool FindCode(std::string_view s, uint32_t* code) const;

  /// First code whose word is >= `s` / > `s` (dsize() when none).
  uint32_t LowerBound(std::string_view s) const;
  uint32_t UpperBound(std::string_view s) const;

  /// Codes [lo, hi) of dictionary words starting with `prefix` (an empty
  /// interval when no word matches). Drives LIKE-'lit%' in code space.
  void PrefixCodeRange(std::string_view prefix, uint32_t* lo,
                       uint32_t* hi) const;

  /// The whole column as a plain string BAT over heap(), with the encoded
  /// props. Only cold paths (join, group, sort, whole-column results,
  /// Table::ScanColumn) call it; each call counts as `project_full`.
  Result<BatPtr> Decode() const;

  /// Bytes of the per-code heap-offset table (a derived index, rebuilt
  /// with the dictionary, next to the encoded image).
  size_t IndexBytes() const { return heap_offsets_.size() * sizeof(uint64_t); }

  /// Footprint of the encoded image (dictionary + packed codes).
  size_t CompressedBytes() const {
    return chars_.size() + offsets_.size() * sizeof(uint32_t) + codes_.size();
  }
  /// Bytes the plain representation pays: 8-byte offset tail per row plus
  /// the heap (words + terminators).
  size_t LogicalBytes() const {
    return count_ * sizeof(uint64_t) + chars_.size() + dsize();
  }

  /// Self-describing byte image, persisted as a catalog `col_<i>.sdict`.
  void Serialize(std::string* out) const;
  static Result<StrDict> Deserialize(std::string_view in);

 private:
  /// Interns the words into a fresh heap in code order and records each
  /// code's offset; the last step of Encode and Deserialize.
  void BuildHeap();

  size_t count_ = 0;
  uint32_t bits_ = 0;
  BatProperties props_;
  std::vector<char> chars_;        // concatenated sorted words
  std::vector<uint32_t> offsets_;  // dsize+1 boundaries into chars_
  std::vector<uint8_t> codes_;     // bit-packed, +8 bytes slack
  std::shared_ptr<StringHeap> heap_;
  std::vector<uint64_t> heap_offsets_;  // dsize: code -> offset in heap_
};

}  // namespace mammoth::compress

#endif  // MAMMOTH_COMPRESS_DICT_STR_H_
