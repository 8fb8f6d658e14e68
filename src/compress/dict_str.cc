#include "compress/dict_str.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/bitutil.h"
#include "compress/bitpack.h"

namespace mammoth::compress {

namespace {
constexpr uint32_t kMagic = 0x31434453;  // "SDC1"
}  // namespace

Result<StrDict> StrDict::Encode(const BatPtr& b) {
  if (b == nullptr) return Status::InvalidArgument("strdict: null input BAT");
  if (b->type() != PhysType::kStr) {
    return Status::Unsupported("strdict: input is not bat[:str]");
  }
  const size_t n = b->Count();
  const uint64_t* offs = b->TailData<uint64_t>();
  // The heap deduplicates, so distinct offsets are exactly the distinct
  // strings; map each to a provisional id, then remap into sorted order.
  std::unordered_map<uint64_t, uint32_t> ids;
  std::vector<std::string_view> words;
  std::vector<uint32_t> codes(n);
  for (size_t i = 0; i < n; ++i) {
    auto [it, fresh] =
        ids.try_emplace(offs[i], static_cast<uint32_t>(ids.size()));
    if (fresh) {
      words.push_back(b->heap()->Get(offs[i]));
      if (words.size() > kMaxDistinct) {
        return Status::InvalidArgument(
            "strdict: more than 2^16 distinct strings");
      }
    }
    codes[i] = it->second;
  }
  std::vector<uint32_t> order(words.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t c) {
    return words[a] < words[c];
  });
  std::vector<uint32_t> remap(words.size());
  for (uint32_t rank = 0; rank < order.size(); ++rank) {
    remap[order[rank]] = rank;
  }
  for (size_t i = 0; i < n; ++i) codes[i] = remap[codes[i]];

  StrDict out;
  out.count_ = n;
  out.props_ = b->props();
  out.offsets_.reserve(words.size() + 1);
  out.offsets_.push_back(0);
  for (uint32_t rank = 0; rank < order.size(); ++rank) {
    std::string_view w = words[order[rank]];
    out.chars_.insert(out.chars_.end(), w.begin(), w.end());
    out.offsets_.push_back(static_cast<uint32_t>(out.chars_.size()));
  }
  out.bits_ = words.size() <= 1
                  ? 0
                  : static_cast<uint32_t>(CeilLog2(words.size()));
  PackBits(codes.data(), n, static_cast<int>(out.bits_), &out.codes_);
  out.codes_.resize(out.codes_.size() + 8, 0);  // unpack slack
  return out;
}

bool StrDict::FindCode(std::string_view s, uint32_t* code) const {
  const uint32_t lo = LowerBound(s);
  if (lo < dsize() && Word(lo) == s) {
    *code = lo;
    return true;
  }
  return false;
}

uint32_t StrDict::LowerBound(std::string_view s) const {
  uint32_t lo = 0, hi = dsize();
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (Word(mid) < s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint32_t StrDict::UpperBound(std::string_view s) const {
  uint32_t lo = 0, hi = dsize();
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (Word(mid) <= s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void StrDict::PrefixCodeRange(std::string_view prefix, uint32_t* lo,
                              uint32_t* hi) const {
  *lo = LowerBound(prefix);
  uint32_t h = *lo;
  // Words with the prefix are contiguous from *lo; advance past them by
  // binary search on "still has the prefix".
  uint32_t bound = dsize();
  while (h < bound) {
    const uint32_t mid = h + (bound - h) / 2;
    std::string_view w = Word(mid);
    if (w.size() >= prefix.size() && w.substr(0, prefix.size()) == prefix) {
      h = mid + 1;
    } else {
      bound = mid;
    }
  }
  *hi = h;
}

Result<BatPtr> StrDict::Decode() const {
  BatPtr b = Bat::NewString(nullptr);
  // Intern each distinct word once, then append raw offsets per row — the
  // per-row cost is a shift-mask plus an 8-byte store, no hashing.
  std::vector<uint64_t> word_off(dsize());
  for (uint32_t c = 0; c < dsize(); ++c) {
    word_off[c] = b->heap()->Put(Word(c));
  }
  std::vector<uint64_t> offs(count_);
  constexpr size_t kBatch = 4096;
  uint32_t codes[kBatch];
  for (size_t base = 0; base < count_; base += kBatch) {
    const size_t m = std::min(kBatch, count_ - base);
    UnpackBits(codes_.data(), base, m, static_cast<int>(bits_), codes);
    for (size_t i = 0; i < m; ++i) offs[base + i] = word_off[codes[i]];
  }
  b->AppendRaw(offs.data(), offs.size());
  b->mutable_props() = props_;
  return b;
}

void StrDict::Serialize(std::string* out) const {
  const auto put = [out](const void* p, size_t n) {
    out->append(static_cast<const char*>(p), n);
  };
  const uint64_t count = count_;
  const uint32_t dsz = dsize();
  const uint8_t props = (props_.sorted ? 1 : 0) | (props_.revsorted ? 2 : 0) |
                        (props_.key ? 4 : 0);
  const uint8_t pad[3] = {0, 0, 0};
  const uint64_t chars_bytes = chars_.size();
  const uint64_t code_bytes = codes_.size();
  put(&kMagic, 4);
  put(&count, 8);
  put(&dsz, 4);
  put(&bits_, 4);
  put(&props, 1);
  put(pad, 3);
  put(&chars_bytes, 8);
  put(chars_.data(), chars_.size());
  put(offsets_.data(), offsets_.size() * sizeof(uint32_t));
  put(&code_bytes, 8);
  put(codes_.data(), codes_.size());
}

Result<StrDict> StrDict::Deserialize(std::string_view in) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(in.data());
  const uint8_t* end = p + in.size();
  const auto get = [&p, end](void* dst, size_t n) {
    if (static_cast<size_t>(end - p) < n) return false;
    std::memcpy(dst, p, n);
    p += n;
    return true;
  };
  uint32_t magic = 0, dsz = 0;
  uint64_t count = 0, chars_bytes = 0, code_bytes = 0;
  uint8_t props = 0, pad[3];
  StrDict out;
  if (!get(&magic, 4) || magic != kMagic) {
    return Status::Corruption("strdict: bad magic");
  }
  if (!get(&count, 8) || !get(&dsz, 4) || !get(&out.bits_, 4) ||
      !get(&props, 1) || !get(pad, 3) || !get(&chars_bytes, 8)) {
    return Status::Corruption("strdict: truncated header");
  }
  if (count > (uint64_t{1} << 40) || dsz > kMaxDistinct ||
      out.bits_ > 16 || chars_bytes > static_cast<uint64_t>(end - p) ||
      (count > 0 && dsz == 0)) {
    return Status::Corruption("strdict: implausible header");
  }
  out.count_ = count;
  out.props_.sorted = (props & 1) != 0;
  out.props_.revsorted = (props & 2) != 0;
  out.props_.key = (props & 4) != 0;
  out.chars_.resize(chars_bytes);
  if (!get(out.chars_.data(), chars_bytes)) {
    return Status::Corruption("strdict: truncated chars");
  }
  out.offsets_.resize(static_cast<size_t>(dsz) + 1);
  if (!get(out.offsets_.data(), out.offsets_.size() * sizeof(uint32_t))) {
    return Status::Corruption("strdict: truncated offsets");
  }
  if (out.offsets_.front() != 0 || out.offsets_.back() != chars_bytes ||
      !std::is_sorted(out.offsets_.begin(), out.offsets_.end())) {
    return Status::Corruption("strdict: bad offsets");
  }
  if (!get(&code_bytes, 8) ||
      code_bytes != static_cast<uint64_t>(end - p)) {
    return Status::Corruption("strdict: truncated codes");
  }
  if (code_bytes <
      PackedBytes(count, static_cast<int>(out.bits_)) + 8) {
    return Status::Corruption("strdict: code stream too short");
  }
  out.codes_.assign(p, p + code_bytes);
  // Reject out-of-range codes up front so no kernel indexes past the
  // dictionary at scan time.
  if (!CodesBelow(out.codes_.data(), out.count_,
                  static_cast<int>(out.bits_), dsz)) {
    return Status::Corruption("strdict: bad code");
  }
  return out;
}

}  // namespace mammoth::compress
