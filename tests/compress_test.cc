#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "compress/bitpack.h"
#include "compress/compressed_bat.h"
#include "compress/pdict.h"
#include "compress/pfor.h"
#include "compress/rle.h"
#include "wal/record.h"

namespace mammoth::compress {
namespace {

/// Packs random `bits`-bit values, then unpacks the whole stream and
/// windows starting at rows off byte boundaries (for odd widths) that run
/// to the end of the stream, where the slack reads happen, plus short
/// windows that end before, on and after the next 8-row group. Every row
/// also reads back alone through UnpackOne.
template <typename U>
void CheckRoundTrip(int bits, Rng* rng) {
  const size_t n = 333;
  std::vector<U> values(n);
  const uint64_t mask =
      bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  for (auto& v : values) v = static_cast<U>(rng->Next() & mask);
  std::vector<uint8_t> packed;
  PackBits(values.data(), n, bits, &packed);
  EXPECT_EQ(packed.size(), PackedBytes(n, bits)) << bits;
  packed.resize(packed.size() + 9);  // unpack slack
  for (const size_t from : {0, 1, 3, 7, 8, 13, 100, 332}) {
    std::vector<U> back(n - from);
    UnpackBits(packed.data(), from, back.size(), bits, back.data());
    ASSERT_TRUE(std::equal(back.begin(), back.end(), values.begin() + from))
        << "bits=" << bits << " from=" << from;
    for (size_t len = 1; len <= 17 && from + len <= n; ++len) {
      std::vector<U> window(len);
      UnpackBits(packed.data(), from, len, bits, window.data());
      ASSERT_TRUE(
          std::equal(window.begin(), window.end(), values.begin() + from))
          << "bits=" << bits << " from=" << from << " len=" << len;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(UnpackOne<U>(packed.data(), i, bits), values[i])
        << "bits=" << bits << " row=" << i;
  }
}

TEST(BitpackTest, RoundTripAllWidthsAndStartRows) {
  Rng rng(1);
  for (int bits = 0; bits <= 32; ++bits) CheckRoundTrip<uint32_t>(bits, &rng);
  for (int bits = 0; bits <= 64; ++bits) CheckRoundTrip<uint64_t>(bits, &rng);
}

std::vector<int32_t> MakeData(const std::string& kind, size_t n,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  if (kind == "small_range") {
    for (auto& x : v) x = static_cast<int32_t>(rng.Uniform(1000));
  } else if (kind == "skewed_outliers") {
    for (auto& x : v) {
      x = static_cast<int32_t>(rng.Uniform(64));
      if (rng.Uniform(100) < 3) x = static_cast<int32_t>(rng.Next());
    }
  } else if (kind == "sorted") {
    int32_t cur = -1000;
    for (auto& x : v) {
      cur += static_cast<int32_t>(rng.Uniform(5));
      x = cur;
    }
  } else if (kind == "constant") {
    for (auto& x : v) x = 42;
  } else if (kind == "random_full") {
    for (auto& x : v) x = static_cast<int32_t>(rng.Next());
  } else if (kind == "low_cardinality") {
    for (auto& x : v) {
      x = static_cast<int32_t>(rng.Uniform(16)) * 1000003;
    }
  } else if (kind == "runs") {
    int32_t cur = 0;
    size_t i = 0;
    while (i < n) {
      cur = static_cast<int32_t>(rng.Uniform(10));
      size_t run = 1 + rng.Uniform(50);
      for (size_t j = 0; j < run && i < n; ++j) v[i++] = cur;
    }
  }
  return v;
}

class CompressionRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(CompressionRoundTripTest, PforRoundTrips) {
  const auto& [kind, n] = GetParam();
  const auto data = MakeData(kind, n, 7);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(PforEncode(data.data(), data.size(), &buf).ok());
  std::vector<int32_t> back;
  ASSERT_TRUE(PforDecode(buf, &back).ok());
  EXPECT_EQ(back, data);
}

TEST_P(CompressionRoundTripTest, PforDeltaRoundTrips) {
  const auto& [kind, n] = GetParam();
  const auto data = MakeData(kind, n, 11);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(PforDeltaEncode(data.data(), data.size(), &buf).ok());
  std::vector<int32_t> back;
  ASSERT_TRUE(PforDeltaDecode(buf, &back).ok());
  EXPECT_EQ(back, data);
}

TEST_P(CompressionRoundTripTest, RleRoundTrips) {
  const auto& [kind, n] = GetParam();
  const auto data = MakeData(kind, n, 13);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(RleEncode(data.data(), data.size(), &buf).ok());
  std::vector<int32_t> back;
  ASSERT_TRUE(RleDecode(buf, &back).ok());
  EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, CompressionRoundTripTest,
    ::testing::Combine(::testing::Values("small_range", "skewed_outliers",
                                         "sorted", "constant", "random_full",
                                         "low_cardinality", "runs"),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{127},
                                         size_t{128}, size_t{129},
                                         size_t{10000})));

TEST(PdictTest, RoundTripsLowCardinality) {
  const auto data = MakeData("low_cardinality", 5000, 17);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(PdictEncode(data.data(), data.size(), &buf).ok());
  std::vector<int32_t> back;
  ASSERT_TRUE(PdictDecode(buf, &back).ok());
  EXPECT_EQ(back, data);
  // 16 distinct values -> 4 bits/code: compression must be strong.
  EXPECT_LT(buf.size(), data.size() * 4 / 4);
}

TEST(PdictTest, RejectsHighCardinality) {
  std::vector<int32_t> data(100000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<int32_t>(i);
  std::vector<uint8_t> buf;
  EXPECT_FALSE(PdictEncode(data.data(), data.size(), &buf).ok());
}

TEST(PdictTest, ConstantColumnUsesZeroBits) {
  const auto data = MakeData("constant", 10000, 1);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(PdictEncode(data.data(), data.size(), &buf).ok());
  EXPECT_LT(buf.size(), 64u);  // header + 1 dict entry + no payload
  std::vector<int32_t> back;
  ASSERT_TRUE(PdictDecode(buf, &back).ok());
  EXPECT_EQ(back, data);
}

TEST(PforTest, CompressesSmallRangeWell) {
  const auto data = MakeData("small_range", 100000, 5);  // values < 1000
  std::vector<uint8_t> buf;
  ASSERT_TRUE(PforEncode(data.data(), data.size(), &buf).ok());
  // 10 bits/value vs 32 -> better than 2.5x.
  EXPECT_LT(buf.size(), data.size() * 4 / 2);
}

TEST(PforTest, OutliersBecomeExceptionsNotWidth) {
  // 97% tiny values + 3% huge: PFOR should stay near the tiny width.
  const auto data = MakeData("skewed_outliers", 100000, 3);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(PforEncode(data.data(), data.size(), &buf).ok());
  EXPECT_LT(buf.size(), data.size() * 4 / 2);
}

TEST(PforDeltaTest, SortedCompressesBetterThanPlainPfor) {
  const auto data = MakeData("sorted", 100000, 9);
  std::vector<uint8_t> plain, delta;
  ASSERT_TRUE(PforEncode(data.data(), data.size(), &plain).ok());
  ASSERT_TRUE(PforDeltaEncode(data.data(), data.size(), &delta).ok());
  EXPECT_LT(delta.size(), plain.size());
}

TEST(PforDeltaTest, HandlesExtremeValues) {
  std::vector<int32_t> data = {std::numeric_limits<int32_t>::min(),
                               std::numeric_limits<int32_t>::max(),
                               std::numeric_limits<int32_t>::min(), 0, -1, 1};
  std::vector<uint8_t> buf;
  ASSERT_TRUE(PforDeltaEncode(data.data(), data.size(), &buf).ok());
  std::vector<int32_t> back;
  ASSERT_TRUE(PforDeltaDecode(buf, &back).ok());
  EXPECT_EQ(back, data);
}

TEST(CompressErrorsTest, GarbageRejected) {
  std::vector<uint8_t> junk = {1, 2, 3};
  std::vector<int32_t> out;
  EXPECT_FALSE(PforDecode(junk, &out).ok());
  EXPECT_FALSE(PdictDecode(junk, &out).ok());
  EXPECT_FALSE(RleDecode(junk, &out).ok());
  // Wrong-codec streams are rejected by magic.
  std::vector<int32_t> data = {1, 2, 3};
  std::vector<uint8_t> pfor_buf;
  ASSERT_TRUE(PforEncode(data.data(), 3, &pfor_buf).ok());
  EXPECT_FALSE(PdictDecode(pfor_buf, &out).ok());
  EXPECT_FALSE(PforDeltaDecode(pfor_buf, &out).ok());
}

TEST(RleTest, RunsCompress) {
  const auto data = MakeData("runs", 100000, 19);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(RleEncode(data.data(), data.size(), &buf).ok());
  EXPECT_LT(buf.size(), data.size() * 4 / 3);
}

// ------------------------------------------------------- golden bytes --
//
// Codec streams are frozen formats: `.cbat` snapshots, WAL checkpoints
// and caps-negotiated wire results all carry them. Each case below encodes
// fixed shapes through CompressedBat (whose Serialize() image embeds the
// codec stream verbatim) and pins the CRC-32 of the images: a mismatch
// means a frozen format changed.

enum GoldenShape { kRandom, kOutliers, kSortedKeys, kLongRuns, kExtremes };

template <typename T>
T GoldenValue(GoldenShape shape, size_t i, Rng* rng) {
  // int64 shapes sit beyond +-2^32 so a 32-bit truncation would show.
  const int64_t wide = sizeof(T) == 8 ? int64_t{5} << 40 : 0;
  switch (shape) {
    case kRandom:
      return static_cast<T>(rng->Next());
    case kOutliers:
      return rng->Uniform(16) == 0
                 ? static_cast<T>(rng->Next())
                 : static_cast<T>(wide + static_cast<int64_t>(
                                             rng->Uniform(1000)));
    case kSortedKeys:
      return static_cast<T>(-wide + static_cast<int64_t>(i) * 3 +
                            static_cast<int64_t>(rng->Uniform(3)));
    case kLongRuns:
      return static_cast<T>(wide + static_cast<int64_t>(i / 40) * 7);
    case kExtremes: {
      using L = std::numeric_limits<T>;
      const int64_t k[] = {static_cast<int64_t>(L::min()),
                           static_cast<int64_t>(L::max()),
                           0,
                           -1,
                           1,
                           static_cast<int64_t>(L::min()) + 1,
                           static_cast<int64_t>(L::max()) - 1,
                           sizeof(T) == 8 ? (int64_t{1} << 32) + 7 : 7,
                           sizeof(T) == 8 ? -(int64_t{1} << 32) - 9 : -9,
                           sizeof(T) == 8 ? -(int64_t{1} << 62) : -(1 << 30)};
      return static_cast<T>(k[(i * 7 + i / 10) % 10]);
    }
  }
  return 0;
}

/// CRC-32 over the Serialize() images of one codec x type x shape at every
/// golden row count (empty, one, a block minus/at/plus one, many blocks).
template <typename T>
uint32_t GoldenCrc(Codec codec, GoldenShape shape) {
  std::string images;
  for (size_t n : {size_t{0}, size_t{1}, size_t{127}, size_t{128},
                   size_t{129}, size_t{1000}}) {
    Rng rng(1000 + static_cast<uint64_t>(shape));
    BatPtr b = Bat::New(sizeof(T) == 4 ? PhysType::kInt32 : PhysType::kInt64);
    for (size_t i = 0; i < n; ++i) b->Append<T>(GoldenValue<T>(shape, i, &rng));
    auto cb = CompressedBat::Compress(b, codec);
    EXPECT_TRUE(cb.ok()) << CodecName(codec) << " n=" << n;
    if (cb.ok()) cb->Serialize(&images);
  }
  return wal::Crc32(images.data(), images.size());
}

struct GoldenCase {
  Codec codec;
  bool wide;  ///< int64 column (else int32)
  uint32_t crc[5];  ///< one per GoldenShape
};

TEST(GoldenBytesTest, EveryCodecAndWidthMatchesRecordedStreams) {
  const GoldenCase cases[] = {
      {Codec::kPfor,
       false,
       {0x0596da35, 0x51fef2f8, 0x6d61b729,
        0xdda90faf, 0xd299773b}},
      {Codec::kPforDelta,
       false,
       {0x7d73258f, 0x2a1e334f, 0xa9091f74,
        0x1f7a70e4, 0x5554f21c}},
      {Codec::kRle,
       false,
       {0xa3f64247, 0xa6f03315, 0x6fc0596e,
        0xcf8570b8, 0x8dc08d3f}},
      {Codec::kPdict,
       false,
       {0xa929971d, 0x3445c535, 0xf70f9aa8,
        0x1d00a79e, 0xc8dbcf55}},
      {Codec::kPfor,
       true,
       {0xee2fbeb9, 0xd616e506, 0x602caff0,
        0x7c7f8f90, 0xcb77afe2}},
      {Codec::kPforDelta,
       true,
       {0x1ed2d873, 0x6c00f4b4, 0xf127d971,
        0xc023a1dc, 0x9428812f}},
      {Codec::kRle,
       true,
       {0xafe04dc8, 0x1c2d37b0, 0xe5f3d473,
        0x49e5fc40, 0x2cdfb096}},
  };
  for (const GoldenCase& c : cases) {
    for (int s = kRandom; s <= kExtremes; ++s) {
      const auto shape = static_cast<GoldenShape>(s);
      const uint32_t got = c.wide ? GoldenCrc<int64_t>(c.codec, shape)
                                  : GoldenCrc<int32_t>(c.codec, shape);
      EXPECT_EQ(got, c.crc[s])
          << CodecName(c.codec) << (c.wide ? " int64" : " int32")
          << " shape " << s << ": got 0x" << std::hex << got;
    }
  }
}

}  // namespace
}  // namespace mammoth::compress
