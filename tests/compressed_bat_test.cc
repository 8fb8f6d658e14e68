#include "compress/compressed_bat.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "compress/bitpack.h"
#include "compress/compressed_kernels.h"
#include "compress/pfor.h"
#include "compress/rle.h"

namespace mammoth::compress {
namespace {

BatPtr SmallRangeColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  BatPtr b = Bat::New(PhysType::kInt32);
  for (size_t i = 0; i < n; ++i) {
    b->Append<int32_t>(static_cast<int32_t>(rng.Uniform(500)));
  }
  return b;
}

BatPtr SortedColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  BatPtr b = Bat::New(PhysType::kInt32);
  int32_t cur = 0;
  for (size_t i = 0; i < n; ++i) {
    cur += static_cast<int32_t>(rng.Uniform(4));
    b->Append<int32_t>(cur);
  }
  return b;
}

class CompressedBatCodecTest : public ::testing::TestWithParam<Codec> {};

TEST_P(CompressedBatCodecTest, FullRoundTrip) {
  const Codec codec = GetParam();
  BatPtr b = codec == Codec::kPdict ? SmallRangeColumn(5000, 1)
                                    : SortedColumn(5000, 1);
  auto cb = CompressedBat::Compress(b, codec);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  EXPECT_EQ(cb->Count(), 5000u);
  auto back = cb->Decode();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ((*back)->Count(), b->Count());
  for (size_t i = 0; i < b->Count(); ++i) {
    ASSERT_EQ((*back)->ValueAt<int32_t>(i), b->ValueAt<int32_t>(i)) << i;
  }
}

TEST_P(CompressedBatCodecTest, RangeDecodeMatchesFull) {
  const Codec codec = GetParam();
  BatPtr b = codec == Codec::kPdict ? SmallRangeColumn(5000, 2)
                                    : SortedColumn(5000, 2);
  auto cb = CompressedBat::Compress(b, codec);
  ASSERT_TRUE(cb.ok());
  Rng rng(3);
  std::vector<int32_t> out(1024);
  for (int round = 0; round < 50; ++round) {
    const size_t n = 1 + rng.Uniform(1024);
    const size_t start = rng.Uniform(5000 - n);
    ASSERT_TRUE(cb->DecodeRange(start, n, out.data()).ok());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], b->ValueAt<int32_t>(start + i))
          << CodecName(codec) << " start=" << start << " i=" << i;
    }
  }
  // Edges.
  ASSERT_TRUE(cb->DecodeRange(0, 1, out.data()).ok());
  EXPECT_EQ(out[0], b->ValueAt<int32_t>(0));
  ASSERT_TRUE(cb->DecodeRange(4999, 1, out.data()).ok());
  EXPECT_EQ(out[0], b->ValueAt<int32_t>(4999));
  EXPECT_FALSE(cb->DecodeRange(4999, 2, out.data()).ok());
}

INSTANTIATE_TEST_SUITE_P(Codecs, CompressedBatCodecTest,
                         ::testing::Values(Codec::kPfor, Codec::kPforDelta,
                                           Codec::kPdict, Codec::kRle));

TEST(CompressedBatTest, CompressBestPicksSmallest) {
  BatPtr sorted = SortedColumn(10000, 5);
  auto best = CompressedBat::CompressBest(sorted);
  ASSERT_TRUE(best.ok());
  // Sorted data: delta coding should win (or at least match).
  auto pfor = CompressedBat::Compress(sorted, Codec::kPfor);
  ASSERT_TRUE(pfor.ok());
  EXPECT_LE(best->CompressedBytes(), pfor->CompressedBytes());
  EXPECT_GT(best->Ratio(), 1.0);
}

TEST(CompressedBatTest, RejectsNonIntColumns) {
  BatPtr d = MakeBat<double>({1.0});
  EXPECT_FALSE(CompressedBat::Compress(d, Codec::kPfor).ok());
}

/// Unsupported tail types fail with the typed code, not a crash, on every
/// entry point (satellite b).
TEST(CompressedBatTest, UnsupportedTypeIsTypedError) {
  BatPtr d = MakeBat<double>({1.0, 2.0, 3.0});
  for (Codec c : {Codec::kPfor, Codec::kPforDelta, Codec::kPdict,
                  Codec::kRle}) {
    auto r = CompressedBat::Compress(d, c);
    ASSERT_FALSE(r.ok()) << CodecName(c);
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported) << CodecName(c);
  }
  auto best = CompressedBat::CompressBest(d);
  ASSERT_FALSE(best.ok());
  EXPECT_EQ(best.status().code(), StatusCode::kUnsupported);
}

// ------------------------------------------------------- int64 codecs --

BatPtr SortedColumn64(size_t n, uint64_t seed) {
  Rng rng(seed);
  BatPtr b = Bat::New(PhysType::kInt64);
  int64_t cur = int64_t{1} << 33;  // values beyond int32 range
  for (size_t i = 0; i < n; ++i) {
    cur += static_cast<int64_t>(rng.Uniform(16));
    b->Append<int64_t>(cur);
  }
  return b;
}

class CompressedBat64Test : public ::testing::TestWithParam<Codec> {};

TEST_P(CompressedBat64Test, FullRoundTrip64) {
  const Codec codec = GetParam();
  BatPtr b = SortedColumn64(5000, 21);
  auto cb = CompressedBat::Compress(b, codec);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  EXPECT_EQ(cb->type(), PhysType::kInt64);
  EXPECT_EQ(cb->width(), 8u);
  auto back = cb->Decode();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ((*back)->Count(), b->Count());
  for (size_t i = 0; i < b->Count(); ++i) {
    ASSERT_EQ((*back)->ValueAt<int64_t>(i), b->ValueAt<int64_t>(i)) << i;
  }
  // Random range decodes through the typed int64 overload.
  Rng rng(22);
  std::vector<int64_t> out(512);
  for (int round = 0; round < 20; ++round) {
    const size_t n = 1 + rng.Uniform(512);
    const size_t start = rng.Uniform(5000 - n);
    ASSERT_TRUE(cb->DecodeRange(start, n, out.data()).ok());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], b->ValueAt<int64_t>(start + i)) << start + i;
    }
  }
  // The int32 overload must refuse an int64 column.
  std::vector<int32_t> wrong(4);
  EXPECT_FALSE(cb->DecodeRange(0, 4, wrong.data()).ok());
}

INSTANTIATE_TEST_SUITE_P(Codecs64, CompressedBat64Test,
                         ::testing::Values(Codec::kPfor, Codec::kPforDelta,
                                           Codec::kRle));

TEST(CompressedBat64Test, PdictRejectsInt64) {
  BatPtr b = SortedColumn64(100, 23);
  auto r = CompressedBat::Compress(b, Codec::kPdict);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(CompressedBat64Test, CompressBestPicksPerType) {
  BatPtr b = SortedColumn64(10000, 24);
  auto best = CompressedBat::CompressBest(b);
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_EQ(best->type(), PhysType::kInt64);
  EXPECT_GT(best->Ratio(), 1.0);
  // Best must not exceed any individually applicable codec.
  for (Codec c : {Codec::kPfor, Codec::kPforDelta, Codec::kRle}) {
    auto one = CompressedBat::Compress(b, c);
    ASSERT_TRUE(one.ok()) << CodecName(c);
    EXPECT_LE(best->CompressedBytes(), one->CompressedBytes())
        << CodecName(c);
  }
}

// --------------------------------------------- DecodeRange edge cases --

/// Satellite c: empty range, range ending exactly on a stat/codec block
/// boundary, full-column range, and start beyond Count() — per codec,
/// on a column wide enough to span multiple kStatBlockRows blocks.
class DecodeRangeEdgeTest : public ::testing::TestWithParam<Codec> {};

TEST_P(DecodeRangeEdgeTest, EdgeRanges) {
  const Codec codec = GetParam();
  const size_t n = 2 * CompressedBat::kStatBlockRows + 777;
  BatPtr b = codec == Codec::kPdict ? SmallRangeColumn(n, 31)
                                    : SortedColumn(n, 31);
  auto cb = CompressedBat::Compress(b, codec);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  ASSERT_EQ(cb->NumStatBlocks(), 3u);
  std::vector<int32_t> out(n);

  // Empty range: OK, touches nothing (any start value, even past the end).
  out[0] = -12345;
  EXPECT_TRUE(cb->DecodeRange(0, 0, out.data()).ok());
  EXPECT_TRUE(cb->DecodeRange(n, 0, out.data()).ok());
  EXPECT_TRUE(cb->DecodeRange(n + 100, 0, out.data()).ok());
  EXPECT_EQ(out[0], -12345);

  // Range ending exactly on a block boundary.
  const size_t block = CompressedBat::kStatBlockRows;
  ASSERT_TRUE(cb->DecodeRange(block - 100, 100, out.data()).ok());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(out[i], b->ValueAt<int32_t>(block - 100 + i)) << i;
  }
  // Range starting exactly on a block boundary.
  ASSERT_TRUE(cb->DecodeRange(block, 64, out.data()).ok());
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(out[i], b->ValueAt<int32_t>(block + i)) << i;
  }
  // Range covering a whole block exactly.
  ASSERT_TRUE(cb->DecodeRange(block, block, out.data()).ok());
  for (size_t i = 0; i < block; i += 997) {
    ASSERT_EQ(out[i], b->ValueAt<int32_t>(block + i)) << i;
  }

  // Full-column range.
  ASSERT_TRUE(cb->DecodeRange(0, n, out.data()).ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], b->ValueAt<int32_t>(i)) << i;
  }

  // Start beyond Count(): typed out-of-range, never a crash.
  EXPECT_FALSE(cb->DecodeRange(n, 1, out.data()).ok());
  EXPECT_FALSE(cb->DecodeRange(n + 1, 1, out.data()).ok());
  EXPECT_FALSE(cb->DecodeRange(n - 1, 2, out.data()).ok());
}

INSTANTIATE_TEST_SUITE_P(Codecs, DecodeRangeEdgeTest,
                         ::testing::Values(Codec::kPfor, Codec::kPforDelta,
                                           Codec::kPdict, Codec::kRle));

// ------------------------------------------------ validation at load --
//
// Serialize() images come back from disk at recovery and from a primary
// at replica bootstrap, with no checksum over them. Deserialize must turn
// every image the kernels cannot handle into kCorruption instead of an
// out-of-bounds read or a wrong answer later.

/// Serializes `cb`, lets `edit` rewrite the codec stream (the image's
/// tail), and re-frames the image with the new stream length.
std::string EditedImage(
    const CompressedBat& cb,
    const std::function<void(std::vector<uint8_t>*)>& edit) {
  std::string image;
  cb.Serialize(&image);
  const size_t stream_len = cb.CompressedBytes();
  const size_t frame_len = image.size() - stream_len - sizeof(uint64_t);
  std::vector<uint8_t> stream(image.begin() + frame_len + sizeof(uint64_t),
                              image.end());
  edit(&stream);
  image.resize(frame_len);
  const uint64_t len = stream.size();
  image.append(reinterpret_cast<const char*>(&len), sizeof(len));
  image.append(stream.begin(), stream.end());
  return image;
}

/// 1000 rows cycling through five values: PDICT has dsize 5 and 3-bit
/// codes, so codes 5..7 are representable but out of the dictionary.
BatPtr FiveValueColumn() {
  BatPtr b = Bat::New(PhysType::kInt32);
  for (int i = 0; i < 1000; ++i) b->Append<int32_t>((i / 3) % 5 * 2);
  return b;
}

void ExpectCorruption(const std::string& image) {
  auto r = CompressedBat::Deserialize(image);
  ASSERT_FALSE(r.ok()) << "image loaded";
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
      << r.status().ToString();
}

TEST(CompressedBatLoadTest, UntouchedImagesLoad) {
  for (Codec c : {Codec::kPfor, Codec::kPforDelta, Codec::kPdict,
                  Codec::kRle}) {
    auto cb = CompressedBat::Compress(FiveValueColumn(), c);
    ASSERT_TRUE(cb.ok());
    auto back = CompressedBat::Deserialize(EditedImage(*cb, [](auto*) {}));
    ASSERT_TRUE(back.ok()) << CodecName(c) << back.status().ToString();
  }
}

TEST(CompressedBatLoadTest, PdictCodeBeyondDictionaryIsCorruption) {
  auto cb = CompressedBat::Compress(FiveValueColumn(), Codec::kPdict);
  ASSERT_TRUE(cb.ok());
  ExpectCorruption(EditedImage(*cb, [](std::vector<uint8_t>* s) {
    // Header (16 bytes) + 5 dictionary entries, then the codes: the first
    // byte becomes codes 7 and 7.
    (*s)[16 + 5 * 4] = 0xff;
  }));
}

TEST(CompressedBatLoadTest, TruncatedPdictCodesAreCorruption) {
  auto cb = CompressedBat::Compress(FiveValueColumn(), Codec::kPdict);
  ASSERT_TRUE(cb.ok());
  ExpectCorruption(EditedImage(*cb, [](std::vector<uint8_t>* s) {
    s->resize(16 + 5 * 4 + PackedBytes(1000, 3) / 2);
  }));
}

TEST(CompressedBatLoadTest, RleRunsShortOfCountAreCorruption) {
  BatPtr b = FiveValueColumn();
  auto cb = CompressedBat::Compress(b, Codec::kRle);
  ASSERT_TRUE(cb.ok());
  // A well-formed RLE stream of the first 900 rows under a 1000-row header.
  const std::string image = EditedImage(*cb, [&](std::vector<uint8_t>* s) {
    ASSERT_TRUE(RleEncode(b->TailData<int32_t>(), 900, s).ok());
  });
  ExpectCorruption(image);
}

TEST(CompressedBatLoadTest, StreamOfWrongWidthIsCorruption) {
  BatPtr b64 = SortedColumn64(1000, 51);
  BatPtr b32 = SortedColumn(1000, 51);
  for (Codec c : {Codec::kPfor, Codec::kPforDelta, Codec::kRle}) {
    auto cb64 = CompressedBat::Compress(b64, c);
    auto cb32 = CompressedBat::Compress(b32, c);
    ASSERT_TRUE(cb64.ok() && cb32.ok());
    std::string image32;
    cb32->Serialize(&image32);
    // An int32 stream under the int64 column header.
    ExpectCorruption(EditedImage(*cb64, [&](std::vector<uint8_t>* s) {
      s->assign(image32.end() - static_cast<ptrdiff_t>(cb32->CompressedBytes()),
                image32.end());
    }));
  }
}

TEST(CompressedBatLoadTest, StreamOfWrongCodecIsCorruption) {
  BatPtr b = FiveValueColumn();
  auto rle = CompressedBat::Compress(b, Codec::kRle);
  ASSERT_TRUE(rle.ok());
  std::vector<uint8_t> pfor;
  ASSERT_TRUE(PforEncode(b->TailData<int32_t>(), 1000, &pfor).ok());
  // A PFOR stream under an RLE header.
  ExpectCorruption(EditedImage(*rle, [&](std::vector<uint8_t>* s) {
    *s = pfor;
  }));
}

TEST(CompressedBatLoadTest, PforBlocksPastTheStreamAreCorruption) {
  for (BatPtr b : {SortedColumn(1000, 52), SortedColumn64(1000, 52)}) {
    for (Codec c : {Codec::kPfor, Codec::kPforDelta}) {
      auto cb = CompressedBat::Compress(b, c);
      ASSERT_TRUE(cb.ok());
      // Cut the stream inside the last block's payload.
      ExpectCorruption(EditedImage(*cb, [](std::vector<uint8_t>* s) {
        s->resize(s->size() - 24);
      }));
    }
  }
}

TEST(CompressedBatLoadTest, StreamCountOtherThanHeaderIsCorruption) {
  BatPtr b = FiveValueColumn();
  for (Codec c : {Codec::kPfor, Codec::kPforDelta, Codec::kPdict,
                  Codec::kRle}) {
    auto cb = CompressedBat::Compress(b, c);
    ASSERT_TRUE(cb.ok());
    // Every codec stream opens with (u32 magic, u32 count).
    ExpectCorruption(EditedImage(*cb, [](std::vector<uint8_t>* s) {
      const uint32_t count = 999;
      std::memcpy(s->data() + 4, &count, sizeof(count));
    }));
  }
}

// ----------------------------------------------------- concurrency (a) --

/// Concurrent readers of one column are race-free: range decodes, row
/// gathers and whole decodes all read the immutable stream and the
/// indexes built at construction. Run under TSan this is the proof that
/// no read path writes shared state.
TEST(CompressedBatTest, ConcurrentDecodeRangeIsRaceFree) {
  for (Codec codec :
       {Codec::kPforDelta, Codec::kRle, Codec::kPfor, Codec::kPdict}) {
    const size_t n = CompressedBat::kStatBlockRows + 4321;
    BatPtr b = SortedColumn(n, 41);
    auto cb = CompressedBat::Compress(b, codec);
    ASSERT_TRUE(cb.ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<uint64_t>(t) + 1);
        std::vector<int32_t> out(256);
        for (int i = 0; i < 64; ++i) {
          const size_t len = 1 + rng.Uniform(256);
          const size_t start = rng.Uniform(n - len);
          ASSERT_TRUE(cb->DecodeRange(start, len, out.data()).ok());
          for (size_t k = 0; k < len; k += 37) {
            ASSERT_EQ(out[k], b->ValueAt<int32_t>(start + k));
          }
        }
        std::vector<Oid> rows(64);
        for (Oid& r : rows) r = rng.Uniform(n);
        ASSERT_TRUE(cb->Gather(rows.data(), rows.size(), out.data()).ok());
        for (size_t k = 0; k < rows.size(); ++k) {
          ASSERT_EQ(out[k], b->ValueAt<int32_t>(rows[k]));
        }
        // Mix in whole-column consumers.
        auto whole = cb->Decode();
        ASSERT_TRUE(whole.ok());
        ASSERT_EQ((*whole)->Count(), n);
      });
    }
    for (auto& th : threads) th.join();
  }
}

}  // namespace
}  // namespace mammoth::compress
