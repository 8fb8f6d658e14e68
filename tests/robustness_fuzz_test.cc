// Robustness fuzzing: malformed inputs must come back as Status errors,
// never as crashes or sanitizer findings. Three surfaces:
//   - the SQL parser/engine on mutated query strings,
//   - the MAL text parser on mutated listings,
//   - compressed columns loaded from corrupted or truncated images.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/compressed_bat.h"
#include "compress/compressed_kernels.h"
#include "core/persist.h"
#include "mal/parser.h"
#include "sql/engine.h"
#include "test_dirs.h"

namespace mammoth {
namespace {

std::string Mutate(const std::string& base, Rng* rng, int edits) {
  std::string s = base;
  for (int e = 0; e < edits; ++e) {
    if (s.empty()) break;
    const size_t pos = rng->Uniform(s.size());
    switch (rng->Uniform(3)) {
      case 0:  // flip to a random printable char
        s[pos] = static_cast<char>(32 + rng->Uniform(95));
        break;
      case 1:  // delete
        s.erase(pos, 1 + rng->Uniform(3));
        break;
      case 2:  // duplicate a slice
        s.insert(pos, s.substr(pos, 1 + rng->Uniform(5)));
        break;
    }
  }
  return s;
}

TEST(SqlFuzzTest, MutatedQueriesNeverCrash) {
  sql::Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript("CREATE TABLE t (a INT, b DOUBLE, "
                                 "c VARCHAR(8));"
                                 "INSERT INTO t VALUES (1, 1.5, 'x');")
                  .ok());
  const std::string bases[] = {
      "SELECT a, sum(b) FROM t WHERE a >= 1 AND a <= 5 GROUP BY a "
      "HAVING sum(b) > 0 ORDER BY a DESC LIMIT 3",
      "INSERT INTO t VALUES (2, 2.5, 'y'), (3, 3.5, 'z')",
      "UPDATE t SET b = 9.0, c = 'w' WHERE a != 1",
      "DELETE FROM t WHERE c = 'x'",
      "CREATE TABLE u (p BIGINT, q TEXT)",
  };
  Rng rng(42);
  size_t ok_count = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::string& base = bases[rng.Uniform(std::size(bases))];
    const std::string q = Mutate(base, &rng, 1 + rng.Uniform(6));
    auto r = engine.Execute(q);  // must not crash; errors are fine
    if (r.ok()) ++ok_count;
  }
  // Some mutations stay valid; most should not. Either way: no crash.
  SUCCEED() << ok_count << " mutated statements still executed";
}

TEST(MalFuzzTest, MutatedListingsNeverCrash) {
  const std::string base =
      "(v0) := sql.bind(\"t\", \"a\");\n"
      "(v1) := sql.tid(\"t\");\n"
      "(v2) := algebra.thetaselect(v0, v1, 1927, ==);\n"
      "(v3) := algebra.projection(v2, v0);\n"
      "(v4, v5, v6) := group.subgroup(v3, nil, nil);\n"
      "(v7) := aggr.sum(v3, v4, v6);\n"
      "sql.resultSet(\"x\", v7);\n";
  Rng rng(43);
  for (int round = 0; round < 2000; ++round) {
    const std::string text = Mutate(base, &rng, 1 + rng.Uniform(8));
    auto p = mal::ParseMal(text);
    (void)p;  // ok or error — just no crash
  }
  SUCCEED();
}

/// A failed call on a corrupted image must say why with a typed status.
void ExpectTyped(const Status& st) {
  if (st.ok()) return;
  const StatusCode c = st.code();
  EXPECT_TRUE(c == StatusCode::kCorruption || c == StatusCode::kIOError ||
              c == StatusCode::kOutOfRange || c == StatusCode::kUnsupported)
      << st.ToString();
}

template <typename T>
int64_t SumAs(const BatPtr& b) {
  uint64_t acc = 0;  // wrapping, like the kernels' fold
  for (size_t i = 0; i < b->Count(); ++i) {
    acc += static_cast<uint64_t>(static_cast<int64_t>(b->ValueAt<T>(i)));
  }
  return static_cast<int64_t>(acc);
}

/// Runs every consumer of a loaded column: whole and range decodes, both
/// compressed selects and the SUM/MIN/MAX folds. A fold that succeeds on
/// a column that also decodes must agree with the decoded values.
template <typename T>
void ExerciseLoaded(const compress::CompressedBat& cb, Rng* rng) {
  auto whole = cb.Decode();
  ExpectTyped(whole.status());
  const size_t n = cb.Count();
  if (n > 0) {
    std::vector<T> out(n);
    const size_t start = rng->Uniform(n);
    const size_t len = 1 + rng->Uniform(n - start);
    const Status range = cb.DecodeRange(start, len, out.data());
    ExpectTyped(range);
    if (whole.ok() && range.ok()) {
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(out[i], (*whole)->ValueAt<T>(start + i)) << start + i;
      }
    }
    std::vector<Oid> rows(1 + rng->Uniform(64));
    for (Oid& r : rows) r = rng->Uniform(n + 2);  // a few beyond the end
    const Status gather = cb.Gather(rows.data(), rows.size(), out.data());
    ExpectTyped(gather);
    if (whole.ok() && gather.ok()) {
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(out[i], (*whole)->ValueAt<T>(rows[i])) << rows[i];
      }
    }
  }
  const Value v = Value::Int(static_cast<int64_t>(rng->Uniform(64)));
  ExpectTyped(compress::CompressedThetaSelect(cb, v, CmpOp::kGe, 0).status());
  ExpectTyped(compress::CompressedRangeSelect(cb, Value::Int(-5), v, true,
                                              false, false, 0)
                  .status());
  auto sum = compress::CompressedAggrSum(cb);
  ExpectTyped(sum.status());
  ExpectTyped(compress::CompressedAggrMin(cb).status());
  ExpectTyped(compress::CompressedAggrMax(cb).status());
  if (whole.ok() && sum.ok()) {
    EXPECT_EQ((*sum)->ValueAt<int64_t>(0), SumAs<T>(*whole));
  }
}

/// Splices `stream` in place of the codec stream of a Serialize() image
/// whose stream is `stream_len` bytes (the image's tail).
std::string Reframe(const std::string& image, size_t stream_len,
                    const std::string& stream) {
  std::string out = image.substr(0, image.size() - stream_len - 8);
  const uint64_t len = stream.size();
  out.append(reinterpret_cast<const char*>(&len), sizeof(len));
  return out + stream;
}

TEST(CompressFuzzTest, CorruptedImagesLoadOrFailTyped) {
  // Runs of small values with outliers: every codec gets real structure
  // (long and short runs, exceptions, a multi-bit dictionary).
  Rng data_rng(44);
  BatPtr col32 = Bat::New(PhysType::kInt32);
  BatPtr col64 = Bat::New(PhysType::kInt64);
  for (size_t i = 0; i < 3000;) {
    const int64_t v = data_rng.Uniform(50) == 0
                          ? static_cast<int64_t>(data_rng.Uniform(1 << 20))
                          : static_cast<int64_t>(data_rng.Uniform(40));
    for (size_t r = 1 + data_rng.Uniform(9); r > 0 && i < 3000; --r, ++i) {
      col32->Append<int32_t>(static_cast<int32_t>(v));
      col64->Append<int64_t>(v * (int64_t{1} << 33));
    }
  }
  struct Image {
    std::string bytes;
    size_t stream_len;
  };
  std::vector<Image> images;
  for (const BatPtr& col : {col32, col64}) {
    for (auto codec : {compress::Codec::kPfor, compress::Codec::kPforDelta,
                       compress::Codec::kPdict, compress::Codec::kRle}) {
      auto cb = compress::CompressedBat::Compress(col, codec);
      if (!cb.ok()) continue;  // PDICT has no int64 variant
      Image img{"", cb->CompressedBytes()};
      cb->Serialize(&img.bytes);
      images.push_back(std::move(img));
    }
  }
  ASSERT_EQ(images.size(), 7u);

  Rng rng(45);
  size_t loaded = 0;
  for (int round = 0; round < 4000; ++round) {
    const Image& img = images[round % images.size()];
    std::string bytes = img.bytes;
    const uint64_t how = rng.Uniform(6);
    if (how < 3) {  // flip a few bytes anywhere in the image
      for (uint64_t e = 1 + rng.Uniform(4); e > 0; --e) {
        bytes[rng.Uniform(bytes.size())] = static_cast<char>(rng.Next());
      }
    } else if (how < 5) {  // cut the stream and re-frame it
      const std::string stream =
          bytes.substr(bytes.size() - img.stream_len,
                       rng.Uniform(img.stream_len + 1));
      bytes = Reframe(bytes, img.stream_len, stream);
    } else {  // cut the image itself
      bytes.resize(rng.Uniform(bytes.size() + 1));
    }
    auto cb = compress::CompressedBat::Deserialize(bytes);
    if (!cb.ok()) {
      EXPECT_EQ(cb.status().code(), StatusCode::kCorruption)
          << cb.status().ToString();
      continue;
    }
    ++loaded;
    if (cb->type() == PhysType::kInt32) {
      ExerciseLoaded<int32_t>(*cb, &rng);
    } else {
      ExerciseLoaded<int64_t>(*cb, &rng);
    }
  }
  // Payload flips keep the framing intact, so plenty of images still load
  // and reach the decoders and kernels.
  EXPECT_GT(loaded, 700u);
}

/// Random range decodes and random sorted and unsorted row gathers over
/// every codec and width agree with the whole Decode(). Columns draw
/// values at random widths (including full 64-bit and negative ones), in
/// runs, sorted or not, so PFOR blocks mix packed widths and exceptions.
TEST(CompressFuzzTest, RandomRangesAndGathersMatchDecode) {
  Rng rng(46);
  size_t compared = 0;
  for (int round = 0; round < 60; ++round) {
    const bool wide = rng.Uniform(2) == 0;
    const size_t n = 1 + rng.Uniform(rng.Uniform(4) == 0 ? 70000 : 3000);
    const int bits = 1 + static_cast<int>(rng.Uniform(wide ? 64 : 32));
    const bool sorted = rng.Uniform(3) == 0;
    BatPtr col = Bat::New(wide ? PhysType::kInt64 : PhysType::kInt32);
    int64_t acc = 0;
    for (size_t i = 0; i < n;) {
      uint64_t draw = rng.Next();
      if (bits < 64) draw &= (uint64_t{1} << bits) - 1;
      const int64_t v = sorted ? (acc += static_cast<int64_t>(draw % 7))
                               : static_cast<int64_t>(draw);
      for (size_t r = 1 + rng.Uniform(sorted ? 1 : 6); r > 0 && i < n;
           --r, ++i) {
        if (wide) {
          col->Append<int64_t>(v);
        } else {
          col->Append<int32_t>(static_cast<int32_t>(v));
        }
      }
    }
    col->mutable_props().sorted = sorted;
    for (auto codec : {compress::Codec::kPfor, compress::Codec::kPforDelta,
                       compress::Codec::kPdict, compress::Codec::kRle}) {
      auto cb = compress::CompressedBat::Compress(col, codec);
      if (!cb.ok()) continue;  // PDICT: int64 or too many distinct values
      auto whole = cb->Decode();
      ASSERT_TRUE(whole.ok());
      const size_t w = cb->width();
      const auto* ref =
          static_cast<const uint8_t*>((*whole)->tail().raw_data());
      std::vector<uint8_t> out((n + 1) * w);
      for (int k = 0; k < 20; ++k) {
        const size_t start = rng.Uniform(n);
        const size_t len = 1 + rng.Uniform(std::min<size_t>(n - start, 5000));
        ASSERT_TRUE(cb->DecodeRangeRaw(start, len, out.data()).ok());
        ASSERT_EQ(std::memcmp(out.data(), ref + start * w, len * w), 0)
            << compress::CodecName(codec) << " range " << start << "+" << len;
        std::vector<Oid> rows(rng.Uniform(std::min<size_t>(n, 2000)) + 1);
        for (Oid& r : rows) r = rng.Uniform(n);
        if (rng.Uniform(2) == 0) std::sort(rows.begin(), rows.end());
        ASSERT_TRUE(cb->Gather(rows.data(), rows.size(), out.data()).ok());
        for (size_t i = 0; i < rows.size(); ++i) {
          ASSERT_EQ(std::memcmp(out.data() + i * w, ref + rows[i] * w, w), 0)
              << compress::CodecName(codec) << " gather row " << rows[i];
        }
        compared += 2;
      }
    }
  }
  EXPECT_GT(compared, 4000u);
}

TEST(PersistFuzzTest, RandomBatsRoundTripAllTypes) {
  Rng rng(45);
  for (int round = 0; round < 20; ++round) {
    const auto type = static_cast<PhysType>(rng.Uniform(9));
    BatPtr b;
    const size_t n = rng.Uniform(3000);
    if (type == PhysType::kStr) {
      b = Bat::NewString(nullptr);
      for (size_t i = 0; i < n; ++i) {
        b->AppendString("s" + std::to_string(rng.Uniform(50)));
      }
    } else {
      b = Bat::New(type);
      for (size_t i = 0; i < n; ++i) {
        // Raw random bits are valid for every numeric width.
        const uint64_t bits = rng.Next();
        b->AppendRaw(&bits, 1);
      }
    }
    b->set_hseqbase(rng.Uniform(1000));
    const std::string path =
        testutil::ProcessTempPath("fuzz_bat_" + std::to_string(round)) +
        ".mbat";
    ASSERT_TRUE(SaveBat(*b, path).ok());
    for (bool mmap : {false, true}) {
      auto back = mmap ? MapBat(path) : LoadBat(path);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ASSERT_EQ((*back)->Count(), b->Count());
      ASSERT_EQ((*back)->type(), b->type());
      ASSERT_EQ((*back)->hseqbase(), b->hseqbase());
      for (size_t i = 0; i < n; ++i) {
        if (type == PhysType::kStr) {
          ASSERT_EQ((*back)->StringAt(i), b->StringAt(i));
        } else {
          ASSERT_EQ(std::memcmp(static_cast<const char*>(
                                    (*back)->tail().raw_data()) +
                                    i * TypeWidth(type),
                                static_cast<const char*>(
                                    b->tail().raw_data()) +
                                    i * TypeWidth(type),
                                TypeWidth(type)),
                    0)
              << "round " << round << " i " << i;
        }
      }
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace mammoth
