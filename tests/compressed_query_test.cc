/// Cross-checks for compression as an execution path: query results over
/// compressed tables must be bit-identical to the uncompressed path —
/// serially, on concurrent sessions at pools of 1/2/4/8, and over the
/// wire protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/compressed_kernels.h"
#include "core/table.h"
#include "parallel/task_pool.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "session_threads.h"
#include "sql/engine.h"
#include "test_dirs.h"
#include "wal/db.h"

namespace mammoth {
namespace {

using server::Client;
using server::EncodeResult;
using server::Server;
using server::ServerConfig;

// Three 64Ki-row morsels and a ragged tail.
constexpr size_t kRows = 3 * (size_t{1} << 16) + 500;

/// An int32-heavy table whose columns favour different codecs: `id`
/// sorted (PFOR-DELTA), `val` random small-range (PDICT/PFOR), `tag`
/// long runs (RLE) — so ALTER TABLE COMPRESS exercises CompressBest's
/// per-column choices and the wire probes have an RLE winner.
TablePtr EventsTable() {
  BatPtr id = Bat::New(PhysType::kInt32);
  BatPtr val = Bat::New(PhysType::kInt32);
  BatPtr tag = Bat::New(PhysType::kInt32);
  BatPtr big = Bat::New(PhysType::kInt64);
  id->Resize(kRows);
  val->Resize(kRows);
  tag->Resize(kRows);
  big->Resize(kRows);
  int32_t* idp = id->MutableTailData<int32_t>();
  int32_t* vp = val->MutableTailData<int32_t>();
  int32_t* tp = tag->MutableTailData<int32_t>();
  int64_t* bp = big->MutableTailData<int64_t>();
  Rng rng(777);
  for (size_t i = 0; i < kRows; ++i) {
    idp[i] = static_cast<int32_t>(i);
    vp[i] = static_cast<int32_t>(rng.Uniform(10000));
    tp[i] = static_cast<int32_t>(i / 1000);  // runs of 1000
    bp[i] = (int64_t{1} << 34) + static_cast<int64_t>(rng.Uniform(512));
  }
  auto t = Table::FromColumns("events",
                              {{"id", PhysType::kInt32},
                               {"val", PhysType::kInt32},
                               {"tag", PhysType::kInt32},
                               {"big", PhysType::kInt64}},
                              {id, val, tag, big});
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return *t;
}

const std::vector<std::string>& CrossQueries() {
  static const std::vector<std::string> queries = {
      // Range select on a compressed column + compressed projections.
      "SELECT id, val FROM events WHERE val >= 100 AND val <= 2000",
      // Theta-ish narrow range; tag projection decodes RLE blocks.
      "SELECT id, tag FROM events WHERE val >= 5000 AND val <= 5100",
      // Aggregate over a compressed projection.
      "SELECT COUNT(*), SUM(val) FROM events WHERE val >= 500 AND "
      "val <= 9000",
      // int64 compressed column as both predicate and output.
      "SELECT big FROM events WHERE big >= 17179869184 AND "
      "big <= 17179869284",
      // Full sweep: every row qualifies (wire-compressible tag output).
      "SELECT tag FROM events WHERE val >= 0 AND val <= 10000",
  };
  return queries;
}

/// The serial, uncompressed yardstick: wire encodings (caps=0) of every
/// query on a plain engine.
std::vector<std::string> PlainEncodings() {
  sql::Engine plain;
  EXPECT_TRUE(plain.catalog()->Register(EventsTable()).ok());
  std::vector<std::string> encodings;
  for (const std::string& q : CrossQueries()) {
    auto r = plain.Execute(q, parallel::ExecContext::Serial());
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    auto payload = EncodeResult(*r);
    EXPECT_TRUE(payload.ok());
    encodings.push_back(*payload);
  }
  return encodings;
}

// ----------------------------------------------------------- direct path --

TEST(CompressedQueryTest, AlterCompressBitIdenticalDirect) {
  const std::vector<std::string> expected = PlainEncodings();

  sql::Engine engine;
  ASSERT_TRUE(engine.catalog()->Register(EventsTable()).ok());
  ASSERT_TRUE(engine.Execute("ALTER TABLE events COMPRESS").ok());

  const auto cs = engine.compression_stats();
  EXPECT_EQ(cs.compressed_tables, 1u);
  EXPECT_EQ(cs.compressed_columns, 4u);  // three int32 + one int64
  EXPECT_GT(cs.logical_bytes, cs.compressed_bytes);

  for (size_t q = 0; q < CrossQueries().size(); ++q) {
    auto r = engine.Execute(CrossQueries()[q], parallel::ExecContext::Serial());
    ASSERT_TRUE(r.ok()) << CrossQueries()[q] << ": " << r.status().ToString();
    auto payload = EncodeResult(*r);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(*payload, expected[q]) << CrossQueries()[q];
  }

  // DECOMPRESS restores plain storage and the same answers.
  ASSERT_TRUE(engine.Execute("ALTER TABLE events DECOMPRESS").ok());
  EXPECT_EQ(engine.compression_stats().compressed_columns, 0u);
  auto r = engine.Execute(CrossQueries()[0], parallel::ExecContext::Serial());
  ASSERT_TRUE(r.ok());
  auto payload = EncodeResult(*r);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, expected[0]);
}

/// A column no codec shrinks stays plain under the compression policy: a
/// uniform-random int32 column costs PFOR more bytes than its raw tail, so
/// CompressBest refuses it (an explicit PFOR encode still works), the
/// table counts only its run column as compressed, and queries over both
/// columns answer byte for byte as on the plain table.
TEST(CompressedQueryTest, ColumnNoCodecShrinksStaysPlain) {
  auto make = [] {
    BatPtr rnd = Bat::New(PhysType::kInt32);
    BatPtr run = Bat::New(PhysType::kInt32);
    Rng rng(4242);
    for (size_t i = 0; i < kRows; ++i) {
      rnd->Append<int32_t>(static_cast<int32_t>(rng.Next()));
      run->Append<int32_t>(static_cast<int32_t>(i / 1000));
    }
    auto t = Table::FromColumns(
        "r", {{"rnd", PhysType::kInt32}, {"run", PhysType::kInt32}},
        {rnd, run});
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return *t;
  };
  const TablePtr plain_t = make();
  auto best = compress::CompressedBat::CompressBest(plain_t->MainColumn(0));
  EXPECT_EQ(best.status().code(), StatusCode::kInvalidArgument);
  auto pfor = compress::CompressedBat::Compress(plain_t->MainColumn(0),
                                                compress::Codec::kPfor);
  ASSERT_TRUE(pfor.ok());
  EXPECT_GE(pfor->CompressedBytes(), pfor->LogicalBytes());

  sql::Engine plain, comp;
  ASSERT_TRUE(plain.catalog()->Register(plain_t).ok());
  ASSERT_TRUE(comp.catalog()->Register(make()).ok());
  ASSERT_TRUE(comp.Execute("ALTER TABLE r COMPRESS").ok());
  auto t = comp.catalog()->Get("r");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->MainImage(0).comp, nullptr);
  EXPECT_NE((*t)->MainImage(1).comp, nullptr);
  EXPECT_EQ((*t)->CompressedColumnCount(), 1u);
  EXPECT_EQ(comp.compression_stats().compressed_columns, 1u);
  for (const std::string q :
       {"SELECT COUNT(*), SUM(rnd) FROM r WHERE run >= 10 AND run <= 40",
        "SELECT rnd, run FROM r WHERE rnd >= 0 AND rnd <= 100000000",
        "SELECT run FROM r WHERE rnd >= 2140000000",
        "SELECT MIN(rnd), MAX(rnd), SUM(run) FROM r"}) {
    auto want = plain.Execute(q, parallel::ExecContext::Serial());
    auto got = comp.Execute(q, parallel::ExecContext::Serial());
    ASSERT_TRUE(want.ok() && got.ok()) << q;
    EXPECT_EQ(*EncodeResult(*got), *EncodeResult(*want)) << q;
  }
}

TEST(CompressedQueryTest, CreateCompressedTableDmlAndSelect) {
  // The DDL path: CREATE ... COMPRESSED, then INSERT (delta on top of
  // compressed mains) and DELETE, checked against a plain twin.
  const std::string create = " (k INT, v INT)";
  const std::string rows =
      "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 20), (5, 10)";
  sql::Engine plain, comp;
  ASSERT_TRUE(plain.Execute("CREATE TABLE t" + create).ok());
  ASSERT_TRUE(comp.Execute("CREATE TABLE t" + create + " COMPRESSED").ok());
  for (sql::Engine* e : {&plain, &comp}) {
    ASSERT_TRUE(e->Execute(rows).ok());
    ASSERT_TRUE(e->Execute("DELETE FROM t WHERE v = 30").ok());
  }
  EXPECT_EQ(comp.compression_stats().compressed_tables, 1u);
  const std::string q = "SELECT k, v FROM t WHERE v >= 10 AND v <= 20";
  auto want = plain.Execute(q);
  auto got = comp.Execute(q);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto we = EncodeResult(*want);
  auto ge = EncodeResult(*got);
  ASSERT_TRUE(we.ok());
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(*ge, *we);
}

/// UPDATE fetches only its target rows. On a COMPRESSED table with
/// pending inserts, an UPDATE whose predicate hits one main row and one
/// delta row gathers just those rows — a bounded decode of the main
/// image, a plain gather from the delta — never a whole-column decode,
/// and leaves the table equal to a plain twin's.
TEST(CompressedQueryTest, UpdateFetchesOnlyTargetRows) {
  // `k` is a permutation (unique, PFOR-coded), `v` random int64.
  constexpr int kMainRows = 4096;
  std::vector<int> perm(kMainRows);
  for (int i = 0; i < kMainRows; ++i) perm[i] = i;
  Rng rng(41);
  for (int i = kMainRows - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  std::string rows = "INSERT INTO u VALUES ";
  for (int i = 0; i < kMainRows; ++i) {
    rows += (i == 0 ? "(" : ", (") + std::to_string(perm[i]) + ", " +
            std::to_string(rng.Uniform(1u << 20)) + ", 's" +
            std::to_string(i % 7) + "')";
  }
  const std::vector<std::string> pending = {
      "INSERT INTO u VALUES (77, 1, 'new'), (5000, 2, 's3')",
      "INSERT INTO u VALUES (5001, 3, 's1')",
  };
  sql::Engine plain, comp;
  for (sql::Engine* e : {&plain, &comp}) {
    ASSERT_TRUE(e->Execute("CREATE TABLE u (k INT, v BIGINT, s TEXT)").ok());
    ASSERT_TRUE(e->Execute(rows).ok());
  }
  ASSERT_TRUE(comp.Execute("ALTER TABLE u COMPRESS").ok());
  auto table = comp.catalog()->Get("u");
  ASSERT_TRUE(table.ok());
  ASSERT_NE((*table)->MainImage(0).comp, nullptr);
  ASSERT_NE((*table)->MainImage(1).comp, nullptr);
  for (sql::Engine* e : {&plain, &comp}) {
    for (const std::string& p : pending) ASSERT_TRUE(e->Execute(p).ok());
  }
  ASSERT_EQ((*table)->PendingInsertCount(), 3u);

  const compress::KernelStats before = compress::GetKernelStats();
  const std::string update =
      "UPDATE u SET v = 2000000, s = 'upd' WHERE k = 77";
  ASSERT_TRUE(plain.Execute(update).ok());
  ASSERT_TRUE(comp.Execute(update).ok());
  EXPECT_EQ(compress::GetKernelStats().project_full, before.project_full)
      << "the UPDATE decoded a whole column";

  for (const std::string q :
       {"SELECT k, v, s FROM u", "SELECT k, v, s FROM u WHERE k = 77",
        "SELECT COUNT(*), SUM(v) FROM u WHERE v = 2000000"}) {
    auto want = plain.Execute(q, parallel::ExecContext::Serial());
    auto got = comp.Execute(q, parallel::ExecContext::Serial());
    ASSERT_TRUE(want.ok() && got.ok()) << q;
    auto we = EncodeResult(*want);
    auto ge = EncodeResult(*got);
    ASSERT_TRUE(we.ok() && ge.ok());
    EXPECT_EQ(*ge, *we) << q;
  }
  auto hit = comp.Execute("SELECT COUNT(*) FROM u WHERE v = 2000000");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->columns[0]->ValueAt<int64_t>(0), 2);  // main + delta row
}

/// After a DELETE or an UPDATE the live candidates no longer cover a
/// compressed main image, so a select over it runs over the candidates:
/// it gathers just their values, selects over those and maps the hits
/// back — no whole-column decode for PFOR, PFOR-DELTA, RLE or PDICT — and
/// answers bit-identically to a plain table after the same statement.
TEST(CompressedQueryTest, CandidateSelectsGatherInsteadOfDecoding) {
  constexpr size_t kN = 20000;
  struct CodecShape {
    compress::Codec codec;
    std::function<int32_t(size_t, Rng&)> value;
  };
  const std::vector<CodecShape> shapes = {
      {compress::Codec::kPfor,
       [](size_t, Rng& rng) {
         return static_cast<int32_t>(rng.Uniform(1 << 20));
       }},
      {compress::Codec::kPforDelta,
       [](size_t i, Rng& rng) {
         return static_cast<int32_t>(3 * i + rng.Uniform(3));
       }},
      {compress::Codec::kRle,
       [](size_t i, Rng&) { return static_cast<int32_t>((i / 500) % 17); }},
      {compress::Codec::kPdict,
       [](size_t, Rng& rng) {
         return static_cast<int32_t>(rng.Uniform(40) * 1000);
       }},
  };
  const std::vector<std::string> mutations = {
      "DELETE FROM t WHERE k >= 3000 AND k < 9000",
      "UPDATE t SET k = -1 WHERE k >= 5000 AND k < 5400",
  };
  for (const CodecShape& shape : shapes) {
    Rng rng(404);
    BatPtr k = Bat::New(PhysType::kInt32);
    BatPtr x = Bat::New(PhysType::kInt32);
    for (size_t i = 0; i < kN; ++i) {
      k->Append<int32_t>(static_cast<int32_t>(i));
      x->Append<int32_t>(shape.value(i, rng));
    }
    std::vector<int32_t> sorted(x->TailData<int32_t>(),
                                x->TailData<int32_t>() + kN);
    std::sort(sorted.begin(), sorted.end());
    const std::string lo = std::to_string(sorted[kN / 4]);
    const std::string hi = std::to_string(sorted[kN / 2]);
    const std::string eq = std::to_string(sorted[kN / 3]);
    const std::vector<std::string> queries = {
        "SELECT k, x FROM t WHERE x >= " + lo + " AND x <= " + hi,
        "SELECT COUNT(*), SUM(x) FROM t WHERE x = " + eq,
        "SELECT k FROM t WHERE x < " + lo,
    };
    auto comp_r = compress::CompressedBat::Compress(x, shape.codec);
    ASSERT_TRUE(comp_r.ok()) << comp_r.status().ToString();
    auto comp = std::make_shared<const compress::CompressedBat>(
        *std::move(comp_r));
    const std::vector<ColumnDef> schema = {{"k", PhysType::kInt32},
                                           {"x", PhysType::kInt32}};
    for (const std::string& mutation : mutations) {
      const std::string what =
          std::string(compress::CodecName(shape.codec)) + ": " + mutation;
      sql::Engine plain, coded;
      auto plain_t = Table::FromColumns("t", schema, {k, x});
      auto coded_t = Table::FromStorage("t", schema,
                                        {{.bat = k}, {.comp = comp}},
                                        /*policy=*/false);
      ASSERT_TRUE(plain_t.ok() && coded_t.ok()) << what;
      ASSERT_TRUE(plain.catalog()->Register(*plain_t).ok());
      ASSERT_TRUE(coded.catalog()->Register(*coded_t).ok());
      ASSERT_EQ((*coded_t)->MainImage(1).comp, comp) << what;
      ASSERT_TRUE(plain.Execute(mutation).ok()) << what;
      ASSERT_TRUE(coded.Execute(mutation).ok()) << what;

      const compress::KernelStats before = compress::GetKernelStats();
      for (const std::string& q : queries) {
        auto want = plain.Execute(q, parallel::ExecContext::Serial());
        auto got = coded.Execute(q, parallel::ExecContext::Serial());
        ASSERT_TRUE(want.ok() && got.ok()) << what << " / " << q;
        auto we = EncodeResult(*want);
        auto ge = EncodeResult(*got);
        ASSERT_TRUE(we.ok() && ge.ok());
        EXPECT_EQ(*ge, *we) << what << " / " << q;
      }
      const compress::KernelStats after = compress::GetKernelStats();
      EXPECT_EQ(after.project_full, before.project_full)
          << what << ": a select decoded the column whole";
      EXPECT_GE(after.selects_fallback - before.selects_fallback,
                queries.size())
          << what << ": the selects did not run over candidates";
      EXPECT_GT(after.project_bounded, before.project_bounded) << what;
    }
  }
}

// ------------------------------------------- dictionary-only TEXT column --

/// Queries over a dictionary TEXT column `tag` whose selects and
/// projections stay in code space: no whole-column decode.
const std::vector<std::string>& DictCodeSpaceQueries() {
  static const std::vector<std::string> queries = {
      "SELECT k, tag, v FROM d WHERE tag = 'w3'",
      "SELECT k, tag FROM d WHERE tag LIKE 'w1%'",
      "SELECT k, tag FROM d WHERE tag LIKE '%7'",
      "SELECT k, tag FROM d WHERE tag >= 'w40' AND tag <= 'w45'",
      "SELECT COUNT(*), SUM(v) FROM d WHERE tag <> 'w5'",
      "SELECT k, v FROM d WHERE tag < 'w12'",
      "SELECT COUNT(tag) FROM d",
  };
  return queries;
}

/// Queries that read every `tag` row: GROUP BY, ORDER BY, a join on it,
/// and a whole-column result. Over a merged table they decode the column
/// whole; with rows pending or deleted they gather the live rows' codes.
const std::vector<std::string>& DictColdQueries() {
  static const std::vector<std::string> queries = {
      "SELECT tag, COUNT(*), SUM(v) FROM d GROUP BY tag ORDER BY tag",
      "SELECT tag, k FROM d ORDER BY tag, k",
      "SELECT k, label FROM d, n WHERE tag = ntag ORDER BY k",
      "SELECT tag FROM d",
  };
  return queries;
}

/// Dictionary TEXT columns keep only their dictionary: the main holds no
/// offsets and a heap of just the dictionary's words, code-space queries
/// never decode the column, and the cold paths — GROUP BY, ORDER BY, join,
/// whole-column results — decode it whole (once merged) and count it. Every
/// answer
/// equals an uncompressed oracle's through UPDATE (of `tag` and of another
/// column), DELETE, CHECKPOINT and reopen, and a DECOMPRESS/COMPRESS round
/// trip; a column beyond StrDict::kMaxDistinct words stays plain.
TEST(CompressedQueryTest, DictionaryOnlyTextColumnColdPaths) {
  constexpr int kRows = 6000;
  std::string rows = "INSERT INTO d VALUES ";
  Rng rng(2025);
  for (int i = 0; i < kRows; ++i) {
    rows += (i == 0 ? "(" : ", (") + std::to_string(i) + ", 'w" +
            std::to_string(rng.Uniform(50)) + "', " +
            std::to_string(rng.Uniform(1000)) + ")";
  }
  const std::vector<std::string> setup = {
      "CREATE TABLE n (ntag TEXT, label INT)",
      "INSERT INTO n VALUES ('w3', 3), ('w17', 17), ('w40', 40), "
      "('fresh', 99), ('none', 0)",
  };
  const std::string dir = testutil::ProcessTempPath("mammoth_dict_text");
  std::filesystem::remove_all(dir);
  sql::Engine oracle;
  auto comp = std::make_unique<sql::Engine>();
  auto db = wal::OpenDatabase(dir, comp.get());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(oracle.Execute("CREATE TABLE d (k INT, tag TEXT, v BIGINT)")
                  .ok());
  ASSERT_TRUE(
      comp->Execute("CREATE TABLE d (k INT, tag TEXT, v BIGINT) COMPRESSED")
          .ok());
  for (sql::Engine* e : {&oracle, comp.get()}) {
    ASSERT_TRUE(e->Execute(rows).ok());
    for (const std::string& q : setup) ASSERT_TRUE(e->Execute(q).ok()) << q;
  }
  ASSERT_TRUE(comp->Execute("ALTER TABLE d COMPRESS").ok());

  // The main of `tag` holds no rows, and its heap nothing but the
  // dictionary's words and their terminators.
  auto dict_only = [&](const std::string& phase) {
    auto t = comp->catalog()->Get("d");
    ASSERT_TRUE(t.ok()) << phase;
    const auto& dict = (*t)->MainImage(1).sdict;
    ASSERT_NE(dict, nullptr) << phase;
    EXPECT_EQ((*t)->MainColumn(1)->Count(), 0u) << phase;
    size_t word_bytes = 0;
    for (uint32_t c = 0; c < dict->dsize(); ++c) {
      word_bytes += dict->Word(c).size() + 1;
    }
    EXPECT_LE((*t)->MainColumn(1)->heap()->ByteSize(), word_bytes) << phase;
    EXPECT_EQ((*t)->MainColumn(1)->heap(), dict->heap()) << phase;
  };
  // Both engines answer `q` alike; returns the project_full count it took.
  auto agree = [&](const std::string& q, const std::string& phase) {
    auto want = oracle.Execute(q, parallel::ExecContext::Serial());
    const auto before = compress::GetKernelStats();
    auto got = comp->Execute(q, parallel::ExecContext::Serial());
    const uint64_t full =
        compress::GetKernelStats().project_full - before.project_full;
    EXPECT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    EXPECT_TRUE(got.ok()) << q << " (" << phase
                          << "): " << got.status().ToString();
    if (!want.ok() || !got.ok()) return full;
    auto we = EncodeResult(*want);
    auto ge = EncodeResult(*got);
    EXPECT_TRUE(we.ok() && ge.ok());
    if (we.ok() && ge.ok()) {
      EXPECT_EQ(*ge, *we) << q << " (" << phase << ")";
    }
    return full;
  };
  auto check = [&](const std::string& phase, bool merged) {
    for (const std::string& q : DictCodeSpaceQueries()) {
      EXPECT_EQ(agree(q, phase), 0u) << q << " decoded (" << phase << ")";
    }
    for (const std::string& q : DictColdQueries()) {
      const uint64_t full = agree(q, phase);
      if (merged) {
        EXPECT_GT(full, 0u) << q << " decoded nothing (" << phase << ")";
      }
    }
  };
  auto both = [&](const std::string& sql) {
    ASSERT_TRUE(oracle.Execute(sql).ok()) << sql;
    ASSERT_TRUE(comp->Execute(sql).ok()) << sql;
  };

  dict_only("after COMPRESS");
  check("after COMPRESS", true);

  // UPDATE `tag` to a word the dictionary lacks (it interns into the
  // dictionary's heap) and another column of rows selected by `tag`.
  both("UPDATE d SET tag = 'fresh' WHERE k < 20");
  both("UPDATE d SET v = 7 WHERE tag = 'w5'");
  check("after UPDATE", false);

  both("DELETE FROM d WHERE k >= 150 AND k < 300");
  check("after DELETE", false);

  ASSERT_TRUE(comp->Execute("CHECKPOINT").ok());
  dict_only("after CHECKPOINT");
  check("after CHECKPOINT", true);

  // Reopen from the checkpoint: load keeps the dictionary as the image.
  db->wal.reset();
  comp = std::make_unique<sql::Engine>();
  db = wal::OpenDatabase(dir, comp.get());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  dict_only("after reopen");
  check("after reopen", true);

  ASSERT_TRUE(comp->Execute("ALTER TABLE d DECOMPRESS").ok());
  {
    auto t = comp->catalog()->Get("d");
    ASSERT_TRUE(t.ok());
    EXPECT_EQ((*t)->MainImage(1).sdict, nullptr);
    EXPECT_EQ((*t)->MainColumn(1)->Count(), (*t)->VisibleRowCount());
  }
  for (const auto* qs : {&DictCodeSpaceQueries(), &DictColdQueries()}) {
    for (const std::string& q : *qs) agree(q, "after DECOMPRESS");
  }
  ASSERT_TRUE(comp->Execute("ALTER TABLE d COMPRESS").ok());
  dict_only("after COMPRESS again");
  check("after COMPRESS again", true);
  db->wal.reset();
  std::filesystem::remove_all(dir);

  // Beyond kMaxDistinct words the column stays plain.
  const size_t distinct = compress::StrDict::kMaxDistinct + 1;
  BatPtr keys = Bat::New(PhysType::kInt32);
  BatPtr words = Bat::NewString(nullptr);
  for (size_t i = 0; i < distinct; ++i) {
    keys->Append<int32_t>(static_cast<int32_t>(i));
    words->AppendString("u" + std::to_string(i));
  }
  auto wide = Table::FromColumns(
      "wide", {{"k", PhysType::kInt32}, {"s", PhysType::kStr}}, {keys, words});
  ASSERT_TRUE(wide.ok());
  sql::Engine plain_wide, comp_wide;
  ASSERT_TRUE(plain_wide.catalog()->Register((*wide)->Snapshot()).ok());
  ASSERT_TRUE(comp_wide.catalog()->Register(*wide).ok());
  ASSERT_TRUE(comp_wide.Execute("ALTER TABLE wide COMPRESS").ok());
  EXPECT_EQ((*wide)->MainImage(1).sdict, nullptr);
  EXPECT_EQ((*wide)->MainColumn(1)->Count(), distinct);
  for (const std::string q :
       {"SELECT k FROM wide WHERE s = 'u65536'",
        "SELECT COUNT(*) FROM wide WHERE s LIKE 'u1%'",
        "SELECT k, s FROM wide WHERE k >= 65000 AND k <= 65010"}) {
    auto want = plain_wide.Execute(q, parallel::ExecContext::Serial());
    auto got = comp_wide.Execute(q, parallel::ExecContext::Serial());
    ASSERT_TRUE(want.ok() && got.ok()) << q;
    auto we = EncodeResult(*want);
    auto ge = EncodeResult(*got);
    ASSERT_TRUE(we.ok() && ge.ok());
    EXPECT_EQ(*ge, *we) << q;
  }
}

// ---------------------------------------------------- concurrent sessions --

/// Concurrent sessions over a compressed table: bit-identical to the
/// plain serial engine at every pool size, with statements overlapping
/// and the selects reading the compressed images (counted in
/// KernelStats).
TEST(CompressedQueryTest,
     ConcurrentSessionsOverCompressedBitIdenticalAcrossPools) {
  const std::vector<std::string> expected = PlainEncodings();

  for (int threads : {1, 2, 4, 8}) {
    sql::Engine engine;
    ASSERT_TRUE(engine.catalog()->Register(EventsTable()).ok());
    ASSERT_TRUE(engine.Execute("ALTER TABLE events COMPRESS").ok());
    parallel::TaskPool pool(threads);
    parallel::ExecContext ctx(&pool);

    const compress::KernelStats before = compress::GetKernelStats();
    testutil::RunOnSessions(
        engine, testutil::NewSessions(engine, 6), 3,
        [&](int s, int round, const sql::SessionPtr& session) {
          const size_t q = (s + round) % CrossQueries().size();
          auto r = engine.ExecuteSession(session, CrossQueries()[q], ctx);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          auto payload = EncodeResult(*r);
          ASSERT_TRUE(payload.ok());
          EXPECT_EQ(*payload, expected[q]) << CrossQueries()[q];
        });
    EXPECT_GE(engine.peak_concurrent_selects(), 2u) << threads;
    const compress::KernelStats after = compress::GetKernelStats();
    EXPECT_GT(after.selects_direct + after.selects_fallback,
              before.selects_direct + before.selects_fallback)
        << threads;
  }
}

// ------------------------------------------------------------- wire path --

std::map<std::string, int64_t> StatusCounters(Client* client) {
  auto r = client->Query("SERVER STATUS");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::map<std::string, int64_t> counters;
  for (size_t i = 0; i < r->RowCount(); ++i) {
    counters[std::string(r->columns[0]->StringAt(i))] =
        r->columns[1]->ValueAt<int64_t>(i);
  }
  return counters;
}

/// Remote sessions against a compressed table — with compressed result
/// shipping negotiated — decode to exactly the plain in-process bytes,
/// and the server's saved-bytes counter shows the wire win.
TEST(CompressedQueryTest, WireResultsBitIdenticalAndCompressed) {
  const std::vector<std::string> expected = PlainEncodings();

  ServerConfig config;
  config.port = 0;
  auto server = std::make_unique<Server>(config);
  ASSERT_TRUE(server->engine()->catalog()->Register(EventsTable()).ok());
  ASSERT_TRUE(server->engine()->Execute("ALTER TABLE events COMPRESS").ok());
  ASSERT_TRUE(server->Start().ok());

  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // The server advertises compressed shipping; the client negotiated it.
  EXPECT_NE(client->hello().caps & server::kWireCapCompressedResults, 0u);

  for (size_t q = 0; q < CrossQueries().size(); ++q) {
    auto remote = client->Query(CrossQueries()[q]);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto encoded = EncodeResult(*remote);
    ASSERT_TRUE(encoded.ok());
    EXPECT_EQ(*encoded, expected[q]) << CrossQueries()[q];
  }

  auto counters = StatusCounters(&*client);
  EXPECT_EQ(counters["compressed_tables"], 1);
  EXPECT_EQ(counters["compressed_columns"], 4);
  EXPECT_GT(counters["compressed_logical_bytes"],
            counters["compressed_bytes"]);
  // The full-sweep tag query ships ~197K run-heavy int32 values: RLE
  // must have beaten the raw tail on the wire.
  EXPECT_GT(counters["wire_result_bytes_saved"], 0);

  client->Close();
  server->Stop();
}

}  // namespace
}  // namespace mammoth
