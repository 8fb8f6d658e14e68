#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Seeded inputs of the three workloads and the answers the benchmark
// expects for them. Every expected answer is derived from the generated
// columns here, never from the engine.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/table.h"
#include "core/value.h"
#include "mal/interpreter.h"

namespace perfbench {

using mammoth::Result;
using mammoth::Status;
using mammoth::TablePtr;
using mammoth::Value;

struct Sizes {
  size_t point_rows = 0;
  size_t fact_rows = 0;
  size_t blocks = 0;  ///< equal key blocks of the fact table
};
Sizes SizesFor(bool tiny);

inline constexpr int kRunValues = 100;   ///< domain of facts.run
inline constexpr int kDimRows = 256;     ///< dims rows = domain of facts.lc
inline constexpr int kDimGroups = 8;     ///< domain of dims.grp
inline constexpr int kTagValues = 1000;  ///< distinct facts.tag strings

std::string TagName(int id);  // "t0042"
std::string DimName(int id);  // "d042"

/// `kv(id INT, a INT, b BIGINT)`: id = row number (sorted), a and b
/// seeded random. 16 bytes per row.
struct PointData {
  std::vector<int32_t> a;
  std::vector<int64_t> b;

  static PointData Generate(size_t rows, uint64_t seed);
  size_t rows() const { return a.size(); }
  Result<TablePtr> MakeTable() const;
  uint64_t LogicalBytes() const { return rows() * 16; }
};

/// `facts(k INT, run INT, lc INT, rnd INT, tag TEXT)` and
/// `dims(id INT, grp INT, name TEXT)`:
///   k   sorted row number (the key; ranges on it touch few blocks),
///   run runs of 500..1500 equal values in [0, 100) (RLE),
///   lc  uniform in [0, 256), the join key into dims (PDICT),
///   rnd uniform over all int32 values (no codec wins, stays plain),
///   tag one of 1000 strings (dictionary TEXT).
/// Aggregates per key block let checks cost O(blocks), not O(rows).
struct FactData {
  size_t blocks = 0;
  size_t block_rows = 0;
  std::vector<int32_t> run, lc, rnd;
  std::vector<uint16_t> tag;
  std::vector<int32_t> dim_grp;  ///< [kDimRows]

  std::vector<int64_t> blk_sum_rnd;                 ///< [blocks]
  std::vector<int64_t> run_cnt, run_sum_lc;         ///< [kRunValues]
  std::vector<int64_t> blc_cnt, blc_sum_run, blc_sum_rnd;  ///< [blocks][256]
  std::vector<int64_t> tag_cnt, tag_sum_rnd;        ///< [kTagValues]

  static FactData Generate(size_t rows, size_t blocks, uint64_t seed);
  size_t rows() const { return run.size(); }
  /// The fact table with its compression policy on (merged, encoded).
  Result<TablePtr> MakeFactTable() const;
  Result<TablePtr> MakeDimTable() const;
  /// Logical bytes of the base rows: four INTs plus the tag characters
  /// (and the same for dims).
  uint64_t LogicalBytes() const;
};

/// The read queries. The scan workload rotates through five classes;
/// classes 3 and 4 pick one of two shapes at random.
enum class Kind {
  kKeyRange,   // class 0: COUNT/SUM over a range of the sorted key
  kRunRange,   // class 1: range on the run-heavy column
  kGroupLc,    // class 2: GROUP BY the low-cardinality column
  kTagEq,      // class 3: TEXT =
  kTagLike,    // class 3: TEXT LIKE prefix
  kJoinGroup,  // class 4: join with dims + GROUP BY
  kJoinTopN,   // class 4: join with dims + ORDER BY ... LIMIT
};
inline constexpr int kScanClasses = 5;
inline constexpr int kKinds = 7;
const char* KindName(Kind kind);
/// SQL of a kind with `?` in every parameter position.
const char* KindSql(Kind kind);

struct Query {
  Kind kind = Kind::kKeyRange;
  std::vector<Value> params;
};

/// A query of scan class `cls` with seeded parameters.
Query MakeScanQuery(const FactData& d, int cls, mammoth::Rng* rng);

/// `sql` with each `?` replaced by the next parameter as a literal.
std::string RenderSql(const char* sql, const std::vector<Value>& params);

/// Checks `r` against the generator. With `base_only` (inserts may have
/// added rows with keys >= rows()), queries bounded to the base key range
/// are still checked exactly and the others must count at least the base
/// rows.
Status CheckScan(const FactData& d, const Query& q,
                 const mammoth::mal::QueryResult& r, bool base_only);

/// Checks a point lookup `SELECT a, b FROM kv WHERE id = key`.
Status CheckPoint(const PointData& d, int64_t key,
                  const mammoth::mal::QueryResult& r);

/// Integer cell of any integer-typed (or oid) result column.
int64_t IntAt(const mammoth::Bat& b, size_t i);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
