#include "workload.h"

#include <cstdio>
#include <string_view>

namespace perfbench {

using mammoth::Bat;
using mammoth::BatPtr;
using mammoth::ColumnDef;
using mammoth::PhysType;
using mammoth::Rng;
using mammoth::Table;
using mammoth::mal::QueryResult;

Sizes SizesFor(bool tiny) {
  Sizes s;
  s.blocks = 64;
  s.point_rows = tiny ? 4096 : 65536;
  s.fact_rows = tiny ? 64 * 512 : size_t{1} << 20;
  return s;
}

std::string TagName(int id) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%04d", id);
  return buf;
}

std::string DimName(int id) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "d%03d", id);
  return buf;
}

int64_t IntAt(const Bat& b, size_t i) {
  switch (b.type()) {
    case PhysType::kBool:
    case PhysType::kInt8:
      return b.ValueAt<int8_t>(i);
    case PhysType::kInt16:
      return b.ValueAt<int16_t>(i);
    case PhysType::kInt32:
      return b.ValueAt<int32_t>(i);
    case PhysType::kInt64:
      return b.ValueAt<int64_t>(i);
    case PhysType::kOid:
      return static_cast<int64_t>(b.OidAt(i));
    case PhysType::kFloat:
      return static_cast<int64_t>(b.ValueAt<float>(i));
    case PhysType::kDouble:
      return static_cast<int64_t>(b.ValueAt<double>(i));
    case PhysType::kStr:
      break;
  }
  return 0;
}

namespace {

/// 0, 1, ..., n-1 as a sorted key column.
BatPtr KeyColumn(size_t n) {
  BatPtr b = Bat::New(PhysType::kInt32);
  b->Resize(n);
  int32_t* p = b->MutableTailData<int32_t>();
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<int32_t>(i);
  b->mutable_props().sorted = true;
  b->mutable_props().key = true;
  return b;
}

template <typename T>
BatPtr ColumnOf(PhysType type, const std::vector<T>& v) {
  BatPtr b = Bat::New(type);
  b->AppendRaw(v.data(), v.size());
  return b;
}

Status Mismatch(const Query& q, const std::string& what) {
  return Status::Internal(std::string("wrong answer to ") + KindName(q.kind) +
                          ": " + what);
}

/// Compares a result against expected integer rows.
Status ExpectRows(const Query& q, const QueryResult& r,
                  const std::vector<std::vector<int64_t>>& rows) {
  if (r.RowCount() != rows.size()) {
    return Mismatch(q, "rows " + std::to_string(r.RowCount()) + ", want " +
                           std::to_string(rows.size()));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (r.columns.size() < rows[i].size()) return Mismatch(q, "arity");
    for (size_t c = 0; c < rows[i].size(); ++c) {
      const int64_t got = IntAt(*r.columns[c], i);
      if (got != rows[i][c]) {
        return Mismatch(q, "row " + std::to_string(i) + " col " +
                               std::to_string(c) + " = " +
                               std::to_string(got) + ", want " +
                               std::to_string(rows[i][c]));
      }
    }
  }
  return Status::OK();
}

/// COUNT(*) and SUM of a one-row aggregate. A SUM over no rows is not
/// checked (its empty-input value is the engine's convention, not data).
Status ExpectCountSum(const Query& q, const QueryResult& r, int64_t count,
                      int64_t sum, bool base_only) {
  if (r.RowCount() != 1 || r.columns.size() != 2) {
    return Mismatch(q, "shape");
  }
  const int64_t got = IntAt(*r.columns[0], 0);
  if (base_only) {
    return got >= count ? Status::OK()
                        : Mismatch(q, "count " + std::to_string(got) +
                                          " below base " +
                                          std::to_string(count));
  }
  if (count == 0) return ExpectRows(q, r, {{0}});
  return ExpectRows(q, r, {{count, sum}});
}

}  // namespace

PointData PointData::Generate(size_t rows, uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  PointData d;
  d.a.resize(rows);
  d.b.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    d.a[i] = static_cast<int32_t>(static_cast<uint32_t>(rng.Next()));
    d.b[i] = static_cast<int64_t>(rng.Next());
  }
  return d;
}

Result<TablePtr> PointData::MakeTable() const {
  return Table::FromColumns("kv",
                            {{"id", PhysType::kInt32},
                             {"a", PhysType::kInt32},
                             {"b", PhysType::kInt64}},
                            {KeyColumn(rows()), ColumnOf(PhysType::kInt32, a),
                             ColumnOf(PhysType::kInt64, b)});
}

FactData FactData::Generate(size_t rows, size_t blocks, uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 23);
  FactData d;
  d.blocks = blocks;
  d.block_rows = rows / blocks;
  d.run.resize(rows);
  d.lc.resize(rows);
  d.rnd.resize(rows);
  d.tag.resize(rows);
  d.dim_grp.resize(kDimRows);
  for (int32_t& g : d.dim_grp) g = static_cast<int32_t>(rng.Uniform(kDimGroups));

  d.blk_sum_rnd.assign(blocks, 0);
  d.run_cnt.assign(kRunValues, 0);
  d.run_sum_lc.assign(kRunValues, 0);
  d.blc_cnt.assign(blocks * kDimRows, 0);
  d.blc_sum_run.assign(blocks * kDimRows, 0);
  d.blc_sum_rnd.assign(blocks * kDimRows, 0);
  d.tag_cnt.assign(kTagValues, 0);
  d.tag_sum_rnd.assign(kTagValues, 0);

  size_t run_left = 0;
  int32_t run_value = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (run_left == 0) {
      run_left = 500 + rng.Uniform(1001);
      run_value = static_cast<int32_t>(rng.Uniform(kRunValues));
    }
    --run_left;
    d.run[i] = run_value;
    d.lc[i] = static_cast<int32_t>(rng.Uniform(kDimRows));
    d.rnd[i] = static_cast<int32_t>(static_cast<uint32_t>(rng.Next()));
    d.tag[i] = static_cast<uint16_t>(rng.Uniform(kTagValues));

    const size_t blk = i / d.block_rows;
    const size_t cell = blk * kDimRows + static_cast<size_t>(d.lc[i]);
    d.blk_sum_rnd[blk] += d.rnd[i];
    d.run_cnt[run_value] += 1;
    d.run_sum_lc[run_value] += d.lc[i];
    d.blc_cnt[cell] += 1;
    d.blc_sum_run[cell] += d.run[i];
    d.blc_sum_rnd[cell] += d.rnd[i];
    d.tag_cnt[d.tag[i]] += 1;
    d.tag_sum_rnd[d.tag[i]] += d.rnd[i];
  }
  return d;
}

Result<TablePtr> FactData::MakeFactTable() const {
  std::vector<std::string> names;
  for (int t = 0; t < kTagValues; ++t) names.push_back(TagName(t));
  BatPtr tags = Bat::NewString(nullptr);
  tags->Reserve(rows());
  for (uint16_t t : tag) tags->AppendString(names[t]);
  MAMMOTH_ASSIGN_OR_RETURN(
      TablePtr t, Table::FromColumns("facts",
                                     {{"k", PhysType::kInt32},
                                      {"run", PhysType::kInt32},
                                      {"lc", PhysType::kInt32},
                                      {"rnd", PhysType::kInt32},
                                      {"tag", PhysType::kStr}},
                                     {KeyColumn(rows()),
                                      ColumnOf(PhysType::kInt32, run),
                                      ColumnOf(PhysType::kInt32, lc),
                                      ColumnOf(PhysType::kInt32, rnd), tags}));
  MAMMOTH_RETURN_IF_ERROR(t->SetCompression(true));
  return t;
}

Result<TablePtr> FactData::MakeDimTable() const {
  BatPtr names = Bat::NewString(nullptr);
  for (int i = 0; i < kDimRows; ++i) names->AppendString(DimName(i));
  return Table::FromColumns("dims",
                            {{"id", PhysType::kInt32},
                             {"grp", PhysType::kInt32},
                             {"name", PhysType::kStr}},
                            {KeyColumn(kDimRows),
                             ColumnOf(PhysType::kInt32, dim_grp), names});
}

uint64_t FactData::LogicalBytes() const {
  return rows() * (16 + TagName(0).size()) +
         kDimRows * (8 + DimName(0).size());
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kKeyRange: return "key_range";
    case Kind::kRunRange: return "run_range";
    case Kind::kGroupLc: return "group_lc";
    case Kind::kTagEq: return "tag_eq";
    case Kind::kTagLike: return "tag_like";
    case Kind::kJoinGroup: return "join_group";
    case Kind::kJoinTopN: return "join_topn";
  }
  return "?";
}

const char* KindSql(Kind kind) {
  switch (kind) {
    case Kind::kKeyRange:
      return "SELECT COUNT(*), SUM(rnd) FROM facts WHERE k >= ? AND k <= ?";
    case Kind::kRunRange:
      return "SELECT COUNT(*), SUM(lc) FROM facts WHERE run >= ? AND run <= ?";
    case Kind::kGroupLc:
      return "SELECT lc, COUNT(*), SUM(run) FROM facts WHERE k >= ? AND "
             "k <= ? GROUP BY lc ORDER BY lc";
    case Kind::kTagEq:
      return "SELECT COUNT(*), SUM(rnd) FROM facts WHERE tag = ?";
    case Kind::kTagLike:
      return "SELECT COUNT(*), SUM(rnd) FROM facts WHERE tag LIKE ?";
    case Kind::kJoinGroup:
      return "SELECT grp, COUNT(*), SUM(rnd) FROM facts, dims WHERE lc = id "
             "AND k >= ? AND k <= ? GROUP BY grp ORDER BY grp";
    case Kind::kJoinTopN:
      return "SELECT k, name FROM facts, dims WHERE lc = id AND k >= ? AND "
             "k <= ? ORDER BY k DESC LIMIT 10";
  }
  return "";
}

Query MakeScanQuery(const FactData& d, int cls, Rng* rng) {
  // Each class does a fixed amount of work at a random position, so the
  // cost of a class does not depend on how the seed drew its widths.
  Query q;
  auto block_range = [&](size_t nb) {
    const size_t lo = rng->Uniform(d.blocks - nb + 1);
    q.params = {Value::Int(static_cast<int64_t>(lo * d.block_rows)),
                Value::Int(static_cast<int64_t>((lo + nb) * d.block_rows) - 1)};
  };
  switch (cls) {
    case 0: {
      q.kind = Kind::kKeyRange;
      const size_t len = d.rows() / 8;
      const size_t a = rng->Uniform(d.rows() - len + 1);
      q.params = {Value::Int(static_cast<int64_t>(a)),
                  Value::Int(static_cast<int64_t>(a + len - 1))};
      break;
    }
    case 1: {
      q.kind = Kind::kRunRange;
      const int64_t a = static_cast<int64_t>(rng->Uniform(kRunValues - 9));
      q.params = {Value::Int(a), Value::Int(a + 9)};
      break;
    }
    case 2:
      q.kind = Kind::kGroupLc;
      block_range(4);
      break;
    case 3:
      if (rng->Uniform(2) == 0) {
        q.kind = Kind::kTagEq;
        q.params = {Value::Str(
            TagName(static_cast<int>(rng->Uniform(kTagValues))))};
      } else {
        q.kind = Kind::kTagLike;
        q.params = {Value::Str("t0" + std::to_string(rng->Uniform(10)) + "%")};
      }
      break;
    default:
      q.kind = rng->Uniform(2) == 0 ? Kind::kJoinGroup : Kind::kJoinTopN;
      block_range(2);
      break;
  }
  return q;
}

std::string RenderSql(const char* sql, const std::vector<Value>& params) {
  std::string out;
  size_t next = 0;
  for (const char* p = sql; *p != '\0'; ++p) {
    if (*p != '?' || next >= params.size()) {
      out += *p;
      continue;
    }
    const Value& v = params[next++];
    out += v.is_str() ? "'" + v.AsStr() + "'" : std::to_string(v.AsInt());
  }
  return out;
}

Status CheckScan(const FactData& d, const Query& q, const QueryResult& r,
                 bool base_only) {
  const size_t R = d.block_rows;
  auto int_param = [&](size_t i) {
    return static_cast<size_t>(q.params[i].AsInt());
  };
  switch (q.kind) {
    case Kind::kKeyRange: {
      const size_t a = int_param(0), b = int_param(1);
      int64_t sum = 0;
      for (size_t i = a; i <= b;) {
        if (i % R == 0 && i + R - 1 <= b) {
          sum += d.blk_sum_rnd[i / R];
          i += R;
        } else {
          sum += d.rnd[i++];
        }
      }
      // Inserted rows carry keys >= rows(), outside every range here.
      return ExpectCountSum(q, r, static_cast<int64_t>(b - a + 1), sum, false);
    }
    case Kind::kRunRange: {
      int64_t count = 0, sum = 0;
      for (size_t v = int_param(0); v <= int_param(1); ++v) {
        count += d.run_cnt[v];
        sum += d.run_sum_lc[v];
      }
      return ExpectCountSum(q, r, count, sum, base_only);
    }
    case Kind::kTagEq:
    case Kind::kTagLike: {
      const std::string& s = q.params[0].AsStr();
      int lo = 0, hi = 0;
      if (q.kind == Kind::kTagEq) {
        lo = hi = std::stoi(s.substr(1));
      } else {
        lo = (s[2] - '0') * 100;
        hi = lo + 99;
      }
      int64_t count = 0, sum = 0;
      for (int t = lo; t <= hi; ++t) {
        count += d.tag_cnt[t];
        sum += d.tag_sum_rnd[t];
      }
      return ExpectCountSum(q, r, count, sum, base_only);
    }
    case Kind::kGroupLc:
    case Kind::kJoinGroup: {
      const size_t b0 = int_param(0) / R, b1 = (int_param(1) + 1) / R;
      const bool by_lc = q.kind == Kind::kGroupLc;
      const int groups = by_lc ? kDimRows : kDimGroups;
      std::vector<int64_t> cnt(groups, 0), sum(groups, 0);
      for (size_t blk = b0; blk < b1; ++blk) {
        for (int v = 0; v < kDimRows; ++v) {
          const size_t cell = blk * kDimRows + static_cast<size_t>(v);
          const int g = by_lc ? v : d.dim_grp[v];
          cnt[g] += d.blc_cnt[cell];
          sum[g] += by_lc ? d.blc_sum_run[cell] : d.blc_sum_rnd[cell];
        }
      }
      std::vector<std::vector<int64_t>> rows;
      for (int g = 0; g < groups; ++g) {
        if (cnt[g] > 0) rows.push_back({g, cnt[g], sum[g]});
      }
      return ExpectRows(q, r, rows);
    }
    case Kind::kJoinTopN: {
      const size_t b = int_param(1);
      if (r.RowCount() != 10 || r.columns.size() != 2) {
        return Mismatch(q, "shape");
      }
      for (size_t j = 0; j < 10; ++j) {
        const size_t k = b - j;
        if (IntAt(*r.columns[0], j) != static_cast<int64_t>(k) ||
            r.columns[1]->StringAt(j) != DimName(d.lc[k])) {
          return Mismatch(q, "row " + std::to_string(j));
        }
      }
      return Status::OK();
    }
  }
  return Mismatch(q, "unknown kind");
}

Status CheckPoint(const PointData& d, int64_t key, const QueryResult& r) {
  if (r.RowCount() != 1 || r.columns.size() != 2) {
    return Status::Internal("wrong answer to point lookup " +
                            std::to_string(key) + ": shape");
  }
  const size_t i = static_cast<size_t>(key);
  if (IntAt(*r.columns[0], 0) != d.a[i] || IntAt(*r.columns[1], 0) != d.b[i]) {
    return Status::Internal("wrong answer to point lookup " +
                            std::to_string(key));
  }
  return Status::OK();
}

}  // namespace perfbench
