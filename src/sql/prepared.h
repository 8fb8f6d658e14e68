#ifndef MAMMOTH_SQL_PREPARED_H_
#define MAMMOTH_SQL_PREPARED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "mal/program.h"
#include "sql/ast.h"

namespace mammoth::sql {

/// One cached prepared statement: the parameter-marked AST is parsed once
/// at PREPARE time; for SELECTs the compiled + optimized MAL plan (still
/// carrying `?` placeholders in its consts) is cached alongside it, so
/// EXECUTE skips both the SQL parser and SQL→MAL compilation. The plan is
/// stamped with the engine's schema version and lazily recompiled when a
/// DDL statement has bumped it since. DML leaves plans valid: a plan
/// names tables and columns, never rows.
struct PreparedStatement {
  uint64_t id = 0;
  std::string key;  ///< normalized statement text (cache key)
  uint32_t nparams = 0;
  Statement ast;  ///< parameter-marked; immutable after creation

  /// Per-placeholder type metadata (wire::ParamType values, one per
  /// ordinal), inferred from the AST against the catalog at PREPARE time:
  /// INSERT placeholders by column position, WHERE/SET placeholders by
  /// the column they compare against, HAVING ones unknown. Advisory — a
  /// best-effort hint for clients; binding still type-checks the values.
  std::vector<uint8_t> param_types;

  /// Guards the compiled-plan slot (sessions executing the same prepared
  /// statement race on recompilation after an invalidation).
  std::mutex plan_mu;
  bool has_plan = false;
  mal::Program plan;          ///< SELECT only: optimized, placeholders intact
  uint64_t plan_version = 0;  ///< schema version the plan was built against
};

struct PreparedStats {
  uint64_t entries = 0;  ///< gauge: statements currently cached
  uint64_t hits = 0;     ///< cached AST/plan reused as-is
  uint64_t misses = 0;   ///< text compiled fresh or stale plan rebuilt
  uint64_t evictions = 0;
};

/// The per-engine prepared-statement cache: normalized statement text →
/// entry, bounded by an LRU capacity. Two sessions preparing the same
/// statement text share one entry (and one compiled plan). Thread-safe;
/// entries are handed out as shared_ptr so an eviction never invalidates
/// an execution already in flight.
class PreparedCache {
 public:
  explicit PreparedCache(size_t capacity = 128) : capacity_(capacity) {}

  /// Finds the entry for `text` (normalized), parsing and inserting a new
  /// one when absent. Reuse counts a hit, creation a miss (+ possibly an
  /// eviction).
  Result<std::shared_ptr<PreparedStatement>> GetOrPrepare(
      const std::string& text);

  /// Entry by statement id; kNotFound once evicted or never prepared.
  Result<std::shared_ptr<PreparedStatement>> Lookup(uint64_t id);

  /// Named-statement surface (`PREPARE name AS ...` / `EXECUTE name`).
  /// Re-binding a name points it at the new statement.
  void BindName(const std::string& name, uint64_t id);
  Result<uint64_t> ResolveName(const std::string& name) const;

  /// Plan-staleness accounting for the engine's EXECUTE path.
  void CountHit() { ++hits_; }
  void CountMiss() { ++misses_; }

  void set_capacity(size_t capacity);
  PreparedStats stats() const;

 private:
  void EvictIfNeededLocked();

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t next_id_ = 1;
  uint64_t lru_tick_ = 0;
  std::unordered_map<uint64_t, std::shared_ptr<PreparedStatement>> by_id_;
  std::unordered_map<std::string, uint64_t> by_key_;
  std::unordered_map<uint64_t, uint64_t> last_used_;  // id -> tick
  std::unordered_map<std::string, uint64_t> names_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

/// Replaces every `?` placeholder in the program's instruction constants
/// with the matching value from `params`. Errors on an out-of-range
/// ordinal or a nil parameter (kernels cannot compare against nil).
Status SubstituteProgram(mal::Program* prog, const std::vector<Value>& params);

/// Same, over every literal position of a parsed statement (WHERE /
/// HAVING literals, INSERT rows, UPDATE SET values).
Status SubstituteStatement(Statement* stmt, const std::vector<Value>& params);

}  // namespace mammoth::sql

#endif  // MAMMOTH_SQL_PREPARED_H_
