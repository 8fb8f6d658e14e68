#include "sql/prepared.h"

#include <cctype>

#include "sql/parser.h"

namespace mammoth::sql {
namespace {

/// Cache-key normalization: collapse whitespace runs to one space,
/// case-fold everything outside single-quoted strings, and strip a
/// trailing ';'. "select  A from T;" and "SELECT a FROM t" share a plan.
std::string Normalize(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  bool in_string = false;
  bool pending_space = false;
  for (const char c : text) {
    if (in_string) {
      out.push_back(c);
      if (c == '\'') in_string = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    if (c == '\'') {
      in_string = true;
      out.push_back(c);
      continue;
    }
    out.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

Status SubstituteValue(Value* v, const std::vector<Value>& params) {
  if (!v->is_param()) return Status::OK();
  const uint32_t idx = v->param_index();
  if (idx >= params.size()) {
    return Status::InvalidArgument(
        "prepared: parameter ?" + std::to_string(idx) +
        " out of range (got " + std::to_string(params.size()) + " values)");
  }
  if (params[idx].is_nil()) {
    return Status::InvalidArgument("prepared: parameter ?" +
                                   std::to_string(idx) + " is nil");
  }
  *v = params[idx];
  return Status::OK();
}

Status SubstitutePredicates(std::vector<Predicate>* preds,
                            const std::vector<Value>& params) {
  for (Predicate& p : *preds) {
    if (p.is_join) continue;
    MAMMOTH_RETURN_IF_ERROR(SubstituteValue(&p.literal, params));
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<PreparedStatement>> PreparedCache::GetOrPrepare(
    const std::string& text) {
  const std::string key = Normalize(text);
  if (key.empty()) {
    return Status::InvalidArgument("prepared: empty statement");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      ++hits_;
      last_used_[it->second] = ++lru_tick_;
      return by_id_[it->second];
    }
  }
  // Parse outside the cache lock; PREPARE of a brand-new statement pays
  // the parser exactly once.
  uint32_t nparams = 0;
  MAMMOTH_ASSIGN_OR_RETURN(Statement stmt, Parse(text, &nparams));
  // Rejected before caching, so the refusal takes no cache slot: an
  // EXECUTE body could name its own statement and recurse forever.
  if (std::holds_alternative<PrepareStmt>(stmt) ||
      std::holds_alternative<ExecuteStmt>(stmt) ||
      std::holds_alternative<CheckpointStmt>(stmt)) {
    return Status::InvalidArgument(
        "prepared: PREPARE, EXECUTE and CHECKPOINT cannot be prepared");
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {  // lost the race: another session inserted it
    ++hits_;
    last_used_[it->second] = ++lru_tick_;
    return by_id_[it->second];
  }
  ++misses_;
  auto entry = std::make_shared<PreparedStatement>();
  entry->id = next_id_++;
  entry->key = key;
  entry->nparams = nparams;
  entry->ast = std::move(stmt);
  by_id_[entry->id] = entry;
  by_key_[key] = entry->id;
  last_used_[entry->id] = ++lru_tick_;
  EvictIfNeededLocked();
  return entry;
}

Result<std::shared_ptr<PreparedStatement>> PreparedCache::Lookup(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("prepared: unknown statement id " +
                            std::to_string(id));
  }
  last_used_[id] = ++lru_tick_;
  return it->second;
}

void PreparedCache::BindName(const std::string& name, uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  names_[Normalize(name)] = id;
}

Result<uint64_t> PreparedCache::ResolveName(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = names_.find(Normalize(name));
  if (it == names_.end()) {
    return Status::NotFound("prepared: unknown statement '" + name + "'");
  }
  return it->second;
}

void PreparedCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  EvictIfNeededLocked();
}

PreparedStats PreparedCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PreparedStats s;
  s.entries = by_id_.size();
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

void PreparedCache::EvictIfNeededLocked() {
  while (by_id_.size() > capacity_) {
    uint64_t victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (const auto& [id, tick] : last_used_) {
      if (tick < oldest) {
        oldest = tick;
        victim = id;
      }
    }
    auto it = by_id_.find(victim);
    if (it == by_id_.end()) break;  // defensive; maps are kept in sync
    by_key_.erase(it->second->key);
    by_id_.erase(it);
    last_used_.erase(victim);
    ++evictions_;
    // Stale name bindings resolve to Lookup() -> kNotFound, mirroring
    // DEALLOCATE-less servers; no need to scrub names_ here.
  }
}

Status SubstituteProgram(mal::Program* prog,
                         const std::vector<Value>& params) {
  for (mal::Instr& ins : prog->mutable_instrs()) {
    for (Value& v : ins.consts) {
      MAMMOTH_RETURN_IF_ERROR(SubstituteValue(&v, params));
    }
  }
  return Status::OK();
}

Status SubstituteStatement(Statement* stmt,
                           const std::vector<Value>& params) {
  return std::visit(
      [&params](auto& s) -> Status {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, SelectStmt>) {
          MAMMOTH_RETURN_IF_ERROR(SubstitutePredicates(&s.where, params));
          for (HavingPred& h : s.having) {
            MAMMOTH_RETURN_IF_ERROR(SubstituteValue(&h.literal, params));
          }
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          for (std::vector<Value>& row : s.rows) {
            for (Value& v : row) {
              MAMMOTH_RETURN_IF_ERROR(SubstituteValue(&v, params));
            }
          }
        } else if constexpr (std::is_same_v<T, DeleteStmt>) {
          MAMMOTH_RETURN_IF_ERROR(SubstitutePredicates(&s.where, params));
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          for (auto& [col, v] : s.sets) {
            MAMMOTH_RETURN_IF_ERROR(SubstituteValue(&v, params));
          }
          MAMMOTH_RETURN_IF_ERROR(SubstitutePredicates(&s.where, params));
        }
        // CREATE/ALTER carry no literal positions.
        return Status::OK();
      },
      *stmt);
}

}  // namespace mammoth::sql
