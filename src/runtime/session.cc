#include "src/runtime/session.h"

#include <cctype>
#include <set>

#include "src/common/string_util.h"
#include "src/plan/optimizer.h"
#include "src/runtime/inference_scheduler.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"

namespace tdp {
namespace {

/// Normalizes SQL text for plan-cache keying: outside quoted literals,
/// whitespace runs (and `--` line comments) collapse to a single space and
/// letters fold to lowercase; quoted literals are preserved byte-for-byte.
/// Statements differing only in case or layout share one cache entry.
std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool pending_space = false;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (c == '\'' || c == '"') {
      if (pending_space && !out.empty()) out += ' ';
      pending_space = false;
      const char quote = c;
      out += c;
      ++i;
      while (i < n && sql[i] != quote) out += sql[i++];
      if (i < n) out += sql[i++];  // closing quote
      continue;
    }
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      pending_space = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      ++i;
      continue;
    }
    if (pending_space && !out.empty()) out += ' ';
    pending_space = false;
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    ++i;
  }
  return out;
}

/// Every table name the plan touches (lowercased): scans, index probes and
/// write targets alike. These are the tables whose schema epochs decide a
/// cache entry's freshness.
void CollectPlanTables(const plan::LogicalNode& node,
                       std::set<std::string>& out) {
  switch (node.kind) {
    case plan::NodeKind::kScan:
      out.insert(ToLower(static_cast<const plan::ScanNode&>(node).table_name));
      break;
    case plan::NodeKind::kIndexTopK:
      out.insert(
          ToLower(static_cast<const plan::IndexTopKNode&>(node).table_name));
      break;
    case plan::NodeKind::kCreateTable:
      out.insert(
          ToLower(static_cast<const plan::CreateTableNode&>(node).table_name));
      break;
    case plan::NodeKind::kInsert:
      out.insert(
          ToLower(static_cast<const plan::InsertNode&>(node).table_name));
      break;
    case plan::NodeKind::kUpdate:
      out.insert(
          ToLower(static_cast<const plan::UpdateNode&>(node).table_name));
      break;
    case plan::NodeKind::kDelete:
      out.insert(
          ToLower(static_cast<const plan::DeleteNode&>(node).table_name));
      break;
    default:
      break;
  }
  for (const auto& child : node.children) CollectPlanTables(*child, out);
}

std::vector<std::pair<std::string, uint64_t>> CollectPlanDeps(
    const plan::LogicalNode& plan, const Catalog& snapshot) {
  std::set<std::string> tables;
  CollectPlanTables(plan, tables);
  std::vector<std::pair<std::string, uint64_t>> deps;
  deps.reserve(tables.size());
  for (const std::string& table : tables) {
    deps.emplace_back(table, snapshot.SchemaEpoch(table));
  }
  return deps;
}

bool DepsFresh(const std::vector<std::pair<std::string, uint64_t>>& deps,
               const Catalog& snapshot) {
  for (const auto& [table, epoch] : deps) {
    if (snapshot.SchemaEpoch(table) != epoch) return false;
  }
  return true;
}

std::string CacheKey(const std::string& sql, const QueryOptions& options) {
  std::string key = NormalizeSql(sql);
  key += '\x1f';
  key += std::to_string(static_cast<int>(options.device));
  key += options.trainable ? "/t" : "/e";
  // Morsel sizing and the other run knobs are per-run state (RunOptions),
  // not plan state, so they are deliberately NOT part of the key: clients
  // running with different morsel sizes share one cached plan.
  return key;
}

}  // namespace

Session::Session()
    : catalog_(std::make_shared<SharedCatalog>()),
      registry_(std::make_unique<udf::FunctionRegistry>()) {}

Status Session::RegisterTable(const std::string& name,
                              std::shared_ptr<Table> table, Device device) {
  if (table == nullptr) {
    return Status::InvalidArgument("cannot register a null table");
  }
  if (device != Device::kCpu) table = table->To(device);
  // Registration is DDL: it bumps `name`'s schema epoch, invalidating
  // exactly the cached plans that touch `name` (entries are epoch-checked
  // on lookup). Plans over other tables keep hitting.
  return catalog_->RegisterTable(name, std::move(table), /*replace=*/true);
}

Status Session::RegisterTensor(const std::string& name, Tensor tensor,
                               Device device) {
  if (!tensor.defined()) {
    return Status::InvalidArgument("cannot register an undefined tensor");
  }
  TDP_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> table,
      Table::Create(name, {"value"}, {Column::Plain(std::move(tensor))}));
  return RegisterTable(name, std::move(table), device);
}

Status Session::CreateVectorIndex(const std::string& table,
                                  const std::string& column,
                                  const index::IvfIndex::Options& options,
                                  uint64_t seed) {
  // Index creation bumps `table`'s schema epoch: previously-compiled
  // brute-force top-k statements over it recompile on their next
  // Prepare/Sql — and can now rewrite to IndexTopK. Plans over other
  // tables are untouched.
  return catalog_->CreateVectorIndex(table, column, options, seed);
}

Status Session::DropVectorIndex(const std::string& table,
                                const std::string& column) {
  return catalog_->DropVectorIndex(table, column);
}

StatusOr<std::shared_ptr<exec::CompiledQuery>> Session::Query(
    const std::string& sql, const QueryOptions& options) {
  TDP_ASSIGN_OR_RETURN(auto statement, sql::ParseStatement(sql));
  // Bind against one immutable snapshot; the compiled query re-resolves
  // tables from the live catalog at each Run().
  const std::shared_ptr<const Catalog> snapshot = catalog_->Snapshot();
  sql::Binder binder(*snapshot, *registry_);
  TDP_ASSIGN_OR_RETURN(plan::LogicalNodePtr logical_plan,
                       binder.Bind(*statement));
  logical_plan = plan::Optimize(std::move(logical_plan), snapshot.get());
  // Session-compiled queries share the process-wide inference scheduler:
  // batchable model calls from concurrent cursors coalesce into shared
  // forward passes. (Trainable queries ignore the dispatcher — the
  // CompiledQuery drops it to keep autograd graphs per-query.)
  return std::make_shared<exec::CompiledQuery>(
      std::move(logical_plan), catalog_, options.device, options.trainable,
      &runtime::InferenceScheduler::Global());
}

StatusOr<std::shared_ptr<exec::CompiledQuery>> Session::Prepare(
    const std::string& sql, const QueryOptions& options) {
  // Trainable queries carry mutable module state (training_mode, module
  // parameters) and must not be shared behind the caller's back.
  if (!options.use_plan_cache || options.trainable) {
    return Query(sql, options);
  }
  const std::string key = CacheKey(sql, options);
  // Snapshot BEFORE compiling: the entry's dep epochs are read from this
  // snapshot, so if DDL lands between the read and the bind, the entry is
  // born stale and merely recompiled on the next lookup — never served
  // against a vanished schema. The same snapshot validates an existing
  // entry's deps (per-table: only DDL on a touched table invalidates).
  const std::shared_ptr<const Catalog> pre = catalog_->Snapshot();

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (capacity_ == 0) {
      lock.unlock();  // compile outside the lock, like the miss path
      return Query(sql, options);
    }
    auto it = index_.find(key);
    if (it != index_.end()) {
      if (DepsFresh(it->second->deps, *pre)) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second);  // move to MRU
        return it->second->query;
      }
      ++stats_.invalidations;
      lru_.erase(it->second);
      index_.erase(it);
    }
    ++stats_.misses;
  }

  // Compile outside the lock: one slow bind must not serialize the other
  // clients. Two threads racing on the same cold key both compile; the
  // later insert wins (both plans are equivalent).
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<exec::CompiledQuery> query,
                       Query(sql, options));
  std::vector<std::pair<std::string, uint64_t>> deps =
      CollectPlanDeps(query->plan(), *pre);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(CacheEntry{key, query, std::move(deps)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    ++stats_.evictions;
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return query;
}

StatusOr<std::shared_ptr<Table>> Session::Sql(const std::string& sql,
                                              const QueryOptions& options,
                                              const exec::RunOptions& run) {
  TDP_ASSIGN_OR_RETURN(auto query, Prepare(sql, options));
  return query->Run(run);
}

StatusOr<std::unique_ptr<exec::ResultCursor>> Session::Execute(
    const std::string& sql, const QueryOptions& options,
    exec::RunOptions run) {
  TDP_ASSIGN_OR_RETURN(auto query, Prepare(sql, options));
  return query->Open(std::move(run));
}

StatusOr<std::string> Session::Explain(const std::string& sql,
                                       const QueryOptions& options) {
  // Non-inserting peek: serve the plan from the cache when a fresh entry
  // exists, but without touching LRU order or stats; on miss, compile
  // outside the cache entirely. EXPLAIN is an inspection tool — a burst of
  // ad-hoc EXPLAINs must not evict the hot serving plans.
  if (options.use_plan_cache && !options.trainable) {
    const std::string key = CacheKey(sql, options);
    const std::shared_ptr<const Catalog> snapshot = catalog_->Snapshot();
    std::shared_ptr<exec::CompiledQuery> cached;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = index_.find(key);
      if (it != index_.end() && DepsFresh(it->second->deps, *snapshot)) {
        cached = it->second->query;
      }
    }
    // Render outside the lock: plan-tree stringification must not stall
    // concurrent Prepare() cache hits on the serving path.
    if (cached != nullptr) return cached->Explain();
  }
  TDP_ASSIGN_OR_RETURN(auto query, Query(sql, options));
  return query->Explain();
}

PlanCacheStats Session::plan_cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats stats = stats_;
  stats.size = lru_.size();
  stats.capacity = capacity_;
  return stats;
}

void Session::set_plan_cache_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  while (lru_.size() > capacity_) {
    ++stats_.evictions;
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

}  // namespace tdp
