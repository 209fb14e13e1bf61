#ifndef TDP_PLAN_LOGICAL_PLAN_H_
#define TDP_PLAN_LOGICAL_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/bound_expr.h"
#include "src/storage/table.h"
#include "src/udf/registry.h"

namespace tdp {
namespace plan {

/// Compile-time description of one output column of a plan node.
struct ColumnMeta {
  std::string name;
  Encoding encoding = Encoding::kPlain;
  DType dtype = DType::kFloat32;  // payload dtype (codes for dictionary)
  bool is_tensor = false;         // rank >= 2 plain column
};

using Schema = std::vector<ColumnMeta>;

std::string SchemaToString(const Schema& schema);

enum class NodeKind {
  kScan,
  kTvfScan,
  kFilter,
  kProject,
  kAggregate,
  kJoin,
  kSort,
  kLimit,
  kDistinct,
  kIndexTopK,
  kModelEval,
  kCreateTable,
  kInsert,
  kUpdate,
  kDelete,
};

std::string_view NodeKindName(NodeKind kind);

/// Logical (and, in TDP, also physical) plan node. TDP compiles each node
/// to a tensor program at execution; there is no separate physical tree.
struct LogicalNode {
  explicit LogicalNode(NodeKind kind) : kind(kind) {}
  virtual ~LogicalNode() = default;
  NodeKind kind;
  Schema schema;  // output schema
  std::vector<std::unique_ptr<LogicalNode>> children;

  /// Single-line description (without children).
  virtual std::string Describe() const = 0;
  /// Indented full-tree rendering (EXPLAIN output).
  std::string ToString(int indent = 0) const;
};

using LogicalNodePtr = std::unique_ptr<LogicalNode>;

/// Leaf: reads a registered table. The table is re-resolved from the
/// catalog at every Run() so re-registering a table (the paper's training
/// loop re-registers MNIST_Grid each iteration) is picked up without
/// recompilation. `projected_columns` (filled by the optimizer) narrows
/// the scan.
struct ScanNode : LogicalNode {
  ScanNode() : LogicalNode(NodeKind::kScan) {}
  std::string table_name;
  std::vector<int64_t> projected_columns;  // empty = all
  std::string Describe() const override;
};

/// Runs a registered table-valued function over its child's output (a
/// scan, or any subplan when the TVF input is a subquery).
struct TvfScanNode : LogicalNode {
  TvfScanNode() : LogicalNode(NodeKind::kTvfScan) {}
  const udf::TableFunction* fn = nullptr;  // owned by the registry
  std::vector<exec::ScalarValue> args;
  std::string Describe() const override;
};

struct FilterNode : LogicalNode {
  FilterNode() : LogicalNode(NodeKind::kFilter) {}
  exec::BoundExprPtr predicate;
  std::string Describe() const override;
};

struct ProjectNode : LogicalNode {
  ProjectNode() : LogicalNode(NodeKind::kProject) {}
  std::vector<exec::BoundExprPtr> exprs;  // one per output column
  std::string Describe() const override;
};

enum class AggKind { kCountStar, kCount, kSum, kAvg, kMin, kMax };

std::string_view AggKindName(AggKind kind);

struct AggDef {
  AggKind kind = AggKind::kCountStar;
  exec::BoundExprPtr arg;  // null for COUNT(*)
  bool distinct = false;
  std::string name;
};

/// Grouped (or global, when group_exprs empty) aggregation. Output schema:
/// group columns first, aggregate columns after. In trainable mode with PE
/// group keys this node executes as soft_groupby/soft_count (§4).
struct AggregateNode : LogicalNode {
  AggregateNode() : LogicalNode(NodeKind::kAggregate) {}
  std::vector<exec::BoundExprPtr> group_exprs;
  std::vector<std::string> group_names;
  std::vector<AggDef> aggregates;
  std::string Describe() const override;
};

struct JoinNode : LogicalNode {
  JoinNode() : LogicalNode(NodeKind::kJoin) {}
  sql::JoinType join_type = sql::JoinType::kInner;
  // Equi-join keys: column indices into left/right child outputs.
  std::vector<int64_t> left_keys;
  std::vector<int64_t> right_keys;
  // Residual non-equi condition over [left columns ++ right columns].
  exec::BoundExprPtr residual;
  /// Which child the hash table is built over (the other side streams as
  /// the probe). Default: right child. The optimizer flips this when the
  /// left input is estimated smaller (`ChooseJoinBuildSides`), so a tiny
  /// dimension table on the left is hashed rather than materialized as
  /// the probe target. Output schema order (left ++ right) is unaffected.
  bool build_left = false;
  std::string Describe() const override;
};

struct SortItem {
  exec::BoundExprPtr expr;
  bool descending = false;
};

struct SortNode : LogicalNode {
  SortNode() : LogicalNode(NodeKind::kSort) {}
  std::vector<SortItem> items;
  /// When >= 0, a following Limit was fused in (top-k sort).
  int64_t fused_limit = -1;
  std::string Describe() const override;
};

struct LimitNode : LogicalNode {
  LimitNode() : LogicalNode(NodeKind::kLimit) {}
  int64_t limit = -1;  // -1 = unbounded (OFFSET only)
  int64_t offset = 0;
  std::string Describe() const override;
};

struct DistinctNode : LogicalNode {
  DistinctNode() : LogicalNode(NodeKind::kDistinct) {}
  std::string Describe() const override;
};

/// Index-accelerated top-k similarity search: replaces a
/// `Sort(sim DESC, fused k) <- Project(..., sim, ...) <- [Filter* <-]
/// Scan(t)` subtree when the catalog holds a vector index on the scanned
/// embedding column (see `plan::Optimize` rule 5). The absorbed projection
/// lives in `exprs`; `exprs[sim_ordinal]` is the similarity expression the
/// Sort keyed on; absorbed WHERE conjuncts (bound against the scan frame,
/// like `exprs`) live in `predicate` (null when unfiltered). Execution
/// gathers candidate rows in one of two ways: by default the rows that
/// pass the predicate, narrowed by one index probe when the budget is
/// partial and more than k rows pass; or, for a `post_filter` plan at a
/// partial budget, by probing first and filtering the probed rows. It
/// projects the candidates and ranks them EXACTLY by `exprs[sim_ordinal]`
/// plus any `extra_keys` (row-local, so candidate-subset scores match
/// full-relation scores bit for bit), keeping the first k. At full
/// probe count the candidates are every surviving row and the result is
/// bit-identical to the exact Filter+Sort+Limit plan it replaced. When
/// the run's catalog snapshot no longer holds a valid index (the table was
/// re-registered after compilation), the operator ranks every surviving
/// row — that exact plan's result — instead of failing.
struct IndexTopKNode : LogicalNode {
  IndexTopKNode() : LogicalNode(NodeKind::kIndexTopK) {}
  std::string table_name;          // scanned table (index lookup key)
  std::string column_name;         // indexed embedding column
  int64_t k = 0;                   // rows to emit (the sort's fused limit)
  int64_t sim_ordinal = 0;         // index of the sim expr in `exprs`
  std::vector<exec::BoundExprPtr> exprs;  // absorbed projection
  /// Absorbed WHERE predicate over the scan frame; null = unfiltered.
  exec::BoundExprPtr predicate;
  /// The cost rule's choice for a filtered search: probe first and filter
  /// the probed rows (true), or filter first (false). Meaningless when
  /// `predicate` is null.
  bool post_filter = false;
  /// Secondary sort keys after the similarity (a multi-key
  /// `ORDER BY sim DESC, tiebreak, ...`): ordinal into `exprs` plus
  /// direction. The sim expression stays the primary key.
  struct ExtraKey {
    int64_t ordinal = 0;
    bool descending = false;
  };
  std::vector<ExtraKey> extra_keys;
  std::string Describe() const override;
};

/// Streaming micro-batch stage around a batchable-model-bearing operator
/// (Filter/Project with only batchable UDF calls, or a batchable TVF).
/// Synthesized by `BuildPipelines` — never produced by the binder — so it
/// appears in EXPLAIN PIPELINES, not in the logical tree. Execution slices
/// each morsel into `batch_rows`-row tensor batches, runs the wrapped
/// operator's forward per batch, and reassembles outputs in slice order;
/// row-locality (the batchable contract) makes the reassembly bit-identical
/// to evaluating the whole morsel at once. `wrapped` points into the
/// compiled plan tree (same lifetime); ModelEvalNode itself is owned by
/// the PipelinePlan that synthesized it.
struct ModelEvalNode : LogicalNode {
  ModelEvalNode() : LogicalNode(NodeKind::kModelEval) {}
  const LogicalNode* wrapped = nullptr;
  int64_t batch_rows = udf::kDefaultModelBatchRows;
  std::string Describe() const override;
};

// ---- DDL / DML nodes --------------------------------------------------------
//
// All four execute as root pipeline breakers: the write delta (appended
// rows, matching positions, new values) is computed against the run's
// immutable catalog snapshot — concurrent readers are never blocked and
// never see a half-applied write — then installed via
// SharedCatalog::ApplyDmlWrite, whose identity re-check turns a lost
// write-write race into a retryable ExecutionError. Each emits a single
// `rows_affected` int64 row as its result relation.

/// CREATE TABLE t (col TYPE, ...): registers an empty table. `schema` (the
/// node's output) is the rows_affected row; the created table's shape
/// lives in `table_schema` + `tensor_widths`.
struct CreateTableNode : LogicalNode {
  CreateTableNode() : LogicalNode(NodeKind::kCreateTable) {}
  std::string table_name;
  Schema table_schema;  // declared columns (name, encoding, dtype)
  /// Per column: 0 for scalar columns, d for a TENSOR(d) embedding column
  /// (a [n, d] float32 plain column).
  std::vector<int64_t> tensor_widths;
  std::string Describe() const override;
};

/// INSERT INTO t [(cols)] VALUES (...), ... | SELECT ... — VALUES rows
/// live in `rows` (childless); the SELECT form plans its source as
/// children[0] and leaves `rows` empty. `column_map[i]` is the target
/// column index of value position i; a statement must supply every column
/// exactly once (the engine has no default values), but may reorder.
struct InsertNode : LogicalNode {
  InsertNode() : LogicalNode(NodeKind::kInsert) {}
  std::string table_name;
  std::vector<int64_t> column_map;
  std::vector<std::vector<exec::BoundExprPtr>> rows;
  std::string Describe() const override;
};

/// UPDATE t SET col = expr, ... [WHERE pred]: children[0] scans the full
/// table; assignment expressions and the predicate are bound against its
/// schema and evaluated over the OLD rows (standard SQL semantics).
struct UpdateNode : LogicalNode {
  UpdateNode() : LogicalNode(NodeKind::kUpdate) {}
  std::string table_name;
  std::vector<std::pair<int64_t, exec::BoundExprPtr>> assignments;
  exec::BoundExprPtr predicate;  // null = every row
  std::string Describe() const override;
};

/// DELETE FROM t [WHERE pred]: children[0] scans the full table. Executes
/// as a deleted-row bitmap update — no compaction, physical ids stable.
struct DeleteNode : LogicalNode {
  DeleteNode() : LogicalNode(NodeKind::kDelete) {}
  std::string table_name;
  exec::BoundExprPtr predicate;  // null = every row
  std::string Describe() const override;
};

/// Invokes `fn` on every bound expression attached to `node` itself (not
/// its children): filter predicates, project/group/aggregate expressions,
/// join residuals, sort keys. The single authority for "which expressions
/// hang off which node kind" — optimizer rewrites and plan analyses
/// (module collection, parameter counting) all go through it.
void ForEachExpr(const LogicalNode& node,
                 const std::function<void(const exec::BoundExpr&)>& fn);
void ForEachExpr(LogicalNode& node,
                 const std::function<void(exec::BoundExpr&)>& fn);

}  // namespace plan
}  // namespace tdp

#endif  // TDP_PLAN_LOGICAL_PLAN_H_
