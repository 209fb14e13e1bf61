#include "src/plan/optimizer.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>

#include "src/plan/pipeline.h"
#include "src/storage/catalog.h"

namespace tdp {
namespace plan {
namespace {

using exec::BoundBinary;
using exec::BoundCase;
using exec::BoundColumnRef;
using exec::BoundExpr;
using exec::BoundExprPtr;
using exec::BoundUdfCall;
using exec::BoundUnary;

// ---- Expression utilities ---------------------------------------------------

void CollectColumnRefs(const BoundExpr& e, std::set<int64_t>& out) {
  switch (e.kind) {
    case exec::BoundExprKind::kColumnRef:
      out.insert(static_cast<const BoundColumnRef&>(e).column_index);
      return;
    case exec::BoundExprKind::kBinary: {
      const auto& b = static_cast<const BoundBinary&>(e);
      CollectColumnRefs(*b.left, out);
      CollectColumnRefs(*b.right, out);
      return;
    }
    case exec::BoundExprKind::kUnary:
      CollectColumnRefs(*static_cast<const BoundUnary&>(e).operand, out);
      return;
    case exec::BoundExprKind::kUdfCall:
      for (const auto& a : static_cast<const BoundUdfCall&>(e).args) {
        CollectColumnRefs(*a, out);
      }
      return;
    case exec::BoundExprKind::kCase: {
      const auto& c = static_cast<const BoundCase&>(e);
      for (const auto& [when, then] : c.branches) {
        CollectColumnRefs(*when, out);
        CollectColumnRefs(*then, out);
      }
      if (c.else_expr) CollectColumnRefs(*c.else_expr, out);
      return;
    }
    case exec::BoundExprKind::kVectorSim: {
      const auto& v = static_cast<const exec::BoundVectorSim&>(e);
      CollectColumnRefs(*v.column, out);
      CollectColumnRefs(*v.query, out);
      return;
    }
    case exec::BoundExprKind::kLiteral:
    case exec::BoundExprKind::kParameter:
      return;
  }
}

void RemapColumnRefs(BoundExpr& e, const std::vector<int64_t>& old_to_new) {
  switch (e.kind) {
    case exec::BoundExprKind::kColumnRef: {
      auto& ref = static_cast<BoundColumnRef&>(e);
      ref.column_index = old_to_new[static_cast<size_t>(ref.column_index)];
      return;
    }
    case exec::BoundExprKind::kBinary: {
      auto& b = static_cast<BoundBinary&>(e);
      RemapColumnRefs(*b.left, old_to_new);
      RemapColumnRefs(*b.right, old_to_new);
      return;
    }
    case exec::BoundExprKind::kUnary:
      RemapColumnRefs(*static_cast<BoundUnary&>(e).operand, old_to_new);
      return;
    case exec::BoundExprKind::kUdfCall:
      for (auto& a : static_cast<BoundUdfCall&>(e).args) {
        RemapColumnRefs(*a, old_to_new);
      }
      return;
    case exec::BoundExprKind::kCase: {
      auto& c = static_cast<BoundCase&>(e);
      for (auto& [when, then] : c.branches) {
        RemapColumnRefs(*when, old_to_new);
        RemapColumnRefs(*then, old_to_new);
      }
      if (c.else_expr) RemapColumnRefs(*c.else_expr, old_to_new);
      return;
    }
    case exec::BoundExprKind::kVectorSim: {
      auto& v = static_cast<exec::BoundVectorSim&>(e);
      RemapColumnRefs(*v.column, old_to_new);
      RemapColumnRefs(*v.query, old_to_new);
      return;
    }
    case exec::BoundExprKind::kLiteral:
    case exec::BoundExprKind::kParameter:
      return;
  }
}

// ---- Rule 1: fuse Limit into Sort -------------------------------------------

LogicalNodePtr FuseLimitIntoSort(LogicalNodePtr node) {
  for (auto& child : node->children) {
    child = FuseLimitIntoSort(std::move(child));
  }
  if (node->kind != NodeKind::kLimit) return node;
  auto& limit = static_cast<LimitNode&>(*node);
  if (limit.limit < 0) return node;
  // Look through the hidden-sort-column cleanup Project, if present.
  LogicalNode* below = limit.children[0].get();
  if (below->kind == NodeKind::kProject && !below->children.empty() &&
      below->children[0]->kind == NodeKind::kSort) {
    below = below->children[0].get();
  }
  if (below->kind != NodeKind::kSort) return node;
  auto& sort = static_cast<SortNode&>(*below);
  // The sort keeps offset+limit rows; the Limit then applies the offset.
  sort.fused_limit = limit.offset + limit.limit;
  if (limit.offset == 0) {
    // The top-k sort already yields exactly `limit` rows, so the Limit node
    // is redundant — drop it (keeping the cleanup projection when present).
    return std::move(node->children[0]);
  }
  return node;
}

// ---- Rule 2: push single-side filter conjuncts below a join -----------------

void SplitConjuncts(BoundExprPtr expr, std::vector<BoundExprPtr>& out) {
  if (expr->kind == exec::BoundExprKind::kBinary) {
    auto* b = static_cast<BoundBinary*>(expr.get());
    if (b->op == sql::BinaryOp::kAnd) {
      SplitConjuncts(std::move(b->left), out);
      SplitConjuncts(std::move(b->right), out);
      return;
    }
  }
  out.push_back(std::move(expr));
}

BoundExprPtr CombineConjuncts(std::vector<BoundExprPtr> conjuncts) {
  BoundExprPtr result;
  for (auto& c : conjuncts) {
    if (!result) {
      result = std::move(c);
    } else {
      auto combined = std::make_unique<BoundBinary>(
          sql::BinaryOp::kAnd, std::move(result), std::move(c));
      combined->display_name = "and";
      result = std::move(combined);
    }
  }
  return result;
}

LogicalNodePtr PushFilterIntoJoin(LogicalNodePtr node) {
  for (auto& child : node->children) {
    child = PushFilterIntoJoin(std::move(child));
  }
  if (node->kind != NodeKind::kFilter ||
      node->children[0]->kind != NodeKind::kJoin) {
    return node;
  }
  auto& filter = static_cast<FilterNode&>(*node);
  auto& join = static_cast<JoinNode&>(*filter.children[0]);
  if (join.join_type != sql::JoinType::kInner) return node;

  const int64_t left_size =
      static_cast<int64_t>(join.children[0]->schema.size());
  const int64_t total = static_cast<int64_t>(join.schema.size());

  std::vector<BoundExprPtr> conjuncts;
  SplitConjuncts(std::move(filter.predicate), conjuncts);

  std::vector<BoundExprPtr> keep;
  std::vector<BoundExprPtr> to_left;
  std::vector<BoundExprPtr> to_right;
  for (auto& conjunct : conjuncts) {
    std::set<int64_t> refs;
    CollectColumnRefs(*conjunct, refs);
    const bool all_left =
        std::all_of(refs.begin(), refs.end(),
                    [&](int64_t i) { return i < left_size; });
    const bool all_right =
        std::all_of(refs.begin(), refs.end(),
                    [&](int64_t i) { return i >= left_size; });
    if (!refs.empty() && all_left) {
      to_left.push_back(std::move(conjunct));
    } else if (!refs.empty() && all_right) {
      // Shift refs into the right child's frame.
      std::vector<int64_t> old_to_new(static_cast<size_t>(total), -1);
      for (int64_t i = left_size; i < total; ++i) {
        old_to_new[static_cast<size_t>(i)] = i - left_size;
      }
      RemapColumnRefs(*conjunct, old_to_new);
      to_right.push_back(std::move(conjunct));
    } else {
      keep.push_back(std::move(conjunct));
    }
  }

  auto add_filter = [](LogicalNodePtr child,
                       std::vector<BoundExprPtr> preds) -> LogicalNodePtr {
    if (preds.empty()) return child;
    auto f = std::make_unique<FilterNode>();
    f->schema = child->schema;
    f->predicate = CombineConjuncts(std::move(preds));
    f->children.push_back(std::move(child));
    return f;
  };
  join.children[0] = add_filter(std::move(join.children[0]),
                                std::move(to_left));
  join.children[1] = add_filter(std::move(join.children[1]),
                                std::move(to_right));

  if (keep.empty()) {
    return std::move(filter.children[0]);  // filter fully pushed down
  }
  filter.predicate = CombineConjuncts(std::move(keep));
  return node;
}

// ---- Rule 3: scan projection pruning ----------------------------------------
//
// For a chain Project -> Filter* -> Scan or Aggregate -> Filter* -> Scan,
// narrow the scan to the columns the head (projections, or group keys and
// aggregate arguments) and the filters actually reference. Particularly
// valuable when tables carry wide tensor columns (images) that the query
// never touches, and for aggregates, whose filters otherwise gather every
// column of every morsel.

LogicalNodePtr PruneScanColumns(LogicalNodePtr node) {
  for (auto& child : node->children) {
    child = PruneScanColumns(std::move(child));
  }
  if ((node->kind != NodeKind::kProject &&
       node->kind != NodeKind::kAggregate) ||
      node->children.empty()) {
    return node;
  }
  // Walk the chain below the head.
  std::vector<LogicalNode*> chain;
  LogicalNode* cursor = node->children[0].get();
  while (cursor->kind == NodeKind::kFilter) {
    chain.push_back(cursor);
    cursor = cursor->children[0].get();
  }
  if (cursor->kind != NodeKind::kScan) return node;
  auto& scan = static_cast<ScanNode&>(*cursor);
  if (!scan.projected_columns.empty()) return node;  // already pruned

  std::set<int64_t> used;
  ForEachExpr(*node, [&](BoundExpr& e) { CollectColumnRefs(e, used); });
  for (LogicalNode* f : chain) {
    ForEachExpr(*f, [&](BoundExpr& e) { CollectColumnRefs(e, used); });
  }
  if (used.empty()) {
    // Literal-only projections (`SELECT 1 FROM t`) and `COUNT(*)`
    // reference no columns, but the scan must still produce the table's
    // row count — a zero-column chunk reports 0 rows. Keep the cheapest
    // column: any non-tensor column beats any tensor column (per-row
    // widths are unknown at plan time, so among tensors only the element
    // size can break ties).
    int64_t keep = 0;
    int64_t best_cost = std::numeric_limits<int64_t>::max();
    constexpr int64_t kTensorPenalty = int64_t{1} << 32;
    for (size_t i = 0; i < scan.schema.size(); ++i) {
      const ColumnMeta& meta = scan.schema[i];
      const int64_t cost =
          (meta.is_tensor ? kTensorPenalty : 0) + DTypeSize(meta.dtype);
      if (cost < best_cost) {
        best_cost = cost;
        keep = static_cast<int64_t>(i);
      }
    }
    used.insert(keep);
  }
  if (used.size() == scan.schema.size()) return node;  // nothing to prune

  std::vector<int64_t> old_to_new(scan.schema.size(), -1);
  Schema new_schema;
  for (int64_t old : used) {
    old_to_new[static_cast<size_t>(old)] =
        static_cast<int64_t>(scan.projected_columns.size());
    scan.projected_columns.push_back(old);
    new_schema.push_back(scan.schema[static_cast<size_t>(old)]);
  }
  scan.schema = new_schema;
  for (LogicalNode* f : chain) {
    f->schema = new_schema;
    ForEachExpr(*f, [&](BoundExpr& e) { RemapColumnRefs(e, old_to_new); });
  }
  ForEachExpr(*node, [&](BoundExpr& e) { RemapColumnRefs(e, old_to_new); });
  return node;
}

// ---- Predicate selectivity heuristics ---------------------------------------
//
// System-R-style magic constants over a bound predicate tree — the engine
// keeps no table statistics, so the estimate is shape-driven: equality
// keeps 1/10 of the rows (or 1/|dictionary| when the compared column's
// dictionary cardinality is known), ranges keep 3/10, inequality keeps
// 9/10, conjunctions multiply, disjunctions add minus the overlap, NOT
// complements. Everything else (UDFs, parameters, bare booleans) is an
// agnostic 1/2. Feeds both `EstimateSubtreeRows` (join build-side choice)
// and the FilteredIndexTopK strategy cost rule.

// Dictionary cardinality of the column `e` references, or 0 when `e` is
// not a dictionary column ref / no table context is available. `schema`
// is the frame `e` is bound against (a scan output), `table` the scanned
// table resolved from the catalog; either may be null.
int64_t DictionaryCardinality(const BoundExpr& e, const Schema* schema,
                              const Table* table) {
  if (e.kind != exec::BoundExprKind::kColumnRef || schema == nullptr ||
      table == nullptr) {
    return 0;
  }
  const int64_t i = static_cast<const BoundColumnRef&>(e).column_index;
  if (i < 0 || i >= static_cast<int64_t>(schema->size()) ||
      (*schema)[static_cast<size_t>(i)].encoding != Encoding::kDictionary) {
    return 0;
  }
  auto col = table->ColumnIndex((*schema)[static_cast<size_t>(i)].name);
  if (!col.ok()) return 0;
  return static_cast<int64_t>(table->column(*col).dictionary().size());
}

double EstimateSelectivity(const BoundExpr& e, const Schema* schema,
                           const Table* table) {
  switch (e.kind) {
    case exec::BoundExprKind::kBinary: {
      const auto& b = static_cast<const BoundBinary&>(e);
      const auto left = [&] {
        return EstimateSelectivity(*b.left, schema, table);
      };
      const auto right = [&] {
        return EstimateSelectivity(*b.right, schema, table);
      };
      switch (b.op) {
        case sql::BinaryOp::kAnd:
          return left() * right();
        case sql::BinaryOp::kOr: {
          const double l = left();
          const double r = right();
          return l + r - l * r;
        }
        case sql::BinaryOp::kEq: {
          // `dict_col = constant` keeps 1/|dictionary| of the rows under a
          // uniformity assumption; without a known domain fall back to the
          // classic 1/10.
          const int64_t cardinality =
              std::max(DictionaryCardinality(*b.left, schema, table),
                       DictionaryCardinality(*b.right, schema, table));
          return cardinality > 0 ? 1.0 / static_cast<double>(cardinality)
                                 : 0.1;
        }
        case sql::BinaryOp::kNe:
          return 0.9;
        case sql::BinaryOp::kLt:
        case sql::BinaryOp::kLe:
        case sql::BinaryOp::kGt:
        case sql::BinaryOp::kGe:
          return 0.3;
        default:
          return 0.5;  // arithmetic in boolean position: no idea
      }
    }
    case exec::BoundExprKind::kUnary: {
      const auto& u = static_cast<const BoundUnary&>(e);
      if (u.op == sql::UnaryOp::kNot) {
        return 1.0 - EstimateSelectivity(*u.operand, schema, table);
      }
      return 0.5;
    }
    default:
      return 0.5;
  }
}

// ---- Join build-side choice -------------------------------------------------

// Expected-cardinality estimate of a subtree: the row count of the base
// table it scans, discounted by filter selectivities and capped by
// limits; -1 when unknown (TVFs, joins, aggregates change cardinality
// unpredictably).
int64_t EstimateSubtreeRows(const LogicalNode& node, const Catalog& catalog) {
  switch (node.kind) {
    case NodeKind::kScan: {
      auto table =
          catalog.GetTable(static_cast<const ScanNode&>(node).table_name);
      return table.ok() ? (*table)->num_rows() : -1;
    }
    case NodeKind::kFilter: {
      if (node.children.empty()) return -1;
      const int64_t child = EstimateSubtreeRows(*node.children[0], catalog);
      if (child < 0) return child;
      // Dictionary-cardinality context when the filter sits on a scan
      // (the common post-pushdown shape); shape heuristics otherwise.
      const Schema* schema = nullptr;
      std::shared_ptr<Table> table;
      if (node.children[0]->kind == NodeKind::kScan) {
        schema = &node.children[0]->schema;
        auto resolved = catalog.GetTable(
            static_cast<const ScanNode&>(*node.children[0]).table_name);
        if (resolved.ok()) table = *resolved;
      }
      const double s = EstimateSelectivity(
          *static_cast<const FilterNode&>(node).predicate, schema,
          table.get());
      return std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(child) * s));
    }
    case NodeKind::kProject:
    case NodeKind::kSort:
    case NodeKind::kDistinct:
      return node.children.empty()
                 ? -1
                 : EstimateSubtreeRows(*node.children[0], catalog);
    case NodeKind::kLimit: {
      const auto& limit = static_cast<const LimitNode&>(node);
      const int64_t child =
          node.children.empty()
              ? -1
              : EstimateSubtreeRows(*node.children[0], catalog);
      if (limit.limit < 0) return child;
      return child < 0 ? limit.limit : std::min(child, limit.limit);
    }
    default:
      // kIndexTopK never appears here: RewriteIndexTopK runs AFTER
      // ChooseJoinBuildSides (this function's only caller) in Optimize.
      return -1;
  }
}

// Hash joins build over their right child by default (a deterministic,
// compile-time choice — streaming execution must know which side to
// materialize before any row counts exist). When the left input is
// estimated smaller from base-table sizes, flip the build side so a tiny
// dimension table on the left is hashed instead of the big probe stream.
// Ties and unknowns keep the canonical right build.
void ChooseJoinBuildSides(LogicalNode& node, const Catalog& catalog) {
  for (auto& child : node.children) ChooseJoinBuildSides(*child, catalog);
  if (node.kind != NodeKind::kJoin) return;
  auto& join = static_cast<JoinNode&>(node);
  const int64_t left = EstimateSubtreeRows(*node.children[0], catalog);
  const int64_t right = EstimateSubtreeRows(*node.children[1], catalog);
  join.build_left = left >= 0 && right >= 0 && left < right;
}

// ---- Rule 5: index-accelerated top-k similarity -----------------------------
//
// Rewrites `Sort(sim DESC [, tiebreaks], fused_limit=k) <- Project(...,
// sim, ...) <- Filter* <- Scan(t)` into an IndexTopKNode when the catalog
// holds a (still-valid) vector index on the similarity's embedding
// column. Preconditions, each of which keeps the rewrite
// semantics-preserving:
//   - the Sort has a fused LIMIT and its FIRST key is descending — a full
//     sort (no LIMIT) or an ascending primary order is not a top-k
//     search; secondary keys of either direction are absorbed as exact
//     candidate tie-breaks (`extra_keys`);
//   - every sort key is a column ref into the Project, and the primary
//     projected expression is dot()/cosine_sim() over a Scan column with
//     a constant (column-free) query — the index can only prune by a
//     per-row score against one fixed vector;
//   - between Project and Scan only Filter nodes appear, none of whose
//     predicates (nor any project expression) calls a scalar UDF — UDF
//     bodies are whole-batch programs, and IndexTopK evaluates
//     expressions over candidate subsets only. The predicates are
//     absorbed into the node (ANDed; all are bound against the scan
//     frame) and a cost rule picks the filtered-search strategy from the
//     predicate's estimated selectivity:
//       selectivity < 1/2 -> pre_filter (filter first; probe only when
//                            more than k rows survive),
//       otherwise         -> post_filter (probe, then filter, widening
//                            to a survivor floor).
// Anything above the Sort (OFFSET Limit, hidden-sort-column cleanup
// Project) is untouched: IndexTopK emits exactly the rows the fused Sort
// would have (an OFFSET arrives here pre-fused as k = offset + limit).
bool ExprIsConstant(const BoundExpr& e) {
  std::set<int64_t> refs;
  CollectColumnRefs(e, refs);
  return refs.empty();
}

LogicalNodePtr RewriteIndexTopK(LogicalNodePtr node, const Catalog& catalog) {
  for (auto& child : node->children) {
    child = RewriteIndexTopK(std::move(child), catalog);
  }
  if (node->kind != NodeKind::kSort) return node;
  auto& sort = static_cast<SortNode&>(*node);
  if (sort.fused_limit < 0 || sort.items.empty() ||
      !sort.items[0].descending) {
    return node;
  }
  for (const SortItem& item : sort.items) {
    if (item.expr->kind != exec::BoundExprKind::kColumnRef) return node;
  }
  if (sort.children[0]->kind != NodeKind::kProject) return node;
  auto& project = static_cast<ProjectNode&>(*sort.children[0]);
  if (project.children.empty() || NodeUsesUdf(project)) return node;
  // Walk the Filter chain (if any) down to the Scan. Filter schemas equal
  // the scan output (PruneScanColumns keeps them consistent), so their
  // predicates share the project expressions' frame.
  std::vector<FilterNode*> filters;
  LogicalNode* below = project.children[0].get();
  while (below->kind == NodeKind::kFilter) {
    auto* filter = static_cast<FilterNode*>(below);
    if (NodeUsesUdf(*filter)) return node;
    filters.push_back(filter);
    below = below->children[0].get();
  }
  if (below->kind != NodeKind::kScan) return node;
  const auto& scan = static_cast<const ScanNode&>(*below);
  const int64_t sim_ordinal =
      static_cast<const BoundColumnRef&>(*sort.items[0].expr).column_index;
  if (sim_ordinal < 0 ||
      sim_ordinal >= static_cast<int64_t>(project.exprs.size())) {
    return node;
  }
  const BoundExpr& key = *project.exprs[static_cast<size_t>(sim_ordinal)];
  if (key.kind != exec::BoundExprKind::kVectorSim) return node;
  const auto& sim = static_cast<const exec::BoundVectorSim&>(key);
  if (sim.column->kind != exec::BoundExprKind::kColumnRef ||
      !ExprIsConstant(*sim.query)) {
    return node;
  }
  std::vector<IndexTopKNode::ExtraKey> extra_keys;
  for (size_t i = 1; i < sort.items.size(); ++i) {
    const int64_t ordinal =
        static_cast<const BoundColumnRef&>(*sort.items[i].expr).column_index;
    if (ordinal < 0 ||
        ordinal >= static_cast<int64_t>(project.exprs.size())) {
      return node;
    }
    extra_keys.push_back({ordinal, sort.items[i].descending});
  }
  const int64_t scan_col =
      static_cast<const BoundColumnRef&>(*sim.column).column_index;
  if (scan_col < 0 ||
      scan_col >= static_cast<int64_t>(scan.schema.size())) {
    return node;
  }
  const std::string& column_name =
      scan.schema[static_cast<size_t>(scan_col)].name;
  if (catalog.FindVectorIndex(scan.table_name, column_name) == nullptr) {
    return node;  // no (valid) index: keep the exact Sort+Limit plan
  }

  auto topk = std::make_unique<IndexTopKNode>();
  topk->schema = sort.schema;
  topk->table_name = scan.table_name;
  topk->column_name = column_name;
  topk->k = sort.fused_limit;
  topk->sim_ordinal = sim_ordinal;
  topk->extra_keys = std::move(extra_keys);
  topk->exprs = std::move(project.exprs);
  if (!filters.empty()) {
    std::vector<BoundExprPtr> conjuncts;
    for (FilterNode* filter : filters) {
      SplitConjuncts(std::move(filter->predicate), conjuncts);
    }
    topk->predicate = CombineConjuncts(std::move(conjuncts));
    // Cost rule: probe first when the predicate is estimated to keep at
    // least half the rows. The choice is compile-time state (EXPLAIN
    // renders it; plans are immutable).
    std::shared_ptr<Table> table;
    auto resolved = catalog.GetTable(scan.table_name);
    if (resolved.ok()) table = *resolved;
    topk->post_filter =
        EstimateSelectivity(*topk->predicate, &scan.schema, table.get()) >=
        0.5;
  }
  // The Scan child: the innermost filter's child when filters were
  // absorbed, the project's child otherwise.
  topk->children.push_back(
      filters.empty() ? std::move(project.children[0])
                      : std::move(filters.back()->children[0]));
  return topk;
}

}  // namespace

LogicalNodePtr Optimize(LogicalNodePtr root, const Catalog* catalog) {
  root = FuseLimitIntoSort(std::move(root));
  root = PushFilterIntoJoin(std::move(root));
  root = PruneScanColumns(std::move(root));
  if (catalog != nullptr) {
    ChooseJoinBuildSides(*root, *catalog);
    root = RewriteIndexTopK(std::move(root), *catalog);
  }
  return root;
}

LogicalNodePtr Optimize(LogicalNodePtr root) {
  return Optimize(std::move(root), nullptr);
}

}  // namespace plan
}  // namespace tdp
