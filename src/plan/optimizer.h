#ifndef TDP_PLAN_OPTIMIZER_H_
#define TDP_PLAN_OPTIMIZER_H_

#include "src/common/statusor.h"
#include "src/plan/logical_plan.h"

namespace tdp {
class Catalog;

namespace plan {

/// Rule-based plan rewriter (the role Spark/Substrait play for the paper's
/// prototype). Runs after binding, before the plan is wrapped in a
/// `CompiledQuery`. Applied rules, in order:
///
///   1. **Limit-into-sort fusion** — `ORDER BY ... LIMIT k` becomes a
///      top-k sort (`SortNode::fused_limit`), so queries like the paper's
///      top-k image search never materialize the full sorted relation.
///   2. **Filter pushdown through join** — conjuncts referencing only one
///      join side move below the join, shrinking the hashed/probed inputs;
///      cross-side conjuncts stay as the join's residual predicate.
///   3. **Scan projection pruning** — scans read only the columns the rest
///      of the plan references. This matters most when unreferenced
///      columns are image tensors: pruning them keeps them out of every
///      gather, concatenation and spill downstream of the scan.
///   4. **Join build-side choice** (needs `catalog`) — hash joins build
///      over the side with the smaller cardinality estimate (base-table
///      rows discounted by per-predicate selectivity heuristics,
///      `JoinNode::build_left`); the other side streams as the probe.
///   5. **Index top-k rewrite** (needs `catalog`) — a top-k similarity
///      sort (`ORDER BY dot(col, ?) DESC [, tiebreaks] LIMIT k` over a
///      scan, optionally under WHERE filters) becomes an `IndexTopKNode`
///      when the catalog holds a valid vector index on `col`. Filtered
///      searches absorb the predicate and carry a cost-rule strategy
///      (pre_filter below an estimated selectivity of 1/2, post_filter
///      from there). Preconditions and exactness guarantees are documented
///      at the rule; with no usable index (or after the table is
///      re-registered, which invalidates it) the plan keeps the exact
///      Sort+Limit shape.
///
/// All rules are semantics-preserving for both exact and TRAINABLE
/// (soft-operator) execution, so the same optimized plan serves training
/// and inference.
///
/// Rewrites in place; returns the (possibly replaced) root. `catalog`
/// (the binder-time snapshot) supplies table row counts for rule 4; pass
/// null to skip cardinality-based rules.
LogicalNodePtr Optimize(LogicalNodePtr root, const Catalog* catalog);
LogicalNodePtr Optimize(LogicalNodePtr root);

}  // namespace plan
}  // namespace tdp

#endif  // TDP_PLAN_OPTIMIZER_H_
