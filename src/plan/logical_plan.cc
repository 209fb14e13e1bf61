#include "src/plan/logical_plan.h"

#include <sstream>

namespace tdp {
namespace plan {

std::string SchemaToString(const Schema& schema) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) os << ", ";
    os << schema[i].name;
  }
  os << "]";
  return os.str();
}

std::string_view NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kScan:
      return "Scan";
    case NodeKind::kTvfScan:
      return "TvfScan";
    case NodeKind::kFilter:
      return "Filter";
    case NodeKind::kProject:
      return "Project";
    case NodeKind::kAggregate:
      return "Aggregate";
    case NodeKind::kJoin:
      return "Join";
    case NodeKind::kSort:
      return "Sort";
    case NodeKind::kLimit:
      return "Limit";
    case NodeKind::kDistinct:
      return "Distinct";
    case NodeKind::kIndexTopK:
      return "IndexTopK";
    case NodeKind::kModelEval:
      return "ModelEval";
    case NodeKind::kCreateTable:
      return "CreateTable";
    case NodeKind::kInsert:
      return "Insert";
    case NodeKind::kUpdate:
      return "Update";
    case NodeKind::kDelete:
      return "Delete";
  }
  return "Unknown";
}

std::string_view AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

std::string LogicalNode::ToString(int indent) const {
  std::ostringstream os;
  for (int i = 0; i < indent; ++i) os << "  ";
  os << Describe() << " -> " << SchemaToString(schema) << "\n";
  for (const auto& child : children) os << child->ToString(indent + 1);
  return os.str();
}

std::string ScanNode::Describe() const {
  std::string out = "Scan(" + table_name;
  if (!projected_columns.empty()) {
    out += ", cols=" + std::to_string(projected_columns.size());
  }
  return out + ")";
}

std::string TvfScanNode::Describe() const {
  return "TvfScan(" + (fn != nullptr ? fn->name : "?") + ")";
}

std::string FilterNode::Describe() const {
  return "Filter(" + predicate->display_name + ")";
}

std::string ProjectNode::Describe() const {
  return "Project(" + std::to_string(exprs.size()) + " exprs)";
}

std::string AggregateNode::Describe() const {
  std::ostringstream os;
  os << "Aggregate(groups=" << group_exprs.size() << ", aggs=[";
  for (size_t i = 0; i < aggregates.size(); ++i) {
    if (i > 0) os << ", ";
    os << AggKindName(aggregates[i].kind);
  }
  os << "])";
  return os.str();
}

std::string JoinNode::Describe() const {
  return std::string("Join(") +
         (join_type == sql::JoinType::kInner ? "inner" : "left") +
         ", keys=" + std::to_string(left_keys.size()) +
         (residual ? ", residual" : "") +
         (build_left ? ", build=left" : "") + ")";
}

std::string SortNode::Describe() const {
  std::string out = "Sort(" + std::to_string(items.size()) + " keys";
  if (fused_limit >= 0) out += ", topk=" + std::to_string(fused_limit);
  return out + ")";
}

std::string LimitNode::Describe() const {
  return "Limit(" + std::to_string(limit) + ", offset=" +
         std::to_string(offset) + ")";
}

std::string DistinctNode::Describe() const { return "Distinct"; }

std::string IndexTopKNode::Describe() const {
  // Filtered searches render their cost-rule strategy (and predicate) so
  // EXPLAIN shows whether the plan filters or probes first.
  std::string out =
      predicate ? std::string("FilteredIndexTopK(strategy=") +
                      (post_filter ? "post_filter" : "pre_filter") + ", "
                : "IndexTopK(";
  out += table_name + "." + column_name + ", k=" + std::to_string(k) +
         ", sim=" + exprs[static_cast<size_t>(sim_ordinal)]->display_name;
  if (predicate) out += ", where=" + predicate->display_name;
  if (!extra_keys.empty()) {
    out += ", tiebreak=" + std::to_string(extra_keys.size());
  }
  return out + ")";
}

std::string ModelEvalNode::Describe() const {
  return "ModelEval(batch=" + std::to_string(batch_rows) + "): " +
         (wrapped != nullptr ? wrapped->Describe() : std::string("?"));
}

std::string CreateTableNode::Describe() const {
  return "CreateTable(" + table_name + ", " +
         std::to_string(table_schema.size()) + " cols)";
}

std::string InsertNode::Describe() const {
  return "Insert(" + table_name + ", " +
         (children.empty() ? std::to_string(rows.size()) + " rows"
                           : std::string("from select")) +
         ")";
}

std::string UpdateNode::Describe() const {
  return "Update(" + table_name + ", " + std::to_string(assignments.size()) +
         " cols" + (predicate ? ", where" : "") + ")";
}

std::string DeleteNode::Describe() const {
  return "Delete(" + table_name + (predicate ? ", where" : "") + ")";
}

void ForEachExpr(const LogicalNode& node,
                 const std::function<void(const exec::BoundExpr&)>& fn) {
  switch (node.kind) {
    case NodeKind::kFilter:
      fn(*static_cast<const FilterNode&>(node).predicate);
      return;
    case NodeKind::kProject:
      for (const auto& e : static_cast<const ProjectNode&>(node).exprs) {
        fn(*e);
      }
      return;
    case NodeKind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(node);
      for (const auto& e : agg.group_exprs) fn(*e);
      for (const auto& d : agg.aggregates) {
        if (d.arg) fn(*d.arg);
      }
      return;
    }
    case NodeKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(node);
      if (join.residual) fn(*join.residual);
      return;
    }
    case NodeKind::kSort:
      for (const auto& item : static_cast<const SortNode&>(node).items) {
        fn(*item.expr);
      }
      return;
    case NodeKind::kIndexTopK: {
      const auto& topk = static_cast<const IndexTopKNode&>(node);
      for (const auto& e : topk.exprs) fn(*e);
      if (topk.predicate) fn(*topk.predicate);
      return;
    }
    case NodeKind::kInsert:
      for (const auto& row : static_cast<const InsertNode&>(node).rows) {
        for (const auto& e : row) fn(*e);
      }
      return;
    case NodeKind::kUpdate: {
      const auto& update = static_cast<const UpdateNode&>(node);
      for (const auto& [col, e] : update.assignments) {
        (void)col;
        fn(*e);
      }
      if (update.predicate) fn(*update.predicate);
      return;
    }
    case NodeKind::kDelete: {
      const auto& del = static_cast<const DeleteNode&>(node);
      if (del.predicate) fn(*del.predicate);
      return;
    }
    case NodeKind::kModelEval: {
      // The micro-batch stage owns no expressions of its own; they hang
      // off the operator it wraps.
      const auto& me = static_cast<const ModelEvalNode&>(node);
      if (me.wrapped != nullptr) ForEachExpr(*me.wrapped, fn);
      return;
    }
    case NodeKind::kScan:
    case NodeKind::kTvfScan:
    case NodeKind::kLimit:
    case NodeKind::kDistinct:
    case NodeKind::kCreateTable:
      return;
  }
}

void ForEachExpr(LogicalNode& node,
                 const std::function<void(exec::BoundExpr&)>& fn) {
  // The expression slots of a mutable node are themselves mutable; reuse
  // the const traversal rather than maintaining the switch twice.
  ForEachExpr(static_cast<const LogicalNode&>(node),
              [&fn](const exec::BoundExpr& e) {
                fn(const_cast<exec::BoundExpr&>(e));
              });
}

}  // namespace plan
}  // namespace tdp
