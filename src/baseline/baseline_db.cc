#include "src/baseline/baseline_db.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/sql/parser.h"

namespace tdp {
namespace baseline {

using sql::BinaryExpr;
using sql::BinaryOp;
using sql::CaseExpr;
using sql::ColumnRefExpr;
using sql::Expr;
using sql::ExprKind;
using sql::FunctionCallExpr;
using sql::LiteralExpr;
using sql::LiteralKind;
using sql::SelectStatement;
using sql::TableRef;
using sql::TableRefKind;
using sql::UnaryExpr;
using sql::UnaryOp;

namespace {

double AsDouble(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) {
    return static_cast<double>(std::get<int64_t>(v));
  }
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  if (std::holds_alternative<bool>(v)) return std::get<bool>(v) ? 1.0 : 0.0;
  TDP_LOG(Fatal) << "string used as number";
  return 0;
}

bool IsNumeric(const Value& v) {
  return std::holds_alternative<int64_t>(v) ||
         std::holds_alternative<double>(v) ||
         std::holds_alternative<bool>(v);
}

}  // namespace

bool ValueEquals(const Value& a, const Value& b) {
  if (std::holds_alternative<std::string>(a) ||
      std::holds_alternative<std::string>(b)) {
    return std::holds_alternative<std::string>(a) &&
           std::holds_alternative<std::string>(b) &&
           std::get<std::string>(a) == std::get<std::string>(b);
  }
  return AsDouble(a) == AsDouble(b);
}

bool ValueLess(const Value& a, const Value& b) {
  const bool a_string = std::holds_alternative<std::string>(a);
  const bool b_string = std::holds_alternative<std::string>(b);
  // Numbers order before strings, so a mixed column still sorts.
  if (a_string != b_string) return b_string;
  if (a_string) return std::get<std::string>(a) < std::get<std::string>(b);
  return AsDouble(a) < AsDouble(b);
}

std::string ValueToString(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) {
    return std::to_string(std::get<int64_t>(v));
  }
  if (std::holds_alternative<double>(v)) {
    return std::to_string(std::get<double>(v));
  }
  if (std::holds_alternative<bool>(v)) {
    return std::get<bool>(v) ? "true" : "false";
  }
  return std::get<std::string>(v);
}

namespace {

bool IsComparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

/// `lhs op rhs`. AND/OR take bools, and strings only compare with
/// strings. Two integers add, subtract, multiply and take `%` exactly;
/// everything else computes in doubles (`%` as `std::fmod`).
StatusOr<Value> ApplyBinary(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    if (!std::holds_alternative<bool>(lhs) ||
        !std::holds_alternative<bool>(rhs)) {
      return Status::TypeError("AND/OR need boolean operands");
    }
    return Value(op == BinaryOp::kAnd
                     ? std::get<bool>(lhs) && std::get<bool>(rhs)
                     : std::get<bool>(lhs) || std::get<bool>(rhs));
  }
  const bool both_strings = !IsNumeric(lhs) && !IsNumeric(rhs);
  if ((!IsNumeric(lhs) || !IsNumeric(rhs)) &&
      !(both_strings && IsComparison(op))) {
    return Status::TypeError("a string cannot be used as a number");
  }
  switch (op) {
    case BinaryOp::kEq:
      return Value(ValueEquals(lhs, rhs));
    case BinaryOp::kNe:
      return Value(!ValueEquals(lhs, rhs));
    case BinaryOp::kLt:
      return Value(ValueLess(lhs, rhs));
    case BinaryOp::kGe:
      return Value(!ValueLess(lhs, rhs));
    case BinaryOp::kGt:
      return Value(ValueLess(rhs, lhs));
    case BinaryOp::kLe:
      return Value(!ValueLess(rhs, lhs));
    default:
      break;
  }
  const bool both_int = std::holds_alternative<int64_t>(lhs) &&
                        std::holds_alternative<int64_t>(rhs);
  const double x = AsDouble(lhs), y = AsDouble(rhs);
  switch (op) {
    case BinaryOp::kAdd:
      return both_int ? Value(std::get<int64_t>(lhs) + std::get<int64_t>(rhs))
                      : Value(x + y);
    case BinaryOp::kSub:
      return both_int ? Value(std::get<int64_t>(lhs) - std::get<int64_t>(rhs))
                      : Value(x - y);
    case BinaryOp::kMul:
      return both_int ? Value(std::get<int64_t>(lhs) * std::get<int64_t>(rhs))
                      : Value(x * y);
    case BinaryOp::kDiv:
      if (y == 0) return Status::ExecutionError("division by zero");
      return Value(x / y);
    case BinaryOp::kMod: {
      if (y == 0) return Status::ExecutionError("modulo by zero");
      if (!both_int) return Value(std::fmod(x, y));
      // INT64_MIN % -1 overflows in C++; every integer % -1 is 0.
      const int64_t yi = std::get<int64_t>(rhs);
      return Value(yi == -1 ? int64_t{0} : std::get<int64_t>(lhs) % yi);
    }
    default:
      return Status::Internal("bad binary op");
  }
}

/// `op v`: NOT takes a bool, and strings are never negated.
StatusOr<Value> ApplyUnary(UnaryOp op, const Value& v) {
  if (op == UnaryOp::kNot) {
    if (!std::holds_alternative<bool>(v)) {
      return Status::TypeError("NOT needs a boolean operand");
    }
    return Value(!std::get<bool>(v));
  }
  if (!IsNumeric(v)) return Status::TypeError("cannot negate a string");
  if (std::holds_alternative<int64_t>(v)) return Value(-std::get<int64_t>(v));
  return Value(-AsDouble(v));
}

/// Whether a WHEN, ON, WHERE or HAVING predicate holds; a non-boolean one
/// fails with the engine's error.
StatusOr<bool> Holds(const Value& v) {
  if (!std::holds_alternative<bool>(v)) {
    return Status::TypeError("predicate did not evaluate to a boolean column");
  }
  return std::get<bool>(v);
}

// Row scope during evaluation: column name -> value index, with optional
// table qualifiers.
struct RowScope {
  std::vector<std::string> names;
  std::vector<std::string> qualifiers;

  StatusOr<size_t> Find(const std::string& qualifier,
                        const std::string& name) const {
    size_t found = names.size();
    for (size_t i = 0; i < names.size(); ++i) {
      if (!EqualsIgnoreCase(names[i], name)) continue;
      if (!qualifier.empty() && !EqualsIgnoreCase(qualifiers[i], qualifier)) {
        continue;
      }
      if (found != names.size()) {
        return Status::BindError("ambiguous column: " + name);
      }
      found = i;
    }
    if (found == names.size()) {
      return Status::BindError("column not found: " + name);
    }
    return found;
  }
};

class Executor {
 public:
  explicit Executor(const BaselineDb& db) : db_(db) {}

  StatusOr<BaselineTable> Execute(const SelectStatement& stmt);

 private:
  struct Relation {
    RowScope scope;
    std::vector<std::vector<Value>> rows;
  };

  StatusOr<Relation> ExecuteFrom(const TableRef& ref);

  StatusOr<Value> Eval(const Expr& e, const RowScope& scope,
                       const std::vector<Value>& row) const;

  // Collects aggregate calls in `e` into `aggs` (deduplicated by text).
  static void CollectAggregates(const Expr& e,
                                std::vector<const FunctionCallExpr*>& aggs);

  // Evaluates a post-aggregation expression where aggregate results and
  // group keys are pre-bound in `scope`/`row`.
  StatusOr<Value> EvalPostAgg(const Expr& e, const RowScope& group_scope,
                              const std::vector<Value>& group_row) const;

  const BaselineDb& db_;
};

bool IsAggregateCall(const Expr& e) {
  if (e.kind != ExprKind::kFunctionCall) return false;
  const auto& f = static_cast<const FunctionCallExpr&>(e);
  return f.function_name == "count" || f.function_name == "sum" ||
         f.function_name == "avg" || f.function_name == "min" ||
         f.function_name == "max";
}

bool HasAggregate(const Expr& e) {
  if (IsAggregateCall(e)) return true;
  switch (e.kind) {
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      return HasAggregate(*b.left) || HasAggregate(*b.right);
    }
    case ExprKind::kUnary:
      return HasAggregate(*static_cast<const UnaryExpr&>(e).operand);
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(e);
      for (const auto& [w, t] : c.branches) {
        if (HasAggregate(*w) || HasAggregate(*t)) return true;
      }
      return c.else_expr && HasAggregate(*c.else_expr);
    }
    default:
      return false;
  }
}

void Executor::CollectAggregates(const Expr& e,
                                 std::vector<const FunctionCallExpr*>& aggs) {
  if (IsAggregateCall(e)) {
    const auto& f = static_cast<const FunctionCallExpr&>(e);
    for (const auto* existing : aggs) {
      if (EqualsIgnoreCase(existing->ToString(), f.ToString())) return;
    }
    aggs.push_back(&f);
    return;
  }
  switch (e.kind) {
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      CollectAggregates(*b.left, aggs);
      CollectAggregates(*b.right, aggs);
      return;
    }
    case ExprKind::kUnary:
      CollectAggregates(*static_cast<const UnaryExpr&>(e).operand, aggs);
      return;
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(e);
      for (const auto& [w, t] : c.branches) {
        CollectAggregates(*w, aggs);
        CollectAggregates(*t, aggs);
      }
      if (c.else_expr) CollectAggregates(*c.else_expr, aggs);
      return;
    }
    default:
      return;
  }
}

StatusOr<Value> Executor::Eval(const Expr& e, const RowScope& scope,
                               const std::vector<Value>& row) const {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      const auto& c = static_cast<const ColumnRefExpr&>(e);
      TDP_ASSIGN_OR_RETURN(size_t idx, scope.Find(c.table_name, c.column_name));
      return row[idx];
    }
    case ExprKind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(e);
      switch (lit.literal_kind) {
        case LiteralKind::kInteger:
          return Value(static_cast<int64_t>(lit.number_value));
        case LiteralKind::kFloat:
          return Value(lit.number_value);
        case LiteralKind::kString:
          return Value(lit.string_value);
        case LiteralKind::kBoolean:
          return Value(lit.bool_value);
        case LiteralKind::kNull:
          return Status::Unimplemented("NULL literals");
      }
      return Status::Internal("bad literal");
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      TDP_ASSIGN_OR_RETURN(Value lhs, Eval(*b.left, scope, row));
      TDP_ASSIGN_OR_RETURN(Value rhs, Eval(*b.right, scope, row));
      return ApplyBinary(b.op, lhs, rhs);
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      TDP_ASSIGN_OR_RETURN(Value v, Eval(*u.operand, scope, row));
      return ApplyUnary(u.op, v);
    }
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(e);
      for (const auto& [when, then] : c.branches) {
        TDP_ASSIGN_OR_RETURN(Value cond, Eval(*when, scope, row));
        TDP_ASSIGN_OR_RETURN(bool taken, Holds(cond));
        if (taken) return Eval(*then, scope, row);
      }
      if (c.else_expr) return Eval(*c.else_expr, scope, row);
      return Value(static_cast<int64_t>(0));
    }
    case ExprKind::kFunctionCall:
      return Status::Unimplemented(
          "BaselineDB has no scalar functions (by design)");
    case ExprKind::kStar:
      return Status::BindError("'*' outside SELECT list");
    case ExprKind::kParameter:
      return Status::Unimplemented(
          "BaselineDB does not support prepared-statement parameters");
  }
  return Status::Internal("bad expr");
}

StatusOr<Executor::Relation> Executor::ExecuteFrom(const TableRef& ref) {
  switch (ref.kind) {
    case TableRefKind::kBaseTable: {
      const auto& base = static_cast<const sql::BaseTableRef&>(ref);
      TDP_ASSIGN_OR_RETURN(const BaselineTable* table,
                           db_.GetTable(base.table_name));
      Relation rel;
      rel.scope.names = table->column_names;
      rel.scope.qualifiers.assign(
          table->column_names.size(),
          ref.alias.empty() ? base.table_name : ref.alias);
      rel.rows = table->rows;
      return rel;
    }
    case TableRefKind::kSubquery: {
      const auto& sub = static_cast<const sql::SubqueryRef&>(ref);
      TDP_ASSIGN_OR_RETURN(BaselineTable table, Execute(*sub.subquery));
      Relation rel;
      rel.scope.names = table.column_names;
      rel.scope.qualifiers.assign(table.column_names.size(), ref.alias);
      rel.rows = std::move(table.rows);
      return rel;
    }
    case TableRefKind::kJoin: {
      const auto& join = static_cast<const sql::JoinRef&>(ref);
      if (join.join_type != sql::JoinType::kInner) {
        return Status::Unimplemented("only INNER JOIN in BaselineDB");
      }
      TDP_ASSIGN_OR_RETURN(Relation left, ExecuteFrom(*join.left));
      TDP_ASSIGN_OR_RETURN(Relation right, ExecuteFrom(*join.right));
      Relation out;
      out.scope.names = left.scope.names;
      out.scope.qualifiers = left.scope.qualifiers;
      out.scope.names.insert(out.scope.names.end(), right.scope.names.begin(),
                             right.scope.names.end());
      out.scope.qualifiers.insert(out.scope.qualifiers.end(),
                                  right.scope.qualifiers.begin(),
                                  right.scope.qualifiers.end());
      // Nested-loop join with the ON predicate (interpreted engine).
      for (const auto& lrow : left.rows) {
        for (const auto& rrow : right.rows) {
          std::vector<Value> combined = lrow;
          combined.insert(combined.end(), rrow.begin(), rrow.end());
          TDP_ASSIGN_OR_RETURN(Value on,
                               Eval(*join.condition, out.scope, combined));
          TDP_ASSIGN_OR_RETURN(bool keep, Holds(on));
          if (keep) out.rows.push_back(std::move(combined));
        }
      }
      return out;
    }
    case TableRefKind::kTableFunction:
      return Status::Unimplemented(
          "BaselineDB has no table functions (by design)");
  }
  return Status::Internal("bad table ref");
}

StatusOr<BaselineTable> Executor::Execute(const SelectStatement& stmt) {
  Relation input;
  if (stmt.from) {
    TDP_ASSIGN_OR_RETURN(input, ExecuteFrom(*stmt.from));
  } else {
    input.rows.push_back({});  // one empty row for SELECT <exprs>
  }

  // WHERE.
  if (stmt.where) {
    std::vector<std::vector<Value>> kept;
    for (auto& row : input.rows) {
      TDP_ASSIGN_OR_RETURN(Value where, Eval(*stmt.where, input.scope, row));
      TDP_ASSIGN_OR_RETURN(bool keep, Holds(where));
      if (keep) kept.push_back(std::move(row));
    }
    input.rows = std::move(kept);
  }

  bool has_aggregates = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const auto& item : stmt.select_list) {
    if (item.expr->kind != ExprKind::kStar && HasAggregate(*item.expr)) {
      has_aggregates = true;
    }
  }

  BaselineTable result;
  std::vector<std::vector<Value>> projected;
  RowScope output_scope;

  if (has_aggregates) {
    // Group rows by the GROUP BY key tuple.
    std::map<std::vector<std::string>, std::vector<size_t>> groups;
    std::vector<std::vector<Value>> group_keys;
    for (size_t r = 0; r < input.rows.size(); ++r) {
      std::vector<std::string> key;
      std::vector<Value> key_values;
      for (const auto& g : stmt.group_by) {
        TDP_ASSIGN_OR_RETURN(Value v, Eval(*g, input.scope, input.rows[r]));
        key.push_back(ValueToString(v) + "|" +
                      std::to_string(v.index()));
        key_values.push_back(std::move(v));
      }
      auto [it, inserted] = groups.emplace(key, std::vector<size_t>{});
      it->second.push_back(r);
      if (inserted) group_keys.push_back(std::move(key_values));
    }
    // Rebuild group_keys aligned with map iteration order.
    std::vector<std::vector<size_t>> group_rows;
    std::vector<std::vector<Value>> ordered_keys;
    {
      size_t gi = 0;
      for (auto& [key, rows_idx] : groups) {
        (void)key;
        group_rows.push_back(rows_idx);
        ++gi;
      }
      // Recompute key values per group from a representative row.
      for (const auto& rows_idx : group_rows) {
        std::vector<Value> key_values;
        for (const auto& g : stmt.group_by) {
          TDP_ASSIGN_OR_RETURN(
              Value v, Eval(*g, input.scope, input.rows[rows_idx[0]]));
          key_values.push_back(std::move(v));
        }
        ordered_keys.push_back(std::move(key_values));
      }
    }
    if (stmt.group_by.empty()) {
      // Global aggregate: one group with all rows.
      group_rows.clear();
      ordered_keys.clear();
      std::vector<size_t> all;
      for (size_t r = 0; r < input.rows.size(); ++r) all.push_back(r);
      group_rows.push_back(std::move(all));
      ordered_keys.push_back({});
    }

    // Aggregate definitions from SELECT + HAVING.
    std::vector<const FunctionCallExpr*> agg_calls;
    for (const auto& item : stmt.select_list) {
      if (item.expr->kind != ExprKind::kStar) {
        CollectAggregates(*item.expr, agg_calls);
      }
    }
    if (stmt.having) CollectAggregates(*stmt.having, agg_calls);
    if (!stmt.order_by.empty()) {
      for (const auto& o : stmt.order_by) CollectAggregates(*o.expr, agg_calls);
    }

    // Post-aggregation scope: group expr strings + aggregate strings.
    RowScope group_scope;
    for (const auto& g : stmt.group_by) {
      group_scope.names.push_back(g->ToString());
      group_scope.qualifiers.emplace_back();
    }
    for (const auto* agg : agg_calls) {
      group_scope.names.push_back(agg->ToString());
      group_scope.qualifiers.emplace_back();
    }

    // Compute each group's row: keys ++ aggregate values.
    std::vector<std::vector<Value>> group_table;
    for (size_t g = 0; g < group_rows.size(); ++g) {
      std::vector<Value> grow = ordered_keys[g];
      for (const auto* agg : agg_calls) {
        double acc = 0;
        bool has = false;
        int64_t count = 0;
        std::set<std::string> distinct_seen;
        for (size_t r : group_rows[g]) {
          Value v(static_cast<int64_t>(0));
          if (!agg->is_star_arg) {
            TDP_ASSIGN_OR_RETURN(
                v, Eval(*agg->args[0], input.scope, input.rows[r]));
            if (agg->function_name != "count" && !IsNumeric(v)) {
              return Status::TypeError("cannot " + agg->function_name +
                                       " a string column");
            }
            if (agg->distinct &&
                !distinct_seen
                     .insert(ValueToString(v) + "|" +
                             std::to_string(v.index()))
                     .second) {
              continue;
            }
          }
          ++count;
          if (agg->function_name == "sum" || agg->function_name == "avg") {
            acc += AsDouble(v);
          } else if (agg->function_name == "min") {
            acc = has ? std::min(acc, AsDouble(v)) : AsDouble(v);
          } else if (agg->function_name == "max") {
            acc = has ? std::max(acc, AsDouble(v)) : AsDouble(v);
          }
          has = true;
        }
        if (agg->function_name == "count") {
          grow.emplace_back(count);
        } else if (agg->function_name == "avg") {
          grow.emplace_back(count > 0 ? acc / count : 0.0);
        } else {
          grow.emplace_back(acc);
        }
      }
      group_table.push_back(std::move(grow));
    }

    // HAVING over group rows.
    if (stmt.having) {
      std::vector<std::vector<Value>> kept;
      for (auto& grow : group_table) {
        TDP_ASSIGN_OR_RETURN(Value having,
                             EvalPostAgg(*stmt.having, group_scope, grow));
        TDP_ASSIGN_OR_RETURN(bool keep, Holds(having));
        if (keep) kept.push_back(std::move(grow));
      }
      group_table = std::move(kept);
    }

    // Project SELECT items per group.
    for (const auto& item : stmt.select_list) {
      result.column_names.push_back(
          item.alias.empty() ? item.expr->ToString() : item.alias);
      output_scope.names.push_back(result.column_names.back());
      output_scope.qualifiers.emplace_back();
    }
    for (const auto& grow : group_table) {
      std::vector<Value> out_row;
      for (const auto& item : stmt.select_list) {
        TDP_ASSIGN_OR_RETURN(Value v,
                             EvalPostAgg(*item.expr, group_scope, grow));
        out_row.push_back(std::move(v));
      }
      projected.push_back(std::move(out_row));
    }
    // ORDER BY may reference aggregates: keep group rows for sorting.
    if (!stmt.order_by.empty()) {
      std::vector<size_t> order(projected.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      // Precompute sort keys.
      std::vector<std::vector<Value>> keys(projected.size());
      for (size_t i = 0; i < projected.size(); ++i) {
        for (const auto& o : stmt.order_by) {
          // Try output scope first (aliases), then group scope.
          auto v = Eval(*o.expr, output_scope, projected[i]);
          if (!v.ok()) v = EvalPostAgg(*o.expr, group_scope, group_table[i]);
          TDP_RETURN_NOT_OK(v.status());
          keys[i].push_back(std::move(v).value());
        }
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) {
                         for (size_t k = 0; k < stmt.order_by.size(); ++k) {
                           const bool desc = stmt.order_by[k].descending;
                           if (ValueLess(keys[a][k], keys[b][k])) return !desc;
                           if (ValueLess(keys[b][k], keys[a][k])) return desc;
                         }
                         return false;
                       });
      std::vector<std::vector<Value>> sorted;
      for (size_t i : order) sorted.push_back(std::move(projected[i]));
      projected = std::move(sorted);
    }
  } else {
    // Plain projection.
    for (const auto& item : stmt.select_list) {
      if (item.expr->kind == ExprKind::kStar) {
        for (size_t i = 0; i < input.scope.names.size(); ++i) {
          result.column_names.push_back(input.scope.names[i]);
          output_scope.names.push_back(input.scope.names[i]);
          output_scope.qualifiers.push_back(input.scope.qualifiers[i]);
        }
      } else {
        std::string name = item.alias;
        if (name.empty() && item.expr->kind == ExprKind::kColumnRef) {
          name = static_cast<const ColumnRefExpr&>(*item.expr).column_name;
        }
        if (name.empty()) name = item.expr->ToString();
        result.column_names.push_back(name);
        output_scope.names.push_back(name);
        output_scope.qualifiers.emplace_back();
      }
    }
    for (const auto& row : input.rows) {
      std::vector<Value> out_row;
      for (const auto& item : stmt.select_list) {
        if (item.expr->kind == ExprKind::kStar) {
          for (const Value& v : row) out_row.push_back(v);
        } else {
          TDP_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, input.scope, row));
          out_row.push_back(std::move(v));
        }
      }
      projected.push_back(std::move(out_row));
    }
    if (!stmt.order_by.empty()) {
      std::vector<size_t> order(projected.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::vector<std::vector<Value>> keys(projected.size());
      for (size_t i = 0; i < projected.size(); ++i) {
        for (const auto& o : stmt.order_by) {
          auto v = Eval(*o.expr, output_scope, projected[i]);
          if (!v.ok()) {
            v = Eval(*o.expr, input.scope, input.rows[i]);
          }
          TDP_RETURN_NOT_OK(v.status());
          keys[i].push_back(std::move(v).value());
        }
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) {
                         for (size_t k = 0; k < stmt.order_by.size(); ++k) {
                           const bool desc = stmt.order_by[k].descending;
                           if (ValueLess(keys[a][k], keys[b][k])) return !desc;
                           if (ValueLess(keys[b][k], keys[a][k])) return desc;
                         }
                         return false;
                       });
      std::vector<std::vector<Value>> sorted;
      for (size_t i : order) sorted.push_back(std::move(projected[i]));
      projected = std::move(sorted);
    }
  }

  // DISTINCT.
  if (stmt.distinct) {
    std::set<std::string> seen;
    std::vector<std::vector<Value>> unique_rows;
    for (auto& row : projected) {
      std::string key;
      for (const Value& v : row) {
        key += ValueToString(v);
        key += "|";
        key += std::to_string(v.index());
        key += ";";
      }
      if (seen.insert(key).second) unique_rows.push_back(std::move(row));
    }
    projected = std::move(unique_rows);
  }

  // LIMIT / OFFSET.
  const int64_t offset = stmt.offset.value_or(0);
  const int64_t limit =
      stmt.limit.value_or(static_cast<int64_t>(projected.size()));
  std::vector<std::vector<Value>> final_rows;
  for (int64_t i = offset;
       i < static_cast<int64_t>(projected.size()) && i < offset + limit;
       ++i) {
    final_rows.push_back(std::move(projected[static_cast<size_t>(i)]));
  }
  result.rows = std::move(final_rows);
  return result;
}

StatusOr<Value> Executor::EvalPostAgg(const Expr& e,
                                      const RowScope& group_scope,
                                      const std::vector<Value>& group_row) const {
  // Group-expr or aggregate text match -> direct lookup.
  const std::string repr = e.ToString();
  for (size_t i = 0; i < group_scope.names.size(); ++i) {
    if (EqualsIgnoreCase(group_scope.names[i], repr)) return group_row[i];
  }
  switch (e.kind) {
    case ExprKind::kLiteral:
      return Eval(e, group_scope, group_row);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      TDP_ASSIGN_OR_RETURN(Value lhs, EvalPostAgg(*b.left, group_scope,
                                                  group_row));
      TDP_ASSIGN_OR_RETURN(Value rhs, EvalPostAgg(*b.right, group_scope,
                                                  group_row));
      return ApplyBinary(b.op, lhs, rhs);
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      TDP_ASSIGN_OR_RETURN(Value v,
                           EvalPostAgg(*u.operand, group_scope, group_row));
      return ApplyUnary(u.op, v);
    }
    default:
      return Status::BindError(
          "expression must appear in GROUP BY or an aggregate: " + repr);
  }
}

}  // namespace

Status BaselineDb::RegisterTable(const std::string& name,
                                 BaselineTable table) {
  if (name.empty()) return Status::InvalidArgument("empty table name");
  for (const auto& row : table.rows) {
    if (row.size() != table.column_names.size()) {
      return Status::InvalidArgument("ragged rows in baseline table");
    }
  }
  tables_[ToLower(name)] = std::move(table);
  return Status::OK();
}

StatusOr<const BaselineTable*> BaselineDb::GetTable(
    const std::string& name) const {
  const auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("table not found: " + name);
  return &it->second;
}

StatusOr<BaselineTable> BaselineDb::Sql(const std::string& query) const {
  TDP_ASSIGN_OR_RETURN(auto stmt, sql::Parse(query));
  Executor executor(*this);
  return executor.Execute(*stmt);
}

}  // namespace baseline
}  // namespace tdp
