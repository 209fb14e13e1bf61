#ifndef TDP_EXEC_BOUND_EXPR_H_
#define TDP_EXEC_BOUND_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/exec/chunk.h"
#include "src/exec/value.h"
#include "src/sql/ast.h"
#include "src/udf/registry.h"

namespace tdp {
namespace exec {

// Bound (resolved) expressions: column references are indices into the
// child operator's output chunk, function names are resolved registry
// pointers. Evaluation lowers every expression to tensor ops, so the same
// expression tree is differentiable when its inputs carry autograd state.

enum class BoundExprKind {
  kColumnRef,
  kLiteral,
  kBinary,
  kUnary,
  kUdfCall,
  kCase,
  kParameter,
  kVectorSim,
};

struct BoundExpr {
  explicit BoundExpr(BoundExprKind kind) : kind(kind) {}
  virtual ~BoundExpr() = default;
  BoundExprKind kind;
  std::string display_name;  // column header when projected
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

struct BoundColumnRef : BoundExpr {
  explicit BoundColumnRef(int64_t index)
      : BoundExpr(BoundExprKind::kColumnRef), column_index(index) {}
  int64_t column_index;
};

struct BoundLiteral : BoundExpr {
  explicit BoundLiteral(ScalarValue v)
      : BoundExpr(BoundExprKind::kLiteral), value(std::move(v)) {}
  ScalarValue value;
};

struct BoundBinary : BoundExpr {
  BoundBinary(sql::BinaryOp op, BoundExprPtr left, BoundExprPtr right)
      : BoundExpr(BoundExprKind::kBinary),
        op(op),
        left(std::move(left)),
        right(std::move(right)) {}
  sql::BinaryOp op;
  BoundExprPtr left;
  BoundExprPtr right;
};

struct BoundUnary : BoundExpr {
  BoundUnary(sql::UnaryOp op, BoundExprPtr operand)
      : BoundExpr(BoundExprKind::kUnary),
        op(op),
        operand(std::move(operand)) {}
  sql::UnaryOp op;
  BoundExprPtr operand;
};

struct BoundUdfCall : BoundExpr {
  BoundUdfCall() : BoundExpr(BoundExprKind::kUdfCall) {}
  const udf::ScalarFunction* fn = nullptr;  // owned by the registry
  std::vector<BoundExprPtr> args;
};

struct BoundCase : BoundExpr {
  BoundCase() : BoundExpr(BoundExprKind::kCase) {}
  std::vector<std::pair<BoundExprPtr, BoundExprPtr>> branches;
  BoundExprPtr else_expr;  // may be null -> 0
};

/// A `?` placeholder: evaluates to the `ordinal`-th value of the parameter
/// vector supplied at Run() time. The plan stays immutable across runs —
/// different bindings flow through the per-run evaluation context, so one
/// compiled query serves many concurrent executions.
struct BoundParameter : BoundExpr {
  explicit BoundParameter(int64_t ordinal)
      : BoundExpr(BoundExprKind::kParameter), ordinal(ordinal) {}
  int64_t ordinal;
};

/// Built-in vector similarity over an embedding column: `dot(col, q)` /
/// `cosine_sim(col, q)` yield one float32 score per row. `column` must
/// evaluate to a rank-2 tensor column [n, d]; `query` to a constant
/// d-element tensor (a literal is impossible in SQL text, so in practice a
/// `?` parameter bound with `ScalarValue::FromTensor`). Scores are
/// row-local — row i's score depends only on row i and the query — so the
/// expression is morsel-safe AND candidate-subset-safe: evaluating it over
/// any subset of rows produces bit-identical values to the full relation,
/// which is what lets the IndexTopK operator re-rank index candidates with
/// this very expression and stay exact at full probe count.
struct BoundVectorSim : BoundExpr {
  enum class SimKind { kDot, kCosine };
  BoundVectorSim(SimKind sim_kind, BoundExprPtr column, BoundExprPtr query)
      : BoundExpr(BoundExprKind::kVectorSim),
        sim_kind(sim_kind),
        column(std::move(column)),
        query(std::move(query)) {}
  SimKind sim_kind;
  BoundExprPtr column;
  BoundExprPtr query;
};

/// Result of evaluating an expression: either a per-row column or a
/// constant scalar (broadcast lazily by consumers).
struct EvalResult {
  bool is_scalar = false;
  ScalarValue scalar;
  Column column;
};

/// Per-evaluation context for expression trees. One value object instead
/// of a growing parameter list: the device to run tensor math on and the
/// per-run `?` parameter bindings.
struct EvalOptions {
  Device device = Device::kCpu;
  const std::vector<ScalarValue>* params = nullptr;
};

/// Evaluates `expr` over `input` per `opts`. All column math runs as
/// tensor ops, so gradients flow through results whose inputs require grad.
/// `opts.params` supplies values for BoundParameter placeholders (may be
/// null when the expression has none); it is read-only and per-run, so the
/// same expression tree can be evaluated concurrently with different
/// bindings.
StatusOr<EvalResult> EvaluateExpr(const BoundExpr& expr, const Chunk& input,
                                  const EvalOptions& opts);

/// EvaluateExpr + broadcast scalars to `num_rows` and wrap as a column.
StatusOr<Column> EvaluateExprToColumn(const BoundExpr& expr,
                                      const Chunk& input,
                                      const EvalOptions& opts);

/// Evaluates a predicate to a 1-d bool mask of input.num_rows().
StatusOr<Tensor> EvaluatePredicate(const BoundExpr& expr, const Chunk& input,
                                   const EvalOptions& opts);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_BOUND_EXPR_H_
