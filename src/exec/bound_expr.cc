#include "src/exec/bound_expr.h"

#include <cmath>

#include "src/tensor/ops.h"

namespace tdp {
namespace exec {
namespace {

using sql::BinaryOp;
using sql::UnaryOp;

// Scalar -> rank-1 single-element tensor on `device` (broadcasts against
// column tensors).
StatusOr<Tensor> ScalarToTensor(const ScalarValue& v, Device device) {
  if (v.is_int()) {
    return Tensor::Full({1}, static_cast<double>(v.int_value()),
                        DType::kInt64, device);
  }
  if (v.is_float()) {
    return Tensor::Full({1}, v.float_value(), DType::kFloat32, device);
  }
  if (v.is_bool()) {
    Tensor t = Tensor::Empty({1}, DType::kBool, device);
    *t.data<bool>() = v.bool_value();
    return t;
  }
  return Status::TypeError("cannot lower scalar " + v.ToString() +
                           " to a tensor");
}

// Numeric payload of a column for expression math: PE columns decode to
// hard values. A dictionary column's payload would be its codes, so it is
// refused: strings compare only against strings (`CompareStringLiteral`
// and the two-column case in `EvaluateBinary`).
StatusOr<Tensor> NumericPayload(const Column& c) {
  if (c.encoding() == Encoding::kDictionary) {
    return Status::TypeError("a string column cannot be used as a number");
  }
  return c.DecodeValues();
}

// True when any element of `t` is zero (of either sign).
bool HoldsZero(const Tensor& t) {
  const Tensor zero = Tensor::Zeros({1}, t.dtype(), t.device());
  return CountNonzero(Eq(t, zero)).item<int64_t>() > 0;
}

// A bool operand of arithmetic is the number 0 or 1, computed in doubles
// as BaselineDB computes it (so -FALSE is -0.0).
Tensor ArithmeticOperand(const Tensor& t) {
  return t.dtype() == DType::kBool ? t.To(DType::kFloat64) : t;
}

StatusOr<Column> CompareStringLiteral(const Column& column, BinaryOp op,
                                      const std::string& literal,
                                      bool literal_on_left) {
  if (column.encoding() != Encoding::kDictionary) {
    return Status::TypeError(
        "string literal compared against a non-string column");
  }
  // Normalize to <column> <op> <literal>.
  BinaryOp norm = op;
  if (literal_on_left) {
    switch (op) {
      case BinaryOp::kLt:
        norm = BinaryOp::kGt;
        break;
      case BinaryOp::kLe:
        norm = BinaryOp::kGe;
        break;
      case BinaryOp::kGt:
        norm = BinaryOp::kLt;
        break;
      case BinaryOp::kGe:
        norm = BinaryOp::kLe;
        break;
      default:
        break;
    }
  }
  const Tensor codes = column.data();
  const Device device = codes.device();
  auto code_scalar = [&](int64_t code) {
    return Tensor::Full({1}, static_cast<double>(code), DType::kInt64,
                        device);
  };
  switch (norm) {
    case BinaryOp::kEq: {
      const int64_t code = column.DictionaryCode(literal);
      if (code < 0) {
        return Column::Plain(
            Tensor::Zeros({column.length()}, DType::kBool, device));
      }
      return Column::Plain(Eq(codes, code_scalar(code)));
    }
    case BinaryOp::kNe: {
      const int64_t code = column.DictionaryCode(literal);
      if (code < 0) {
        return Column::Plain(
            Tensor::Ones({column.length()}, DType::kBool, device));
      }
      return Column::Plain(Ne(codes, code_scalar(code)));
    }
    // Order-preserving dictionary: range predicates become code ranges.
    case BinaryOp::kLt:
      return Column::Plain(
          Lt(codes, code_scalar(column.LowerBoundCode(literal))));
    case BinaryOp::kLe:
      return Column::Plain(
          Lt(codes, code_scalar(column.UpperBoundCode(literal))));
    case BinaryOp::kGt:
      return Column::Plain(
          Ge(codes, code_scalar(column.UpperBoundCode(literal))));
    case BinaryOp::kGe:
      return Column::Plain(
          Ge(codes, code_scalar(column.LowerBoundCode(literal))));
    default:
      return Status::TypeError("unsupported operator on string column");
  }
}

StatusOr<ScalarValue> FoldScalarBinary(BinaryOp op, const ScalarValue& a,
                                       const ScalarValue& b) {
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    if (!a.is_bool() || !b.is_bool()) {
      return Status::TypeError("AND/OR need boolean operands");
    }
    return ScalarValue::Bool(op == BinaryOp::kAnd
                                 ? (a.bool_value() && b.bool_value())
                                 : (a.bool_value() || b.bool_value()));
  }
  if (a.is_string() && b.is_string()) {
    const int cmp = a.string_value().compare(b.string_value());
    switch (op) {
      case BinaryOp::kEq:
        return ScalarValue::Bool(cmp == 0);
      case BinaryOp::kNe:
        return ScalarValue::Bool(cmp != 0);
      case BinaryOp::kLt:
        return ScalarValue::Bool(cmp < 0);
      case BinaryOp::kLe:
        return ScalarValue::Bool(cmp <= 0);
      case BinaryOp::kGt:
        return ScalarValue::Bool(cmp > 0);
      case BinaryOp::kGe:
        return ScalarValue::Bool(cmp >= 0);
      default:
        return Status::TypeError("arithmetic on strings");
    }
  }
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::TypeError("type mismatch in constant expression");
  }
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  const bool both_int = a.is_int() && b.is_int();
  switch (op) {
    case BinaryOp::kAdd:
      return both_int ? ScalarValue::Int(a.int_value() + b.int_value())
                      : ScalarValue::Float(x + y);
    case BinaryOp::kSub:
      return both_int ? ScalarValue::Int(a.int_value() - b.int_value())
                      : ScalarValue::Float(x - y);
    case BinaryOp::kMul:
      return both_int ? ScalarValue::Int(a.int_value() * b.int_value())
                      : ScalarValue::Float(x * y);
    case BinaryOp::kDiv:
      if (y == 0) return Status::ExecutionError("division by zero");
      return ScalarValue::Float(x / y);
    case BinaryOp::kMod:
      // INT64_MIN % -1 overflows in C++; every integer % -1 is 0.
      if (y == 0) return Status::ExecutionError("modulo by zero");
      if (both_int) {
        return ScalarValue::Int(
            b.int_value() == -1 ? 0 : a.int_value() % b.int_value());
      }
      return ScalarValue::Float(std::fmod(x, y));
    case BinaryOp::kEq:
      return ScalarValue::Bool(x == y);
    case BinaryOp::kNe:
      return ScalarValue::Bool(x != y);
    case BinaryOp::kLt:
      return ScalarValue::Bool(x < y);
    case BinaryOp::kLe:
      return ScalarValue::Bool(x <= y);
    case BinaryOp::kGt:
      return ScalarValue::Bool(x > y);
    case BinaryOp::kGe:
      return ScalarValue::Bool(x >= y);
    default:
      return Status::TypeError("bad scalar op");
  }
}

StatusOr<Column> TensorBinary(BinaryOp op, const Tensor& a, const Tensor& b) {
  switch (op) {
    case BinaryOp::kAdd:
      return Column::Plain(Add(ArithmeticOperand(a), ArithmeticOperand(b)));
    case BinaryOp::kSub:
      return Column::Plain(Sub(ArithmeticOperand(a), ArithmeticOperand(b)));
    case BinaryOp::kMul:
      return Column::Plain(Mul(ArithmeticOperand(a), ArithmeticOperand(b)));
    case BinaryOp::kDiv: {
      // SQL semantics: division yields float. A zero divisor is an error,
      // as in the constant fold and BaselineDB.
      if (HoldsZero(b)) return Status::ExecutionError("division by zero");
      const Tensor af = IsFloatingPoint(a.dtype()) ? a : a.To(DType::kFloat32);
      const Tensor bf = IsFloatingPoint(b.dtype()) ? b : b.To(DType::kFloat32);
      return Column::Plain(Div(af, bf));
    }
    case BinaryOp::kMod: {
      // Truncated toward zero, like C++ `%` in the constant fold and
      // BaselineDB (float path; exact for integers below 2^53).
      if (HoldsZero(b)) return Status::ExecutionError("modulo by zero");
      Tensor m = Fmod(a.To(DType::kFloat64), b.To(DType::kFloat64));
      if (IsInteger(a.dtype()) && IsInteger(b.dtype())) {
        return Column::Plain(m.To(DType::kInt64));
      }
      return Column::Plain(m.To(DType::kFloat32));
    }
    case BinaryOp::kEq:
      return Column::Plain(Eq(a, b));
    case BinaryOp::kNe:
      return Column::Plain(Ne(a, b));
    case BinaryOp::kLt:
      return Column::Plain(Lt(a, b));
    case BinaryOp::kLe:
      return Column::Plain(Le(a, b));
    case BinaryOp::kGt:
      return Column::Plain(Gt(a, b));
    case BinaryOp::kGe:
      return Column::Plain(Ge(a, b));
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      if (a.dtype() != DType::kBool || b.dtype() != DType::kBool) {
        return Status::TypeError("AND/OR need boolean operands");
      }
      return Column::Plain(op == BinaryOp::kAnd ? LogicalAnd(a, b)
                                                : LogicalOr(a, b));
  }
  return Status::TypeError("unknown binary operator");
}

StatusOr<EvalResult> EvaluateBinary(const BoundBinary& expr,
                                    const Chunk& input,
                                    const EvalOptions& opts) {
  const Device device = opts.device;
  TDP_ASSIGN_OR_RETURN(EvalResult lhs, EvaluateExpr(*expr.left, input, opts));
  TDP_ASSIGN_OR_RETURN(EvalResult rhs, EvaluateExpr(*expr.right, input, opts));

  // Constant folding at runtime (both sides scalar).
  if (lhs.is_scalar && rhs.is_scalar) {
    TDP_ASSIGN_OR_RETURN(ScalarValue folded,
                         FoldScalarBinary(expr.op, lhs.scalar, rhs.scalar));
    EvalResult out;
    out.is_scalar = true;
    out.scalar = std::move(folded);
    return out;
  }

  // String literal vs dictionary column.
  if (lhs.is_scalar && lhs.scalar.is_string()) {
    TDP_ASSIGN_OR_RETURN(Column c,
                         CompareStringLiteral(rhs.column, expr.op,
                                              lhs.scalar.string_value(),
                                              /*literal_on_left=*/true));
    return EvalResult{false, {}, std::move(c)};
  }
  if (rhs.is_scalar && rhs.scalar.is_string()) {
    TDP_ASSIGN_OR_RETURN(Column c,
                         CompareStringLiteral(lhs.column, expr.op,
                                              rhs.scalar.string_value(),
                                              /*literal_on_left=*/false));
    return EvalResult{false, {}, std::move(c)};
  }

  // Dictionary vs dictionary comparison: equality of decoded strings
  // (engines with shared dictionaries can compare codes; we keep it safe).
  if (!lhs.is_scalar && !rhs.is_scalar &&
      lhs.column.encoding() == Encoding::kDictionary &&
      rhs.column.encoding() == Encoding::kDictionary) {
    if (expr.op != BinaryOp::kEq && expr.op != BinaryOp::kNe) {
      return Status::Unimplemented(
          "only =/<> between two string columns is supported");
    }
    const std::vector<std::string> a = lhs.column.DecodeStrings();
    const std::vector<std::string> b = rhs.column.DecodeStrings();
    if (a.size() != b.size()) {
      return Status::ExecutionError("string column length mismatch");
    }
    Tensor mask = Tensor::Empty({static_cast<int64_t>(a.size())},
                                DType::kBool, device);
    bool* mp = mask.data<bool>();
    for (size_t i = 0; i < a.size(); ++i) {
      mp[i] = expr.op == BinaryOp::kEq ? a[i] == b[i] : a[i] != b[i];
    }
    return EvalResult{false, {}, Column::Plain(std::move(mask))};
  }

  Tensor ta, tb;
  if (lhs.is_scalar) {
    TDP_ASSIGN_OR_RETURN(ta, ScalarToTensor(lhs.scalar, device));
  } else {
    TDP_ASSIGN_OR_RETURN(ta, NumericPayload(lhs.column));
  }
  if (rhs.is_scalar) {
    TDP_ASSIGN_OR_RETURN(tb, ScalarToTensor(rhs.scalar, device));
  } else {
    TDP_ASSIGN_OR_RETURN(tb, NumericPayload(rhs.column));
  }
  TDP_ASSIGN_OR_RETURN(Column c, TensorBinary(expr.op, ta, tb));
  return EvalResult{false, {}, std::move(c)};
}

// The rows of `input` at `ids` (ascending kInt64 row ids), or `input`
// itself when they are all of its `num_rows` rows.
Chunk RowsAt(const Chunk& input, const Tensor& ids, int64_t num_rows) {
  return ids.numel() == num_rows ? input : input.Select(ids);
}

// Spreads `values`, one per row id in `ids`, over all `num_rows` rows: row
// ids[j] reads values[j], and every other row reads values[0], which the
// caller masks out.
Tensor SpreadRows(const Tensor& values, const Tensor& ids, int64_t num_rows) {
  if (ids.numel() == num_rows) return values;
  Tensor pos = Tensor::Zeros({num_rows}, DType::kInt64, values.device());
  const int64_t* id = ids.data<int64_t>();
  int64_t* p = pos.data<int64_t>();
  for (int64_t j = 0; j < ids.numel(); ++j) p[id[j]] = j;
  return IndexSelect(values, 0, pos);
}

StatusOr<EvalResult> EvaluateCase(const BoundCase& expr, const Chunk& input,
                                  const EvalOptions& opts) {
  // A branch guards the expressions after it, as in BaselineDB: each WHEN
  // sees only the rows no earlier branch took, and each THEN or ELSE only
  // the rows its branch takes, so `CASE WHEN k <> 0 THEN 10 / k ELSE 0
  // END` never divides by zero. Where places each branch's values: it
  // copies the taken rows and routes their gradient to that branch alone.
  // A branch that takes no rows is still evaluated over none, so the
  // result's dtype does not depend on the data.
  const Device device = opts.device;
  // A chunk without columns (SELECT without FROM) is one row.
  const int64_t num_rows = input.columns.empty() ? 1 : input.num_rows();
  Tensor open = Tensor::Ones({num_rows}, DType::kBool, device);
  // Rows no branch takes are 0 in the promoted dtype of the branches.
  Tensor result = Tensor::Zeros({num_rows}, DType::kBool, device);
  const auto place = [&](const BoundExpr& value,
                         const Tensor& taken) -> Status {
    const Tensor ids = NonZero(taken);
    TDP_ASSIGN_OR_RETURN(
        Column column,
        EvaluateExprToColumn(value, RowsAt(input, ids, num_rows), opts));
    TDP_ASSIGN_OR_RETURN(Tensor values, NumericPayload(column));
    if (values.dim() != 1) {
      return Status::TypeError("a CASE branch must give one value per row");
    }
    result = Where(taken,
                   ids.numel() == 0
                       ? Tensor::Zeros({1}, values.dtype(), device)
                       : SpreadRows(values, ids, num_rows),
                   result);
    return Status::OK();
  };
  for (const auto& [when, then] : expr.branches) {
    Tensor taken = Tensor::Zeros({num_rows}, DType::kBool, device);
    const Tensor ids = NonZero(open);
    if (ids.numel() > 0) {
      TDP_ASSIGN_OR_RETURN(
          Tensor cond,
          EvaluatePredicate(*when, RowsAt(input, ids, num_rows), opts));
      taken = LogicalAnd(open, SpreadRows(cond, ids, num_rows));
      open = LogicalAnd(open, LogicalNot(taken));
    }
    TDP_RETURN_NOT_OK(place(*then, taken));
  }
  if (expr.else_expr) TDP_RETURN_NOT_OK(place(*expr.else_expr, open));
  return EvalResult{false, {}, Column::Plain(result)};
}

StatusOr<EvalResult> EvaluateUdf(const BoundUdfCall& expr, const Chunk& input,
                                 const EvalOptions& opts) {
  std::vector<udf::Argument> args;
  args.reserve(expr.args.size());
  for (const BoundExprPtr& arg_expr : expr.args) {
    TDP_ASSIGN_OR_RETURN(EvalResult r, EvaluateExpr(*arg_expr, input, opts));
    udf::Argument arg;
    if (r.is_scalar) {
      arg.is_scalar = true;
      arg.scalar = std::move(r.scalar);
    } else {
      arg.column = std::move(r.column);
    }
    args.push_back(std::move(arg));
  }
  TDP_ASSIGN_OR_RETURN(Column out,
                       expr.fn->fn(args, input.num_rows(), opts.device));
  if (out.length() != input.num_rows()) {
    return Status::ExecutionError(
        "scalar UDF " + expr.fn->name + " returned " +
        std::to_string(out.length()) + " rows, expected " +
        std::to_string(input.num_rows()));
  }
  return EvalResult{false, {}, std::move(out)};
}

StatusOr<EvalResult> EvaluateVectorSim(const BoundVectorSim& expr,
                                       const Chunk& input,
                                       const EvalOptions& opts) {
  const Device device = opts.device;
  TDP_ASSIGN_OR_RETURN(EvalResult col, EvaluateExpr(*expr.column, input, opts));
  if (col.is_scalar || col.column.encoding() != Encoding::kPlain ||
      col.column.data().dim() != 2) {
    return Status::TypeError(
        "first argument of dot/cosine_sim must be a rank-2 tensor column "
        "(one embedding per row)");
  }
  TDP_ASSIGN_OR_RETURN(EvalResult qr, EvaluateExpr(*expr.query, input, opts));
  if (!qr.is_scalar || !qr.scalar.is_tensor()) {
    return Status::TypeError(
        "second argument of dot/cosine_sim must be a constant query vector "
        "(bind a tensor via ScalarValue::FromTensor)");
  }
  const Tensor rows = col.column.data().Detach().To(DType::kFloat32);
  const Tensor& qraw = qr.scalar.tensor_value();
  if (!qraw.defined() || qraw.numel() != rows.size(1)) {
    return Status::InvalidArgument(
        "query vector dimension mismatch: column has d=" +
        std::to_string(rows.size(1)) + ", query has " +
        std::to_string(qraw.defined() ? qraw.numel() : 0) + " element(s)");
  }
  const Tensor q = Reshape(qraw.Detach().To(DType::kFloat32).To(device),
                           {rows.size(1), 1});
  // Per-row inner product: each output element's reduction runs over d in
  // a fixed order regardless of the row count, so subset evaluation is
  // bit-identical to full-relation evaluation (see BoundVectorSim).
  Tensor scores = Squeeze(MatMul(rows, q), 1);
  if (expr.sim_kind == BoundVectorSim::SimKind::kCosine) {
    const Tensor row_norms =
        Sqrt(Sum(Mul(rows, rows), /*dim=*/1, /*keepdim=*/false));
    const Tensor q_norm = Sqrt(Sum(Mul(q, q)));
    const Tensor denom = Mul(row_norms, Reshape(q_norm, {1}));
    constexpr double kEps = 1e-12;
    scores = Div(scores, Maximum(denom, Tensor::Full({1}, kEps,
                                                     DType::kFloat32,
                                                     scores.device())));
  }
  return EvalResult{false, {}, Column::Plain(std::move(scores))};
}

}  // namespace

StatusOr<EvalResult> EvaluateExpr(const BoundExpr& expr, const Chunk& input,
                                  const EvalOptions& opts) {
  const std::vector<ScalarValue>* params = opts.params;
  switch (expr.kind) {
    case BoundExprKind::kColumnRef: {
      const auto& ref = static_cast<const BoundColumnRef&>(expr);
      TDP_CHECK(ref.column_index >= 0 &&
                ref.column_index < input.num_columns())
          << "bound column index out of range";
      return EvalResult{
          false, {}, input.columns[static_cast<size_t>(ref.column_index)]};
    }
    case BoundExprKind::kLiteral: {
      const auto& lit = static_cast<const BoundLiteral&>(expr);
      return EvalResult{true, lit.value, {}};
    }
    case BoundExprKind::kBinary:
      return EvaluateBinary(static_cast<const BoundBinary&>(expr), input,
                            opts);
    case BoundExprKind::kUnary: {
      const auto& un = static_cast<const BoundUnary&>(expr);
      TDP_ASSIGN_OR_RETURN(EvalResult operand,
                           EvaluateExpr(*un.operand, input, opts));
      if (operand.is_scalar) {
        if (un.op == UnaryOp::kNeg) {
          if (operand.scalar.is_int()) {
            return EvalResult{
                true, ScalarValue::Int(-operand.scalar.int_value()), {}};
          }
          if (operand.scalar.is_float()) {
            return EvalResult{
                true, ScalarValue::Float(-operand.scalar.float_value()), {}};
          }
          return Status::TypeError("negation of non-numeric literal");
        }
        if (!operand.scalar.is_bool()) {
          return Status::TypeError("NOT of non-boolean literal");
        }
        return EvalResult{
            true, ScalarValue::Bool(!operand.scalar.bool_value()), {}};
      }
      if (un.op == UnaryOp::kNeg) {
        TDP_ASSIGN_OR_RETURN(Tensor payload, NumericPayload(operand.column));
        return EvalResult{false, {},
                          Column::Plain(Neg(ArithmeticOperand(payload)))};
      }
      if (operand.column.data().dtype() != DType::kBool) {
        return Status::TypeError("NOT requires a boolean column");
      }
      return EvalResult{
          false, {}, Column::Plain(LogicalNot(operand.column.data()))};
    }
    case BoundExprKind::kUdfCall:
      return EvaluateUdf(static_cast<const BoundUdfCall&>(expr), input, opts);
    case BoundExprKind::kCase:
      return EvaluateCase(static_cast<const BoundCase&>(expr), input, opts);
    case BoundExprKind::kVectorSim:
      return EvaluateVectorSim(static_cast<const BoundVectorSim&>(expr),
                               input, opts);
    case BoundExprKind::kParameter: {
      const auto& p = static_cast<const BoundParameter&>(expr);
      if (params == nullptr ||
          p.ordinal >= static_cast<int64_t>(params->size())) {
        return Status::ExecutionError(
            "query expects at least " + std::to_string(p.ordinal + 1) +
            " parameter(s); " +
            std::to_string(params ? params->size() : 0) + " bound");
      }
      const ScalarValue& v = (*params)[static_cast<size_t>(p.ordinal)];
      if (v.is_null()) {
        return Status::ExecutionError(
            "parameter " + std::to_string(p.ordinal) + " is unbound (NULL)");
      }
      return EvalResult{true, v, {}};
    }
  }
  return Status::Internal("unknown bound expression kind");
}

StatusOr<Column> EvaluateExprToColumn(const BoundExpr& expr,
                                      const Chunk& input,
                                      const EvalOptions& opts) {
  TDP_ASSIGN_OR_RETURN(EvalResult r, EvaluateExpr(expr, input, opts));
  if (!r.is_scalar) return r.column;
  const int64_t rows = std::max<int64_t>(input.num_rows(), 1);
  if (r.scalar.is_string()) {
    return Column::FromStrings(
        std::vector<std::string>(static_cast<size_t>(rows),
                                 r.scalar.string_value()),
        opts.device);
  }
  TDP_ASSIGN_OR_RETURN(Tensor t, ScalarToTensor(r.scalar, opts.device));
  return Column::Plain(Expand(t, {rows}).Contiguous());
}

StatusOr<Tensor> EvaluatePredicate(const BoundExpr& expr, const Chunk& input,
                                   const EvalOptions& opts) {
  TDP_ASSIGN_OR_RETURN(Column c, EvaluateExprToColumn(expr, input, opts));
  if (c.data().dtype() != DType::kBool || c.data().dim() != 1) {
    return Status::TypeError("predicate did not evaluate to a boolean column");
  }
  return c.data();
}

}  // namespace exec
}  // namespace tdp
