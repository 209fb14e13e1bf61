#ifndef TDP_UDF_REGISTRY_H_
#define TDP_UDF_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/chunk.h"
#include "src/exec/value.h"
#include "src/nn/module.h"

namespace tdp {
namespace udf {

/// Declared column type of a UDF/TVF output (the paper's annotation
/// `@tdp_udf("Digit float, Size float")`).
enum class DeclaredType {
  kFloat,
  kInt,
  kString,
  kBool,
  kTensor,       // rank >= 2 plain column (images, embeddings)
  kProbability,  // PE column
};

struct DeclaredColumn {
  std::string name;
  DeclaredType type;
};

/// "float", "probability", ... — the SQL-ish spelling used in rendered
/// signatures and error messages.
std::string DeclaredTypeName(DeclaredType type);

/// Rows per model forward pass when a batchable function does not declare
/// a preference. Large enough to amortize kernel launch/setup, small
/// enough that image batches stay cache- and queue-friendly.
inline constexpr int64_t kDefaultModelBatchRows = 256;

/// One evaluated argument of a scalar UDF call: either a per-row column or
/// a constant (e.g. the query string in image_text_similarity("dog", imgs)).
struct Argument {
  bool is_scalar = false;
  exec::ScalarValue scalar;
  Column column;
};

/// Scalar UDF body: columns/constants in, one column (num_rows values) out.
/// Bodies are tensor programs — they run on the same runtime as relational
/// operators, so "context switches" into ML are free (§3 of the paper).
using ScalarFn = std::function<StatusOr<Column>(
    const std::vector<Argument>& args, int64_t num_rows, Device device)>;

/// TVF body: a chunk in, a chunk out (row counts may differ — e.g.
/// parse_mnist_grid maps 1 grid row to 9 tile rows).
using TableFn = std::function<StatusOr<exec::Chunk>(
    const exec::Chunk& input, const std::vector<exec::ScalarValue>& args,
    Device device)>;

/// Registered scalar function. `modules` lists the trainable nn::Modules
/// the body closes over — compiled queries surface their parameters.
struct ScalarFunction {
  std::string name;
  DeclaredType return_type = DeclaredType::kFloat;
  ScalarFn fn;
  std::vector<std::shared_ptr<nn::Module>> modules;

  /// A batchable body is row-local: output row i depends only on input row
  /// i (and the scalar args), never on which other rows share the batch.
  /// The planner streams batchable calls through the ModelEval micro-batch
  /// operator instead of a pipeline breaker; its slices are bit-identical
  /// to a whole-relation call precisely because of row-locality. Leave
  /// false (the default) for batch-dependent bodies (e.g. batch
  /// normalization), which keep breaker semantics.
  bool batchable = false;
  /// Preferred rows per forward pass; 0 means kDefaultModelBatchRows.
  int64_t preferred_batch_rows = 0;
};

struct TableFunction {
  std::string name;
  std::vector<DeclaredColumn> output_schema;
  TableFn fn;
  std::vector<std::shared_ptr<nn::Module>> modules;

  /// Scalar-argument contract, enforced at bind time: the call must pass
  /// between min_args and max_args literal arguments (max_args < 0 means
  /// unbounded). `param_names` feeds the rendered signature in error
  /// messages; it may be shorter than max_args.
  int min_args = 0;
  int max_args = -1;
  std::vector<std::string> param_names;

  /// Row-local contract for TVFs: the output rows produced for input row i
  /// depend only on input row i (their count included). Batchable TVFs
  /// stream through the ModelEval micro-batch operator; non-batchable ones
  /// keep today's whole-input breaker semantics.
  bool batchable = false;
  int64_t preferred_batch_rows = 0;
};

/// "name(arg, ...) -> (Col type, ...)" — the signature rendered into
/// bind-time arity/type errors so they name the function being called.
std::string TvfSignature(const TableFunction& fn);

/// Arity check whose error names the function and its expected signature.
Status CheckTvfArity(const TableFunction& fn, size_t num_args);

/// Names the SQL binder resolves as built-in aggregates / vector
/// similarity functions BEFORE consulting the registry. Defined here —
/// next to the registration check that rejects them — so the binder and
/// the registry share one list and a new built-in cannot reintroduce
/// silent UDF shadowing. `lower_name` must already be lowercased (the
/// parser lowercases function names).
bool IsBuiltinAggregateName(const std::string& lower_name);
bool IsBuiltinVectorSimName(const std::string& lower_name);

/// Name -> function map for one session (names case-insensitive). This is
/// the C++ analogue of the paper's `@tdp_udf` annotation API.
class FunctionRegistry {
 public:
  FunctionRegistry() = default;

  FunctionRegistry(const FunctionRegistry&) = delete;
  FunctionRegistry& operator=(const FunctionRegistry&) = delete;

  Status RegisterScalar(ScalarFunction fn);
  Status RegisterTable(TableFunction fn);

  /// nullptr when not registered.
  const ScalarFunction* FindScalar(const std::string& name) const;
  const TableFunction* FindTable(const std::string& name) const;

  std::vector<std::string> ListFunctions() const;

 private:
  std::map<std::string, ScalarFunction> scalar_fns_;  // lowercased keys
  std::map<std::string, TableFunction> table_fns_;
};

}  // namespace udf
}  // namespace tdp

#endif  // TDP_UDF_REGISTRY_H_
