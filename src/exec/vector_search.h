#ifndef TDP_EXEC_VECTOR_SEARCH_H_
#define TDP_EXEC_VECTOR_SEARCH_H_

#include <cstdint>
#include <string_view>

namespace tdp {
namespace exec {

/// Execution strategy for an index-accelerated top-k similarity search
/// under a predicate (`ORDER BY sim DESC LIMIT k ... WHERE ...`). The
/// optimizer's cost rule picks one at compile time from selectivity
/// estimates (see `plan::Optimize` rule 5); `VectorSearchOptions::strategy`
/// overrides the choice per run. All three strategies produce results
/// bit-identical to the exact Filter+Sort+Limit plan at full probe count;
/// under a partial probe budget the result row count never shrinks below
/// min(k, surviving rows) — only recall degrades.
enum class VectorSearchStrategy {
  /// Defer to the plan's compile-time choice (the default).
  kAuto = 0,
  /// Evaluate the predicate over the live view first, push the surviving
  /// rows into the index probe as a selection bitmap: pruned rows are
  /// never scored and fully-pruned cells don't consume probe budget. Best
  /// when the predicate is selective (few survivors).
  kPreFilter,
  /// Probe the index first, apply the predicate to the candidates, and
  /// adaptively widen the probe budget until k rows survive. Best when
  /// the predicate keeps most rows (candidates rarely die).
  kPostFilter,
  /// Exact Filter+Sort+Limit over the relation, bypassing the index.
  /// Chosen when the predicate is estimated too selective for the index
  /// to win (fewer expected survivors than ~2k).
  kBrute,
};

inline std::string_view VectorSearchStrategyName(
    VectorSearchStrategy strategy) {
  switch (strategy) {
    case VectorSearchStrategy::kAuto:
      return "auto";
    case VectorSearchStrategy::kPreFilter:
      return "pre_filter";
    case VectorSearchStrategy::kPostFilter:
      return "post_filter";
    case VectorSearchStrategy::kBrute:
      return "brute";
  }
  return "?";
}

/// Per-run knobs for IndexTopK / FilteredIndexTopK operators, grouped so
/// the whole vector-search surface travels as one value
/// (`exec::RunOptions::vector_search`). Like the morsel-size knob
/// this is per-run state, NOT part of the plan-cache key: clients
/// sweeping probe counts or forcing strategies share one cached plan.
struct VectorSearchOptions {
  /// Probe budget: how many IVF cells each index search visits. 0 (the
  /// default) probes every cell — results are then bit-identical to the
  /// exact plan; smaller values trade recall for a proportionally smaller
  /// scan. Values above the index's list count clamp; negative values
  /// fail the run with InvalidArgument. The budget is a FLOOR: cells are
  /// probed past it until k candidate rows (k PREDICATE SURVIVORS for a
  /// filtered search) exist, so a low budget degrades recall but never
  /// the result's row count. `cosine_sim` honors a partial budget only
  /// when the indexed rows are L2-normalized; otherwise every cell is
  /// probed — exact results, no scan saving.
  int64_t num_probes = 0;

  /// Forces a filtered-search strategy, overriding the optimizer's
  /// cost-rule choice. `kAuto` (the default) keeps the compiled choice.
  VectorSearchStrategy strategy = VectorSearchStrategy::kAuto;

  /// Post-filter widening: how many times the probe budget doubles when
  /// fewer than k candidates survive the predicate before giving up on
  /// doubling and probing every cell at once. Purely a pacing knob — the
  /// survivor floor holds at ANY value (the final round always probes
  /// everything); 0 jumps straight to a full probe on the first
  /// shortfall. Negative values fail the run with InvalidArgument.
  int64_t max_widening_rounds = 8;
};

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_VECTOR_SEARCH_H_
