#ifndef TDP_EXEC_SPILL_KERNELS_H_
#define TDP_EXEC_SPILL_KERNELS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/key_table.h"
#include "src/exec/operator_kernels.h"
#include "src/exec/operators.h"
#include "src/plan/logical_plan.h"

namespace tdp {
namespace exec {

// Spill-to-disk (out-of-budget) variants of the three breaker kernels.
// Each produces BIT-IDENTICAL results to its in-memory sibling — the spill
// paths re-derive the exact same row permutations, group orderings, and
// floating-point reduction trees; only where the scratch lives changes.
// `ExecuteSort` / `BuildJoinHashTable` / `FinalizeAggregate` dispatch here
// when `ExecContext::memory` reports the in-memory footprint over budget.

// ---- Sort-key comparison ----------------------------------------------------
//
// Spill paths compare keys through the row-local order-preserving codes of
// key_table.h (`OrderPreservingCodes`): codes computed per run or per page
// are globally consistent, so a page-wise sort, merge or group discovery
// sees exactly the key order and equivalences of the in-memory kernel.

/// Three-way comparison of two codes of one sort key: <0, 0, >0. NaN
/// orders last under BOTH directions (ArgSort's comparator contract).
inline int CompareKeyCodes(int64_t a, int64_t b, bool descending,
                           bool is_float) {
  if (a == b) return 0;
  if (is_float) {
    const bool a_nan = a == kNanOrderCode;
    const bool b_nan = b == kNanOrderCode;
    if (a_nan != b_nan) return a_nan ? 1 : -1;
  }
  if (descending) return a < b ? 1 : -1;
  return a < b ? -1 : 1;
}

// ---- External merge sort ----------------------------------------------------

/// Out-of-budget ORDER BY: splits the input into row-order runs sized to
/// the budget, stable-sorts each run and spills it (sorted key codes +
/// exact column pages), then k-way merges the runs — ties broken by run
/// order, i.e. by original row index, reproducing the exact permutation of
/// the in-memory composition of stable sorts. Output columns are assembled
/// one at a time by scattering spilled pages into place, so peak scratch
/// is one output column + one page instead of keys+permutation+copy of the
/// whole relation. Honors `fused_limit` by truncating the merge.
StatusOr<Chunk> ExternalSortChunk(const plan::SortNode& node,
                                  const Chunk& input, const ExecContext& ctx);

// ---- Grace hash join (spilled build payload) --------------------------------

/// Out-of-budget join build: the build payload is hash-partitioned by key
/// into per-partition spill files; each partition's `JoinIndex` (key ->
/// partition-local build rows) stays resident — keys and row numbers are
/// the cheap part, the wide payload columns are what spills. A key lands
/// in exactly one partition and partitions preserve build-row order, so
/// probe emission (probe-row-major, ascending build row per probe row) is
/// reproduced exactly by per-partition gathers. Rows whose key holds a
/// NaN never match and are not written at all.
struct SpilledJoinBuild {
  int64_t num_partitions = 0;
  int64_t build_rows = 0;
  /// 0-row zero-copy view of the build input: schema, encodings, and
  /// shared dictionary/domain metadata for assembling probe outputs.
  Chunk prototype;
  std::vector<std::string> files;      // one payload file per partition
  std::vector<int64_t> partition_rows;
  /// Per partition: join codes -> partition-local build rows, ascending
  /// (local order == global build-row order by construction).
  std::vector<JoinIndex> index;
};

StatusOr<std::shared_ptr<SpilledJoinBuild>> BuildSpilledJoin(
    const plan::JoinNode& node, const Chunk& build_input,
    const ExecContext& ctx);

/// Probe one morsel against a spilled build: partitions are loaded one at
/// a time and their matched rows scattered into the emission-order output.
StatusOr<Chunk> ProbeSpilledJoin(const plan::JoinNode& node,
                                 const SpilledJoinBuild& build,
                                 const Chunk& probe, const ExecContext& ctx);

// ---- Paged two-pass aggregation ---------------------------------------------

/// Out-of-budget GROUP BY: spills the evaluated key/argument columns in
/// 4096-row pages (aligned with the in-memory kernel's accumulation
/// blocks), discovers groups in a first streaming pass (a `KeyTable` over
/// the row-local order codes: the same first-occurrence ids, first rows
/// and code-order renumbering as the in-memory kernel), then re-streams
/// the pages accumulating each aggregate — folding block partials in block
/// order exactly when the in-memory kernel would have parallelized, and
/// sequentially otherwise — so the floating-point reduction tree is
/// reproduced operation for operation. Never materializes the whole-
/// relation code/argument/group arrays.
StatusOr<Chunk> SpilledFinalizeAggregate(const plan::AggregateNode& node,
                                         const AggInputs& inputs,
                                         const ExecContext& ctx);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_SPILL_KERNELS_H_
