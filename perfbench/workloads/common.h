#ifndef TDP_PERFBENCH_WORKLOADS_COMMON_H_
#define TDP_PERFBENCH_WORKLOADS_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/core/report.h"
#include "src/baseline/baseline_db.h"
#include "src/common/rng.h"
#include "src/exec/value.h"
#include "src/storage/table.h"

namespace tdp {
namespace perfbench {

RunResult RunServeRw(const RunConfig& config);
RunResult RunOlapLarge(const RunConfig& config);
RunResult RunMultimodal(const RunConfig& config);

/// Trains the paper's Fig. 3 query on one thread for about `seconds`, with
/// tracing on, from inputs made from `seed`; sets the training layers'
/// per-layer metrics in `report`, records its output checks (no failed
/// iteration, held-out MSE drops) in `checks`, and returns its spans.
std::vector<SpanRecord> RunTrainingReplay(uint64_t seed, double seconds,
                                          Report& report, Tally& checks);

/// Draws op families in fixed proportions: each round of
/// sum(counts) draws holds exactly counts[f] ops of family f, in an order
/// shuffled by the seed. Every window therefore runs the same mix, and
/// only literal values and order vary with the seed.
class Deck {
 public:
  Deck(std::vector<int> counts, Rng rng);
  int Next();

 private:
  std::vector<int> counts_;
  std::vector<int> round_;
  size_t at_ = 0;
  Rng rng_;
};

/// `n` unit vectors of dimension `dim` scattered around `clusters` random
/// centres, as a [n, dim] float32 tensor.
Tensor ClusteredUnitVectors(int64_t n, int64_t dim, int64_t clusters,
                            Rng& rng);

/// True when the engine's result and the oracle's hold the same rows as
/// multisets. Integers and strings must match exactly; a cell that either
/// engine returns as a float must match within `rel_tol` (relative, with
/// an absolute floor of `rel_tol` for values near 0). On mismatch `why`
/// names the first differing row.
bool SameRows(const Table& result, const baseline::BaselineTable& expected,
              double rel_tol, std::string* why);

/// `sql` with each `?` replaced, in order, by the SQL literal of the
/// matching parameter (integers, floats and strings only): the text the
/// oracle runs.
std::string Substitute(const std::string& sql,
                       const std::vector<exec::ScalarValue>& params);

/// Records one output check in `checks`, printing the reason on failure.
void Check(Tally& checks, bool ok, const std::string& what);

}  // namespace perfbench
}  // namespace tdp

#endif  // TDP_PERFBENCH_WORKLOADS_COMMON_H_
