#ifndef TDP_INDEX_IVF_INDEX_H_
#define TDP_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/statusor.h"
#include "src/tensor/tensor.h"

namespace tdp {
namespace index {

/// IVF (inverted-file) approximate nearest-neighbor index over an
/// embedding column — the paper's stated future work ("we are currently
/// integrating approximate indexing [Milvus] into TDP for speeding up
/// top-k queries", §5.1).
///
/// Build: k-means over the [n, d] embedding rows partitions them into
/// `num_lists` cells. The index keeps only the centroids and each cell's
/// row ids, never the embeddings: the SQL `IndexTopK` operator asks it
/// which rows to rank (`ProbeCandidates`) and scores those rows itself,
/// from the table. Probing every cell yields every row, so the ranking is
/// exact; fewer probes trade recall for time (the ablation_topk_index
/// bench sweeps this).
class IvfIndex {
 public:
  struct Options {
    int64_t num_lists = 16;
    int64_t kmeans_iterations = 10;
  };

  /// Builds over `embeddings` [n, d] (rows should be L2-normalized for
  /// inner-product search). The index keeps no copy of the rows.
  static StatusOr<IvfIndex> Build(const Tensor& embeddings,
                                  const Options& options, Rng& rng);

  /// Derives a new index over this index's rows plus `new_rows` ([m, d]):
  /// each appended row joins the cell of its nearest existing centroid —
  /// no re-clustering, so an INSERT costs O(m · lists) instead of a full
  /// k-means rebuild. Existing row ids are unchanged; appended rows get
  /// ids [num_rows(), num_rows() + m). Recall degrades gracefully as the
  /// appended fraction grows (centroids drift from the true means);
  /// rebuilding re-clusters.
  StatusOr<IvfIndex> WithAppended(const Tensor& new_rows) const;

  /// Candidate generation for the SQL `IndexTopK` operator: the member
  /// rows of the `num_probes` highest-scoring NON-EMPTY cells (k-means can
  /// leave cells empty; probing those would waste the probe budget and, at
  /// full probe count, break the all-rows guarantee). The budget is a
  /// FLOOR, not a cap on the result: when the probed cells hold fewer than
  /// `min_candidates` rows, further cells are probed (best first) until
  /// enough exist or every cell is visited — so a top-k over a tiny cell
  /// still returns k rows, with recall (not row count) absorbing the
  /// approximation. Returned ascending. With `num_probes >= num_lists`
  /// this is exactly [0, num_rows) — the caller's exact re-rank then
  /// degenerates to brute force, which is what makes full-probe index
  /// plans bit-identical to the Sort+Limit plan.
  ///
  /// `selection` (optional; one byte per index row, non-zero = selected)
  /// restricts the probe to a pre-filtered row set: only selected members
  /// are collected, cells with NO selected member are skipped without
  /// consuming probe budget (like empty cells), and the `min_candidates`
  /// floor counts selected rows only — so a filtered top-k keeps its
  /// survivor floor no matter how the survivors cluster. With full probes
  /// the result is exactly the ascending selected row ids. This is the
  /// probe the IndexTopK operator makes over its predicate's survivors.
  StatusOr<std::vector<int64_t>> ProbeCandidates(
      const Tensor& query, int64_t num_probes, int64_t min_candidates = 0,
      const std::vector<uint8_t>* selection = nullptr) const;

  int64_t num_lists() const { return centroids_.size(0); }
  int64_t num_rows() const { return num_rows_; }

  /// True when every indexed row is (approximately) L2-normalized.
  /// Probing ranks cells by raw inner product against the centroids; for
  /// COSINE queries that ordering is only trustworthy on unit-norm rows
  /// (a small-norm row can be the true cosine top-1 yet live in a cell
  /// the dot-ordered probe never reaches), so the IndexTopK operator
  /// probes every cell — exact results — when this is false.
  bool rows_unit_norm() const { return rows_unit_norm_; }

 private:
  IvfIndex() = default;

  Tensor centroids_;  // [lists, d]
  std::vector<std::vector<int64_t>> lists_;  // row ids per cell
  int64_t num_rows_ = 0;
  bool rows_unit_norm_ = false;
};

}  // namespace index
}  // namespace tdp

#endif  // TDP_INDEX_IVF_INDEX_H_
