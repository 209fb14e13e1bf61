#include "src/index/ivf_index.h"

#include <algorithm>

#include "src/tensor/ops.h"

namespace tdp {
namespace index {

StatusOr<IvfIndex> IvfIndex::Build(const Tensor& embeddings,
                                   const Options& options, Rng& rng) {
  if (!embeddings.defined() || embeddings.dim() != 2) {
    return Status::InvalidArgument("IVF index needs a [n, d] tensor");
  }
  if (!IsFloatingPoint(embeddings.dtype())) {
    return Status::TypeError("IVF index needs float embeddings");
  }
  const int64_t n = embeddings.size(0);
  const int64_t lists = std::min(options.num_lists, n);
  if (n == 0 || lists <= 0) {
    return Status::InvalidArgument("IVF index needs data and >= 1 list");
  }

  IvfIndex index;
  index.num_rows_ = n;
  const Tensor data = embeddings.Detach().Contiguous().To(DType::kFloat32);

  // Record whether rows are unit-norm (see rows_unit_norm()): cosine
  // queries may only probe a SUBSET of cells when they are.
  const Tensor norms =
      Sqrt(Sum(Mul(data, data), /*dim=*/1, /*keepdim=*/false));
  const Tensor ones =
      Tensor::Full({1}, 1.0f, DType::kFloat32, data.device());
  index.rows_unit_norm_ =
      MaxAll(Abs(Sub(norms, ones))).item<float>() < 1e-3f;

  // k-means++ -lite init: random distinct rows as seed centroids.
  const std::vector<int64_t> perm = rng.Permutation(n);
  std::vector<int64_t> seeds(perm.begin(), perm.begin() + lists);
  Tensor centroids =
      IndexSelect(data, 0, Tensor::FromVector(seeds, {}, data.device()));

  std::vector<int64_t> assignment(static_cast<size_t>(n), 0);
  for (int64_t iter = 0; iter < options.kmeans_iterations; ++iter) {
    // Assign: nearest centroid by inner product (normalized rows).
    const Tensor scores =
        MatMul(data, Transpose(centroids, 0, 1));  // [n, lists]
    const Tensor best = ArgMax(scores, 1, false);
    const std::vector<int64_t> new_assignment = best.ToVector<int64_t>();
    if (new_assignment == assignment && iter > 0) break;
    assignment = new_assignment;

    // Update: mean of members (empty cells keep their centroid).
    const Device device = data.device();
    Tensor sums =
        Tensor::Zeros({lists, data.size(1)}, DType::kFloat32, device);
    Tensor counts = Tensor::Zeros({lists, 1}, DType::kFloat32, device);
    sums = ScatterAddRows(sums, best.To(device), data);
    float* cp = counts.data<float>();
    for (int64_t i = 0; i < n; ++i) {
      cp[assignment[static_cast<size_t>(i)]] += 1.0f;
    }
    const Tensor one = Tensor::Full({1}, 1.0f, DType::kFloat32, device);
    const Tensor zero = Tensor::Full({1}, 0.0f, DType::kFloat32, device);
    const Tensor safe_counts = Maximum(counts, one);
    Tensor updated = Div(sums, safe_counts);
    // Keep old centroids where a cell is empty.
    const Tensor empty = Le(counts, zero);
    centroids = Where(empty, centroids, updated);
  }

  index.centroids_ = centroids.Contiguous();
  index.lists_.assign(static_cast<size_t>(lists), {});
  for (int64_t i = 0; i < n; ++i) {
    index.lists_[static_cast<size_t>(assignment[static_cast<size_t>(i)])]
        .push_back(i);
  }
  return index;
}

StatusOr<IvfIndex> IvfIndex::WithAppended(const Tensor& new_rows) const {
  const int64_t dim = centroids_.size(1);
  if (!new_rows.defined() || new_rows.dim() != 2 || new_rows.size(1) != dim) {
    return Status::InvalidArgument("appended rows must be [m, " +
                                   std::to_string(dim) + "]");
  }
  if (!IsFloatingPoint(new_rows.dtype())) {
    return Status::TypeError("IVF index needs float embeddings");
  }
  const Tensor rows = new_rows.Detach()
                          .Contiguous()
                          .To(DType::kFloat32)
                          .To(centroids_.device());
  const int64_t m = rows.size(0);
  if (m == 0) return Status::InvalidArgument("no rows to append");

  IvfIndex index;
  index.num_rows_ = num_rows_ + m;
  index.centroids_ = centroids_;
  index.lists_ = lists_;

  const Tensor norms =
      Sqrt(Sum(Mul(rows, rows), /*dim=*/1, /*keepdim=*/false));
  const Tensor ones =
      Tensor::Full({1}, 1.0f, DType::kFloat32, rows.device());
  index.rows_unit_norm_ =
      rows_unit_norm_ && MaxAll(Abs(Sub(norms, ones))).item<float>() < 1e-3f;

  // Nearest existing centroid by inner product, exactly like the k-means
  // assign step.
  const Tensor scores = MatMul(rows, Transpose(centroids_, 0, 1));
  const std::vector<int64_t> assignment =
      ArgMax(scores, 1, false).ToVector<int64_t>();
  const int64_t base = num_rows();
  for (int64_t i = 0; i < m; ++i) {
    index.lists_[static_cast<size_t>(assignment[static_cast<size_t>(i)])]
        .push_back(base + i);
  }
  return index;
}

IvfIndex IvfIndex::WithRenumbered(const std::vector<int64_t>& new_ids) const {
  TDP_CHECK_EQ(static_cast<int64_t>(new_ids.size()), num_rows_);
  IvfIndex index;
  index.centroids_ = centroids_;
  index.rows_unit_norm_ = rows_unit_norm_;
  index.lists_.resize(lists_.size());
  for (size_t c = 0; c < lists_.size(); ++c) {
    for (int64_t id : lists_[c]) {
      const int64_t renumbered = new_ids[static_cast<size_t>(id)];
      if (renumbered >= 0) index.lists_[c].push_back(renumbered);
    }
    index.num_rows_ += static_cast<int64_t>(index.lists_[c].size());
  }
  return index;
}

StatusOr<std::vector<int64_t>> IvfIndex::ProbeCandidates(
    const Tensor& query, int64_t num_probes, int64_t min_candidates,
    const std::vector<uint8_t>* selection) const {
  if (num_probes <= 0) {
    return Status::InvalidArgument("num_probes must be positive, got " +
                                   std::to_string(num_probes));
  }
  if (selection != nullptr &&
      static_cast<int64_t>(selection->size()) != num_rows()) {
    return Status::InvalidArgument(
        "selection bitmap has " + std::to_string(selection->size()) +
        " entries, index has " + std::to_string(num_rows()) + " rows");
  }
  const int64_t dim = centroids_.size(1);
  if (!query.defined() || query.numel() != dim) {
    return Status::InvalidArgument(
        "query dimension mismatch: index has d=" + std::to_string(dim) +
        ", query has " +
        std::to_string(query.defined() ? query.numel() : 0) +
        " element(s)");
  }
  const Tensor q = Reshape(
      query.Detach().To(DType::kFloat32).To(centroids_.device()), {dim, 1});

  // Rank cells by centroid score; visit the top `num_probes` non-empty
  // ones (empty cells left over from k-means are skipped, never counted
  // against the probe budget), then keep probing — best cell first —
  // while fewer than `min_candidates` rows were collected: the budget
  // dials recall, never the result's row count. A selection bitmap
  // narrows "member" to "selected member": a cell whose members are all
  // pruned is as useless as an empty one, so it costs no budget either.
  const Tensor cell_scores = Squeeze(MatMul(centroids_, q), 1);
  const Tensor cell_order = ArgSort(cell_scores, /*descending=*/true);
  std::vector<int64_t> candidates;
  int64_t probed = 0;
  for (int64_t p = 0; p < num_lists(); ++p) {
    if (probed >= num_probes &&
        static_cast<int64_t>(candidates.size()) >= min_candidates) {
      break;
    }
    const int64_t cell = static_cast<int64_t>(cell_order.At({p}));
    const auto& members = lists_[static_cast<size_t>(cell)];
    const size_t before = candidates.size();
    if (selection == nullptr) {
      candidates.insert(candidates.end(), members.begin(), members.end());
    } else {
      for (int64_t id : members) {
        if ((*selection)[static_cast<size_t>(id)]) candidates.push_back(id);
      }
    }
    if (candidates.size() == before) continue;  // empty / fully pruned
    ++probed;
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

}  // namespace index
}  // namespace tdp
