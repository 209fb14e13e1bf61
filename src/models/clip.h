#ifndef TDP_MODELS_CLIP_H_
#define TDP_MODELS_CLIP_H_

#include <array>
#include <map>
#include <memory>
#include <string>

#include "src/common/statusor.h"
#include "src/tensor/tensor.h"
#include "src/udf/registry.h"

namespace tdp {
namespace models {

/// SimCLIP: a deterministic joint image/text embedding model standing in
/// for OpenAI CLIP (paper §5.1). See DESIGN.md §4 for the substitution
/// argument: the multimodal queries only rely on matching image/text
/// concept pairs scoring high and non-matching pairs scoring low in a
/// shared embedding space, which SimCLIP provides:
///
///  - the image encoder pools patch statistics and pushes them through a
///    fixed random two-layer projection to a 64-d unit sphere (all tensor
///    ops — so it accelerates on Device::kAccel like any other kernel);
///  - the text encoder maps a natural-language query to the nearest known
///    concept and returns that concept's prototype embedding (the
///    normalized mean embedding of freshly sampled concept images).
///
/// Scores are cosine similarities in [-1, 1]; matching concepts land
/// above ~0.9 and non-matching below ~0.7, so the paper's 0.8 threshold
/// works unchanged.
class SimClip {
 public:
  static constexpr int64_t kEmbeddingDim = 64;

  explicit SimClip(uint64_t seed = 42);

  /// Embeds a batch of [n, 3, 32, 32] images -> [n, 64], rows unit-norm.
  /// Runs on the device of `images`.
  Tensor EncodeImages(const Tensor& images) const;

  /// Embeds a text query -> [64]; NotFound for unknown concepts.
  StatusOr<Tensor> EncodeText(const std::string& query) const;

  /// Cosine similarity between `query` and each image -> [n] float32.
  StatusOr<Tensor> Similarity(const std::string& query,
                              const Tensor& images) const;

  /// Concept names the text encoder understands.
  std::vector<std::string> Vocabulary() const;

 private:
  /// The model's fixed parameters tagged for one device. The accel set
  /// aliases the CPU set's buffers (`Tensor::To(Device)` only retags), so
  /// a forward on either device neither copies nor retags a parameter.
  struct DeviceParams {
    Tensor w1, b1, w2;     // fixed random projection (not trainable)
    Tensor feature_mean;   // centering statistics (prevents cone collapse)
    Tensor feature_scale;  // per-feature inverse stddev
    std::map<std::string, Tensor> text_embeddings;
  };

  const DeviceParams& ParamsOn(Device device) const {
    return params_[static_cast<size_t>(device)];
  }

  /// Raw pooled-patch feature vector per image, [n, feature_dim].
  Tensor ComputeFeatures(const Tensor& images) const;

  /// The embedding of the concept `query` names, on `device`.
  StatusOr<Tensor> TextEmbedding(const std::string& query,
                                 Device device) const;

  std::array<DeviceParams, 2> params_;  // indexed by Device
};

/// Registers the paper's `image_text_similarity(query, images)` scalar UDF
/// (Listing 7) backed by `clip`.
Status RegisterImageTextSimilarityUdf(udf::FunctionRegistry& registry,
                                      std::shared_ptr<const SimClip> clip);

}  // namespace models
}  // namespace tdp

#endif  // TDP_MODELS_CLIP_H_
