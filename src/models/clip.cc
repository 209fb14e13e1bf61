#include "src/models/clip.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/string_util.h"
#include "src/data/attachments.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace models {
namespace {

using data::Concept;

constexpr int64_t kPatch = 2;     // 2x2 average pooling
constexpr int64_t kPooled = 16;   // 32 / 2
constexpr int64_t kFeatureDim =
    data::kImageChannels * kPooled * kPooled + 2 * data::kImageChannels;
constexpr int64_t kHiddenDim = 512;
constexpr int64_t kPrototypesPerConcept = 16;

// Concept groups for coarse queries.
const std::vector<Concept> kPhotoConcepts = {
    Concept::kDog, Concept::kCat, Concept::kBeach, Concept::kMountain};
const std::vector<Concept> kReceiptConcepts = {Concept::kStoreReceipt,
                                               Concept::kKfcReceipt};
const std::vector<Concept> kLogoConcepts = {
    Concept::kKfcLogo, Concept::kAcmeLogo, Concept::kGlobexLogo};

}  // namespace

SimClip::SimClip(uint64_t seed) {
  Rng rng(seed);
  DeviceParams& cpu = params_[static_cast<size_t>(Device::kCpu)];
  cpu.w1 = RandNormal({kFeatureDim, kHiddenDim}, 0.0,
                      1.0 / std::sqrt(static_cast<double>(kFeatureDim)), rng);
  cpu.b1 = RandNormal({kHiddenDim}, 0.0, 0.1, rng);
  cpu.w2 = RandNormal({kHiddenDim, kEmbeddingDim}, 0.0,
                      1.0 / std::sqrt(static_cast<double>(kHiddenDim)), rng);

  // Feature whitening statistics over a sample of every concept: without
  // centering, all-positive pixel statistics collapse every embedding into
  // a narrow cone and concepts stop being separable.
  {
    std::vector<Tensor> sample;
    Rng stats_rng = rng.Split();
    for (int64_t ci = 0; ci < data::kNumConcepts; ++ci) {
      for (int i = 0; i < 8; ++i) {
        sample.push_back(Unsqueeze(
            data::RenderConceptImage(static_cast<Concept>(ci), stats_rng),
            0));
      }
    }
    const Tensor features = ComputeFeatures(Cat(sample, 0));
    cpu.feature_mean = Mean(features, 0, /*keepdim=*/true);
    const Tensor centered = Sub(features, cpu.feature_mean);
    const Tensor var = Mean(Mul(centered, centered), 0, /*keepdim=*/true);
    cpu.feature_scale = RDivScalar(1.0, Sqrt(AddScalar(var, 1e-4)));
  }

  // Build prototype (text-side) embeddings from freshly sampled concept
  // images — this is the "training" that aligns the two modalities.
  auto prototype = [&](const std::vector<Concept>& concepts) {
    std::vector<Tensor> images;
    Rng proto_rng = rng.Split();
    for (Concept c : concepts) {
      for (int64_t i = 0; i < kPrototypesPerConcept; ++i) {
        images.push_back(
            Unsqueeze(data::RenderConceptImage(c, proto_rng), 0));
      }
    }
    const Tensor batch = Cat(images, 0);
    const Tensor embeddings = EncodeImages(batch);
    Tensor centroid = Mean(embeddings, 0, /*keepdim=*/false);
    return L2Normalize(Unsqueeze(centroid, 0), 1).Squeeze(0).Contiguous();
  };

  std::map<std::string, Tensor>& text = cpu.text_embeddings;
  text["dog"] = prototype({Concept::kDog});
  text["cat"] = prototype({Concept::kCat});
  text["beach"] = prototype({Concept::kBeach});
  text["mountain"] = prototype({Concept::kMountain});
  text["photo"] = prototype(kPhotoConcepts);
  text["photograph"] = text["photo"];
  text["receipt"] = prototype(kReceiptConcepts);
  text["kfc receipt"] = prototype({Concept::kKfcReceipt});
  text["store receipt"] = prototype({Concept::kStoreReceipt});
  text["logo"] = prototype(kLogoConcepts);
  text["company logo"] = text["logo"];
  text["kfc logo"] = prototype({Concept::kKfcLogo});
  text["acme logo"] = prototype({Concept::kAcmeLogo});
  text["globex logo"] = prototype({Concept::kGlobexLogo});

  DeviceParams& accel = params_[static_cast<size_t>(Device::kAccel)];
  accel.w1 = cpu.w1.To(Device::kAccel);
  accel.b1 = cpu.b1.To(Device::kAccel);
  accel.w2 = cpu.w2.To(Device::kAccel);
  accel.feature_mean = cpu.feature_mean.To(Device::kAccel);
  accel.feature_scale = cpu.feature_scale.To(Device::kAccel);
  for (const auto& [key, embedding] : text) {
    accel.text_embeddings[key] = embedding.To(Device::kAccel);
  }
}

Tensor SimClip::ComputeFeatures(const Tensor& images) const {
  TDP_CHECK_EQ(images.dim(), 4);
  TDP_CHECK_EQ(images.size(1), data::kImageChannels);
  const int64_t n = images.size(0);

  // Patch statistics: 4x4 average pooling -> [n, 3*8*8].
  const Tensor pooled = AvgPool2d(images, kPatch, kPatch);
  const Tensor patches =
      Reshape(pooled, {n, data::kImageChannels * kPooled * kPooled});

  // Channel means and variances -> [n, 6].
  const Tensor flat =
      Reshape(images, {n, data::kImageChannels,
                       data::kImageSize * data::kImageSize});
  const Tensor channel_mean = Mean(flat, 2, /*keepdim=*/true);
  const Tensor centered = Sub(flat, channel_mean);
  const Tensor channel_var = Mean(Mul(centered, centered), 2, false);

  return Cat({patches, Squeeze(channel_mean, 2), channel_var}, 1);
}

Tensor SimClip::EncodeImages(const Tensor& images) const {
  const DeviceParams& params = ParamsOn(images.device());
  const Tensor features = ComputeFeatures(images);
  const Tensor whitened = Mul(Sub(features, params.feature_mean),
                              params.feature_scale);
  const Tensor h = Tanh(Add(MatMul(whitened, params.w1), params.b1));
  const Tensor e = MatMul(h, params.w2);
  return L2Normalize(e, 1);
}

StatusOr<Tensor> SimClip::TextEmbedding(const std::string& query,
                                        Device device) const {
  const std::map<std::string, Tensor>& text = ParamsOn(device).text_embeddings;
  const std::string q = ToLower(query);
  // Longest matching concept phrase wins ("kfc receipt" beats "receipt").
  const std::string* best_key = nullptr;
  for (const auto& [key, unused] : text) {
    if (q.find(key) != std::string::npos) {
      if (best_key == nullptr || key.size() > best_key->size()) {
        best_key = &key;
      }
    }
  }
  if (best_key == nullptr) {
    return Status::NotFound("SimCLIP has no concept matching query: '" +
                            query + "'");
  }
  return text.at(*best_key);
}

StatusOr<Tensor> SimClip::EncodeText(const std::string& query) const {
  return TextEmbedding(query, Device::kCpu);
}

StatusOr<Tensor> SimClip::Similarity(const std::string& query,
                                     const Tensor& images) const {
  TDP_ASSIGN_OR_RETURN(Tensor text, TextEmbedding(query, images.device()));
  const Tensor image_embeddings = EncodeImages(images);
  // [n, 64] @ [64, 1] -> [n]
  const Tensor scores = MatMul(image_embeddings, Unsqueeze(text, 1));
  return Squeeze(scores, 1).Contiguous();
}

std::vector<std::string> SimClip::Vocabulary() const {
  std::vector<std::string> out;
  for (const auto& [key, unused] : ParamsOn(Device::kCpu).text_embeddings) {
    out.push_back(key);
  }
  return out;
}

Status RegisterImageTextSimilarityUdf(
    udf::FunctionRegistry& registry, std::shared_ptr<const SimClip> clip) {
  udf::ScalarFunction fn;
  fn.name = "image_text_similarity";
  fn.return_type = udf::DeclaredType::kFloat;
  // Row-local: each image's score depends only on that image and the query
  // string, so micro-batching and cross-query coalescing are exact.
  fn.batchable = true;
  fn.preferred_batch_rows = 128;
  fn.fn = [clip](const std::vector<udf::Argument>& args, int64_t num_rows,
                 Device device) -> StatusOr<Column> {
    if (args.size() != 2 || !args[0].is_scalar ||
        !args[0].scalar.is_string() || args[1].is_scalar) {
      return Status::InvalidArgument(
          "image_text_similarity(query_string, image_column)");
    }
    const Column& images = args[1].column;
    if (!images.IsTensorColumn()) {
      return Status::TypeError(
          "image_text_similarity expects an image tensor column");
    }
    (void)num_rows;
    (void)device;  // kernels follow the column's device
    TDP_ASSIGN_OR_RETURN(
        Tensor scores,
        clip->Similarity(args[0].scalar.string_value(), images.data()));
    return Column::Plain(scores);
  };
  return registry.RegisterScalar(std::move(fn));
}

}  // namespace models
}  // namespace tdp
