#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/autograd/node.h"
#include "src/common/thread_pool.h"
#include "src/data/adult.h"
#include "src/data/mnist_grid.h"
#include "src/models/tvfs.h"
#include "src/nn/layers.h"
#include "src/nn/loss.h"
#include "src/nn/optim.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

// Byte-for-byte equality of two float32 tensors: stricter than
// TensorEqual, which lets -0 match +0 and never matches NaN.
::testing::AssertionResult BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.dtype() != DType::kFloat32 || b.dtype() != DType::kFloat32) {
    return ::testing::AssertionFailure() << "not float32";
  }
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure() << "shapes differ";
  }
  const Tensor ac = a.Detach().Contiguous();
  const Tensor bc = b.Detach().Contiguous();
  const size_t bytes = static_cast<size_t>(ac.numel()) * sizeof(float);
  if (bytes > 0 && std::memcmp(ac.data<float>(), bc.data<float>(), bytes)) {
    return ::testing::AssertionFailure() << "bits differ";
  }
  return ::testing::AssertionSuccess();
}

// The paper's MNISTGrid query (Listing 6): TRAINABLE compilation produces
// a differentiable plan whose COUNT(*) column carries gradients back into
// the TVF's CNNs.
class TrainableQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(42);
  }
  std::unique_ptr<Rng> rng_;
};

TEST_F(TrainableQueryTest, TrainableMnistGridQueryProducesSoftCounts) {
  Session session;
  auto tvf = models::RegisterParseMnistGridTvf(session.functions(), *rng_);
  ASSERT_TRUE(tvf.ok());

  data::MnistGridDataset ds = data::MakeMnistGridDataset(2, *rng_);
  ASSERT_TRUE(session
                  .RegisterTable("MNIST_Grid",
                                 TableBuilder("MNIST_Grid")
                                     .AddTensor("image", ds.grids)
                                     .Build()
                                     .value(),
                                 Device::kAccel)
                  .ok());

  QueryOptions options;
  options.trainable = true;
  auto query = session.Query(
      "SELECT Digit, Size, COUNT(*) FROM parse_mnist_grid(MNIST_Grid) GROUP "
      "BY Digit, Size",
      options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_TRUE((*query)->trainable());
  EXPECT_FALSE((*query)->Parameters().empty());

  auto chunk = (*query)->RunChunk();
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  // Soft group-by enumerates the full 10x2 domain.
  EXPECT_EQ(chunk->num_rows(), data::kNumCountBuckets);
  const Tensor counts = chunk->columns[2].data();
  // Expected counts sum to the number of tiles (2 grids x 9 tiles).
  EXPECT_NEAR(Sum(counts).item<float>(), 18.0f, 1e-2);
  // The count column is differentiable: it has a grad_fn.
  EXPECT_NE(counts.grad_fn(), nullptr);
}

TEST_F(TrainableQueryTest, GradientsReachTvfParameters) {
  Session session;
  auto tvf = models::RegisterParseMnistGridTvf(session.functions(), *rng_);
  ASSERT_TRUE(tvf.ok());
  data::MnistGridDataset ds = data::MakeMnistGridDataset(1, *rng_);
  ASSERT_TRUE(session
                  .RegisterTable("MNIST_Grid",
                                 TableBuilder("MNIST_Grid")
                                     .AddTensor("image", ds.grids)
                                     .Build()
                                     .value(),
                                 Device::kAccel)
                  .ok());
  QueryOptions options;
  options.trainable = true;
  auto query = session.Query(
      "SELECT Digit, Size, COUNT(*) FROM parse_mnist_grid(MNIST_Grid) GROUP "
      "BY Digit, Size",
      options);
  ASSERT_TRUE(query.ok());

  auto chunk = (*query)->RunChunk();
  ASSERT_TRUE(chunk.ok());
  Tensor predicted = chunk->columns[2].data();
  Tensor target = Slice(ds.counts, 0, 0, 1).Squeeze(0).To(Device::kAccel);
  nn::MSELoss(predicted, target).Backward();

  int with_grad = 0;
  for (const Tensor& p : (*query)->Parameters()) {
    if (p.grad().defined()) ++with_grad;
  }
  EXPECT_EQ(with_grad, static_cast<int>((*query)->Parameters().size()))
      << "every CNN parameter should receive a gradient through the "
         "soft group-by";
}

// A soft run is one whole-relation morsel with one batch per ModelEval
// stage, so the scheduling knobs must not move a single bit of the soft
// counts or of any parameter gradient. Three grids make three source rows:
// split into morsels, the soft aggregate would see partial relations (and
// fall back to exact int64 counts); split into model batches, the
// autograd graph — and with it the gradient bits — would change.
TEST_F(TrainableQueryTest, SoftRunsIgnoreSchedulingKnobs) {
  Session session;
  auto tvf = models::RegisterParseMnistGridTvf(session.functions(), *rng_);
  ASSERT_TRUE(tvf.ok());
  data::MnistGridDataset ds = data::MakeMnistGridDataset(3, *rng_);
  ASSERT_TRUE(session
                  .RegisterTable("MNIST_Grid",
                                 TableBuilder("MNIST_Grid")
                                     .AddTensor("image", ds.grids)
                                     .Build()
                                     .value(),
                                 Device::kAccel)
                  .ok());
  QueryOptions options;
  options.trainable = true;
  auto query = session.Query(
      "SELECT Digit, Size, COUNT(*) FROM parse_mnist_grid(MNIST_Grid) GROUP "
      "BY Digit, Size",
      options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const std::vector<Tensor> params = (*query)->Parameters();
  ASSERT_FALSE(params.empty());
  const Tensor target = Sum(ds.counts, 0, false).To(Device::kAccel);

  // The first configuration's soft counts, then every parameter gradient.
  std::vector<Tensor> reference;
  for (const int threads : {1, 4}) {
    ScopedNumThreads guard(threads);
    for (const int64_t morsel_rows : {int64_t{0}, int64_t{1}}) {
      for (const int64_t batch_rows : {int64_t{0}, int64_t{1}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " morsel_rows=" + std::to_string(morsel_rows) +
                     " model_batch_rows=" + std::to_string(batch_rows));
        exec::RunOptions run;
        run.morsel_rows = morsel_rows;
        run.model_batch_rows = batch_rows;
        for (const Tensor& p : params) p.ZeroGrad();
        auto chunk = (*query)->RunChunk(run);
        ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
        const Tensor counts = chunk->columns[2].data();
        ASSERT_NE(counts.grad_fn(), nullptr);
        nn::MSELoss(counts, target).Backward();
        std::vector<Tensor> observed = {counts.Detach()};
        for (const Tensor& p : params) {
          ASSERT_TRUE(p.grad().defined());
          observed.push_back(p.grad());
        }
        if (reference.empty()) {
          reference = std::move(observed);
          continue;
        }
        ASSERT_EQ(observed.size(), reference.size());
        EXPECT_TRUE(BitIdentical(reference[0], observed[0]))
            << "soft counts";
        for (size_t i = 1; i < observed.size(); ++i) {
          EXPECT_TRUE(BitIdentical(reference[i], observed[i]))
              << "gradient of parameter " << i - 1;
        }
      }
    }
  }

  // A cursor over a soft run yields the differentiable result as exactly
  // one chunk, even at one-row morsels.
  exec::RunOptions tiny;
  tiny.morsel_rows = 1;
  auto cursor = (*query)->Open(tiny);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = (*cursor)->Next();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->has_value());
  const Tensor streamed = (**first).columns[2].data();
  EXPECT_NE(streamed.grad_fn(), nullptr);
  EXPECT_TRUE(BitIdentical(reference[0], streamed));
  auto end = (*cursor)->Next();
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_FALSE(end->has_value());
  EXPECT_EQ((*cursor)->chunks_produced(), 1);
}

// The paper's Listing 5 training loop, miniaturized: a few gradient steps
// must reduce the count-prediction loss.
TEST_F(TrainableQueryTest, TrainingLoopReducesLoss) {
  Session session;
  auto tvf = models::RegisterParseMnistGridTvf(session.functions(), *rng_);
  ASSERT_TRUE(tvf.ok());
  data::MnistGridDataset ds = data::MakeMnistGridDataset(6, *rng_);

  QueryOptions options;
  options.trainable = true;
  // Register once so compilation can bind (re-registered every iteration).
  ASSERT_TRUE(session
                  .RegisterTable("MNIST_Grid",
                                 TableBuilder("MNIST_Grid")
                                     .AddTensor("image",
                                                Slice(ds.grids, 0, 0, 1)
                                                    .Contiguous())
                                     .Build()
                                     .value(),
                                 Device::kAccel)
                  .ok());
  auto query = session.Query(
      "SELECT Digit, Size, COUNT(*) FROM parse_mnist_grid(MNIST_Grid) GROUP "
      "BY Digit, Size",
      options);
  ASSERT_TRUE(query.ok());

  nn::Adam optimizer((*query)->Parameters(), 0.01);
  double first_window = 0, last_window = 0;
  const int iterations = 30;
  for (int it = 0; it < iterations; ++it) {
    const int64_t i = it % 6;
    ASSERT_TRUE(session
                    .RegisterTable("MNIST_Grid",
                                   TableBuilder("MNIST_Grid")
                                       .AddTensor("image",
                                                  Slice(ds.grids, 0, i, 1)
                                                      .Contiguous())
                                       .Build()
                                       .value(),
                                   Device::kAccel)
                    .ok());
    optimizer.ZeroGrad();
    auto chunk = (*query)->RunChunk();
    ASSERT_TRUE(chunk.ok());
    Tensor predicted = chunk->columns[2].data();
    Tensor target = Slice(ds.counts, 0, i, 1).Squeeze(0).To(Device::kAccel);
    Tensor loss = nn::MSELoss(predicted, target);
    if (it < 6) first_window += loss.item<double>();
    if (it >= iterations - 6) last_window += loss.item<double>();
    loss.Backward();
    optimizer.Step();
  }
  EXPECT_LT(last_window, first_window)
      << "training should reduce the grouped-count MSE";
}

TEST_F(TrainableQueryTest, InferenceModeSwapsToExactOperators) {
  Session session;
  auto tvf = models::RegisterParseMnistGridTvf(session.functions(), *rng_);
  ASSERT_TRUE(tvf.ok());
  data::MnistGridDataset ds = data::MakeMnistGridDataset(1, *rng_);
  ASSERT_TRUE(session
                  .RegisterTable("MNIST_Grid",
                                 TableBuilder("MNIST_Grid")
                                     .AddTensor("image", ds.grids)
                                     .Build()
                                     .value(),
                                 Device::kAccel)
                  .ok());
  QueryOptions options;
  options.trainable = true;
  auto query = session.Query(
      "SELECT Digit, Size, COUNT(*) FROM parse_mnist_grid(MNIST_Grid) GROUP "
      "BY Digit, Size",
      options);
  ASSERT_TRUE(query.ok());

  // Training mode: soft counts over the full domain (20 rows, fractional).
  auto soft = (*query)->RunChunk();
  ASSERT_TRUE(soft.ok());
  EXPECT_EQ(soft->num_rows(), 20);

  // Inference mode (per-run override, the plan itself stays immutable):
  // exact operators — integer counts, observed groups only.
  exec::RunOptions inference;
  inference.training_mode = false;
  auto exact = (*query)->RunChunk(inference);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_LE(exact->num_rows(), 20);
  const Tensor counts = exact->columns[2].data();
  EXPECT_EQ(counts.dtype(), DType::kInt64);
  double total = 0;
  for (int64_t r = 0; r < counts.numel(); ++r) total += counts.At({r});
  EXPECT_EQ(total, 9.0);  // 9 tiles, integer counts
}

// LLP (paper §5.3): train the linear classifier from bag counts only.
TEST_F(TrainableQueryTest, LlpQueryLearnsFromCounts) {
  Session session;
  auto tvf = models::RegisterClassifyIncomesTvf(session.functions(),
                                                data::kAdultNumFeatures,
                                                *rng_);
  ASSERT_TRUE(tvf.ok());

  data::AdultDataset train = data::MakeAdultDataset(512, *rng_);
  data::LlpBags bags = data::MakeBags(train, /*bag_size=*/32,
                                      /*laplace_scale=*/0.0, *rng_);

  QueryOptions options;
  options.trainable = true;
  ASSERT_TRUE(session
                  .RegisterTable("Adult_Income_Bag",
                                 TableBuilder("Adult_Income_Bag")
                                     .AddTensor("features",
                                                bags.bag_features[0])
                                     .Build()
                                     .value(),
                                 Device::kAccel)
                  .ok());
  auto query = session.Query(
      "SELECT Income, COUNT(*) FROM classify_incomes(Adult_Income_Bag) "
      "GROUP BY Income",
      options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  nn::Adam optimizer((*query)->Parameters(), 0.05);
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (size_t b = 0; b < bags.bag_features.size(); ++b) {
      ASSERT_TRUE(session
                      .RegisterTable("Adult_Income_Bag",
                                     TableBuilder("Adult_Income_Bag")
                                         .AddTensor("features",
                                                    bags.bag_features[b])
                                         .Build()
                                         .value(),
                                     Device::kAccel)
                      .ok());
      optimizer.ZeroGrad();
      auto chunk = (*query)->RunChunk();
      ASSERT_TRUE(chunk.ok());
      Tensor predicted = chunk->columns[1].data();
      Tensor target =
          Slice(bags.counts, 0, static_cast<int64_t>(b), 1).Squeeze(0);
      nn::MSELoss(predicted, target.To(Device::kAccel)).Backward();
      optimizer.Step();
    }
  }

  // Instance-level accuracy of the bag-trained classifier must beat chance
  // comfortably (paper: close to fully-supervised for small bags).
  data::AdultDataset test = data::MakeAdultDataset(512, *rng_);
  autograd::NoGradGuard no_grad;
  auto* linear = static_cast<nn::Linear*>(tvf->model.get());
  const Tensor logits = linear->Forward(test.features.To(Device::kAccel));
  const Tensor pred = ArgMax(logits, 1, false);
  int64_t correct = 0;
  for (int64_t i = 0; i < 512; ++i) {
    if (pred.At({i}) == test.labels.At({i})) ++correct;
  }
  EXPECT_GT(correct, 350) << "LLP-trained classifier accuracy too low: "
                          << correct << "/512";
}

}  // namespace
}  // namespace tdp
