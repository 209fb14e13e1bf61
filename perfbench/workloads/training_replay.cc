// The training replay: the paper's Fig. 3 MNIST-grid trainable query, run
// by one thread in `multimodal`'s traced run, after its mix.
//
// `SELECT Digit, Size, COUNT(*) FROM parse_mnist_grid(MNIST_Grid) GROUP BY
// Digit, Size` compiled trainable (soft group-by over the TVF's CNN
// parsers). An iteration re-registers one grid, runs RunChunk, the MSE
// loss against the grid's true counts, and Backward; an Adam step runs
// every 8 iterations, as in fig3_mnistgrid. The replay gives the layers
// only training reaches (autograd, nn's loss and optimizer, the soft
// operators) their per-layer metrics.
//
// It is not a workload of its own: its figures follow the host more than
// the engine. A training iteration is a few ms of small, compute-bound
// kernels on one thread, and on a shared host that thread runs 1.6-1.7x
// slower for minutes at a time while other tenants keep the same cores
// busy; the query workloads slow by about 1.2x there.

#include "perfbench/workloads/common.h"
#include "src/autograd/node.h"
#include "src/data/mnist_grid.h"
#include "src/models/tvfs.h"
#include "src/nn/loss.h"
#include "src/nn/optim.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace perfbench {
namespace {

constexpr int64_t kTrainGrids = 128;
constexpr int64_t kTestGrids = 32;
constexpr int kAccumulation = 8;
constexpr int kKernelReps = 20;
constexpr char kSql[] =
    "SELECT Digit, Size, COUNT(*) FROM parse_mnist_grid(MNIST_Grid) "
    "GROUP BY Digit, Size";

Status RegisterGrid(Session& session, const Tensor& grids, int64_t index) {
  auto table = TableBuilder("MNIST_Grid")
                   .AddTensor("image", Slice(grids, 0, index, 1).Contiguous())
                   .Build();
  if (!table.ok()) return table.status();
  return session.RegisterTable("MNIST_Grid", table.value(), Device::kAccel);
}

class TrainingReplay {
 public:
  explicit TrainingReplay(uint64_t seed) {
    Rng rng(seed * 6364136223846793005ull + 13);
    train_ = data::MakeMnistGridDataset(kTrainGrids, rng);
    test_ = data::MakeMnistGridDataset(kTestGrids, rng);
  }
  std::vector<SpanRecord> Run(double seconds, Report& report, Tally& checks);

 private:
  void Setup();
  bool Iteration();
  double TestMse();

  data::MnistGridDataset train_, test_;
  Session session_;
  models::ParseMnistGridTvf tvf_;
  std::shared_ptr<exec::CompiledQuery> query_;
  std::unique_ptr<nn::Adam> optimizer_;
  int64_t iteration_ = 0;
};

void TrainingReplay::Setup() {
  Rng model_rng(7);
  auto tvf = models::RegisterParseMnistGridTvf(session_.functions(), model_rng);
  if (!tvf.ok()) Fail(tvf.status().ToString());
  tvf_ = *tvf;
  if (!RegisterGrid(session_, train_.grids, 0).ok()) Fail("register grid");
  QueryOptions options;
  options.trainable = true;
  auto query = session_.Query(kSql, options);
  if (!query.ok()) Fail(query.status().ToString());
  query_ = *query;
  optimizer_ = std::make_unique<nn::Adam>(query_->Parameters(), 0.002);
  // Warm-up: one accumulation round and its optimizer step.
  for (int i = 0; i < kAccumulation; ++i) {
    if (!Iteration()) Fail("warm-up iteration failed");
  }
}

bool TrainingReplay::Iteration() {
  const int64_t i = iteration_ % kTrainGrids;
  {
    ScopedSpan span("storage.register");
    if (!RegisterGrid(session_, train_.grids, i).ok()) return false;
  }
  auto chunk = [&] {
    ScopedSpan span("exec.run.soft_forward");
    return query_->RunChunk();
  }();
  if (!chunk.ok()) return false;
  const Tensor target =
      Slice(train_.counts, 0, i, 1).Squeeze(0).To(Device::kAccel);
  Tensor loss = [&] {
    ScopedSpan span("nn.loss");
    return nn::MSELoss(chunk->columns[2].data(), target);
  }();
  {
    ScopedSpan span("autograd.backward");
    MulScalar(loss, 1.0 / kAccumulation).Backward();
  }
  if (++iteration_ % kAccumulation == 0) {
    ScopedSpan span("nn.optimizer");
    optimizer_->Step();
    optimizer_->ZeroGrad();
  }
  return true;
}

/// Mean MSE of the query's predicted counts on the held-out grids.
double TrainingReplay::TestMse() {
  autograd::NoGradGuard no_grad;
  double total = 0;
  for (int64_t i = 0; i < kTestGrids; ++i) {
    if (!RegisterGrid(session_, test_.grids, i).ok()) Fail("register test");
    auto chunk = query_->RunChunk();
    if (!chunk.ok()) Fail(chunk.status().ToString());
    const Tensor target =
        Slice(test_.counts, 0, i, 1).Squeeze(0).To(Device::kAccel);
    total += nn::MSELoss(chunk->columns[2].data(), target).item<double>();
  }
  return total / static_cast<double>(kTestGrids);
}

std::vector<SpanRecord> TrainingReplay::Run(double seconds, Report& report,
                                            Tally& checks) {
  Setup();
  const double mse_before = TestMse();

  Tally iterations;
  Tracer::Get().set_enabled(true);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  // Whole accumulation rounds, so that the replay ends on an Adam step.
  while (Clock::now() < deadline) {
    for (int i = 0; i < kAccumulation; ++i) iterations.Record(Iteration());
  }
  Tracer::Get().set_enabled(false);

  Check(checks, iterations.failed == 0,
        std::to_string(iterations.failed) + " of " +
            std::to_string(iterations.attempted) +
            " training iterations failed");
  const double mse_after = TestMse();
  Check(checks, mse_after < mse_before,
        "held-out MSE " + std::to_string(mse_after) +
            " must be below its pre-replay value " + std::to_string(mse_before));

  {
    autograd::NoGradGuard no_grad;
    const Tensor tiles = data::GridToTiles(
        Slice(train_.grids, 0, 0, 1).Contiguous().To(Device::kAccel));
    report.Set("models.parser_forward_ms", MedianMs(kKernelReps, [&] {
                 (void)tvf_.digit_parser->Forward(tiles);
                 (void)tvf_.size_parser->Forward(tiles);
               }),
               "ms");
  }
  std::vector<SpanRecord> spans = Tracer::Get().Collect();
  const auto stats = Aggregate(spans);
  report.Set("exec.run_ms.soft_forward",
             SpanP50Ms(stats, "exec.run.soft_forward"), "ms");
  report.Set("nn.loss_ms", SpanMeanMs(stats, "nn.loss"), "ms");
  report.Set("autograd.backward_ms", SpanMeanMs(stats, "autograd.backward"),
             "ms");
  report.Set("nn.optimizer_ms", SpanMeanMs(stats, "nn.optimizer"), "ms");
  return spans;
}

}  // namespace

std::vector<SpanRecord> RunTrainingReplay(uint64_t seed, double seconds,
                                          Report& report, Tally& checks) {
  TrainingReplay replay(seed);
  return replay.Run(seconds, report, checks);
}

}  // namespace perfbench
}  // namespace tdp
