// multimodal: the paper's Fig. 2 workload, a closed loop of 2 clients.
//
// fig2_multimodal's CI-scale corpus (200 synthetic attachment images) is
// scored by the image_text_similarity UDF (SimClip). Three query shapes in
// equal shares, with concepts drawn from the seed out of the model's
// vocabulary; concurrent same-concept calls may coalesce in the
// InferenceScheduler. Ops run Session::Prepare + CompiledQuery::Run (the
// two halves of Session::Sql). The traced run ends with the training
// replay (training_replay.cc): the paper's Fig. 3 trainable query, whose
// figures are per-layer only.

#include "perfbench/workloads/common.h"
#include "src/data/attachments.h"
#include "src/models/clip.h"
#include "src/runtime/inference_scheduler.h"
#include "src/runtime/session.h"
#include "src/tensor/scratch.h"

namespace tdp {
namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kSetupReps = 5;
constexpr int kKernelReps = 5;
constexpr int kCheckConcepts = 3;
// The training replay that ends the traced run lasts this share of
// `--seconds`.
constexpr double kTrainingReplayShare = 0.25;

enum Shape { kFilter, kCount, kTopK };
constexpr int kShapes = 3;
constexpr const char* kShapeNames[] = {"udf_filter", "udf_count", "udf_topk"};
constexpr const char* kRunSpans[] = {"exec.run.udf_filter", "exec.run.udf_count",
                                     "exec.run.udf_topk"};

std::string ShapeSql(int shape, const std::string& concept_name) {
  const std::string sim =
      "image_text_similarity('" + concept_name + "', images)";
  switch (shape) {
    case kFilter:
      return "SELECT filename FROM Attachments WHERE " + sim + " > 0.80";
    case kCount:
      return "SELECT COUNT(*) FROM Attachments WHERE " + sim + " > 0.80";
    default:
      return "SELECT filename, " + sim +
             " AS score FROM Attachments ORDER BY score DESC LIMIT 2";
  }
}

class Multimodal {
 public:
  explicit Multimodal(const RunConfig& config) : config_(config) {}
  RunResult Run();

 private:
  double Setup();
  Window Loop(double seconds);
  void Checks(Tally& checks);

  const RunConfig config_;
  data::AttachmentDataset corpus_;
  std::shared_ptr<Table> table_;
  std::vector<std::string> vocabulary_;
  std::shared_ptr<models::SimClip> clip_;
  std::unique_ptr<Session> session_;
};

double Multimodal::Setup() {
  session_.reset();
  session_ = std::make_unique<Session>();
  const auto start = Clock::now();
  {
    ScopedSpan span("storage.register");
    if (!session_->RegisterTable("Attachments", table_).ok()) {
      Fail("register Attachments failed");
    }
  }
  clip_ = std::make_shared<models::SimClip>();
  if (!models::RegisterImageTextSimilarityUdf(session_->functions(), clip_)
           .ok()) {
    Fail("UDF registration failed");
  }
  // Compile every (shape, concept) statement; run each shape once.
  for (int s = 0; s < kShapes; ++s) {
    for (const std::string& c : vocabulary_) {
      if (!session_->Prepare(ShapeSql(s, c)).ok()) Fail(ShapeSql(s, c));
    }
    if (!session_->Sql(ShapeSql(s, vocabulary_[0])).ok()) {
      Fail(ShapeSql(s, vocabulary_[0]));
    }
  }
  return MsSince(start) / 1000.0;
}

Window Multimodal::Loop(double seconds) {
  return RunClosedLoop(
      kClients, seconds, [&](int client, Clock::time_point deadline) {
        Rng rng(config_.seed * 31337 + static_cast<uint64_t>(client) * 101);
        Deck shapes(std::vector<int>(kShapes, 1), rng.Split());
        Window w;
        while (Clock::now() < deadline) {
          const int shape = shapes.Next();
          const std::string sql = ShapeSql(
              shape, vocabulary_[rng.NextUint64(vocabulary_.size())]);
          RequestScope request;
          ScopedSpan span(kOpSpan);
          const auto start = Clock::now();
          auto query = [&] {
            ScopedSpan prepare("session.prepare");
            return session_->Prepare(sql);
          }();
          bool ok = query.ok();
          if (ok) {
            ScopedSpan run(kRunSpans[shape]);
            auto result = (*query)->Run(exec::RunOptions{});
            ok = result.ok() &&
                 (shape != kCount || (*result)->num_rows() == 1) &&
                 (shape != kTopK || (*result)->num_rows() == 2);
            if (!ok) NoteFailure(sql);
          }
          w.ops.Record(ok);
          if (ok) w.AddOp(MsSince(start));
        }
        return w;
      });
}

/// fig2_multimodal's cross-backend check: udf_count returns the same count
/// on the reference (kCpu) and accelerated backends; and udf_filter
/// returns as many rows as udf_count counts.
void Multimodal::Checks(Tally& checks) {
  Rng rng(config_.seed * 3 + 1);
  QueryOptions cpu, accel;
  cpu.device = Device::kCpu;
  accel.device = Device::kAccel;
  for (int i = 0; i < kCheckConcepts; ++i) {
    const std::string c = vocabulary_[rng.NextUint64(vocabulary_.size())];
    auto on_accel = session_->Sql(ShapeSql(kCount, c), accel);
    auto on_cpu = session_->Sql(ShapeSql(kCount, c), cpu);
    auto rows = session_->Sql(ShapeSql(kFilter, c), accel);
    const bool ok = on_accel.ok() && on_cpu.ok() && rows.ok();
    const double a = ok ? (*on_accel)->column(0).data().At({0}) : -1;
    const double b = ok ? (*on_cpu)->column(0).data().At({0}) : -2;
    Check(checks, ok && a == b,
          "udf_count('" + c + "') accel " + std::to_string(a) + " vs cpu " +
              std::to_string(b));
    Check(checks, ok && static_cast<double>((*rows)->num_rows()) == a,
          "udf_filter('" + c + "') rows vs udf_count");
  }
}

RunResult Multimodal::Run() {
  RunResult out;
  Rng rng(config_.seed * 2654435761u + 11);
  corpus_ = data::MakeAttachmentDataset(100, 50, 50, rng);
  auto table = TableBuilder("Attachments")
                   .AddStrings("filename", corpus_.filenames)
                   .AddTensor("images", corpus_.images)
                   .Build();
  if (!table.ok()) Fail(table.status().ToString());
  table_ = table.value();
  vocabulary_ = models::SimClip().Vocabulary();

  Tracer::Get().set_enabled(config_.trace);
  const double setup_s =
      MedianSetupSeconds(config_.trace ? 1 : kSetupReps, [&] { return Setup(); });
  Tracer::Get().set_enabled(false);

  if (!config_.trace) {
    const Window window = Loop(config_.seconds);
    const double rss = Usage::Now().max_rss_mb;
    out.ops.Merge(window.ops);
    ReportEndToEnd(out.report, window, setup_s, rss);
    Checks(out.checks);
    return out;
  }

  runtime::InferenceScheduler& scheduler = runtime::InferenceScheduler::Global();
  const auto sched_before = scheduler.stats();
  const int64_t growths_before = ScratchArena::growth_count();
  const Window untraced = Loop(config_.seconds);
  const int64_t growths = ScratchArena::growth_count() - growths_before;
  const auto sched_after = scheduler.stats();
  Tracer::Get().set_enabled(true);
  const Window traced = Loop(config_.seconds / 2);
  Tracer::Get().set_enabled(false);

  Report& r = out.report;
  const double calls =
      static_cast<double>(std::max<int64_t>(sched_after.calls - sched_before.calls, 1));
  r.Set("inference.forwards_per_call",
        static_cast<double>(sched_after.forwards - sched_before.forwards) / calls,
        "ratio");
  r.Set("inference.coalesced_share",
        static_cast<double>(sched_after.coalesced_requests -
                            sched_before.coalesced_requests) /
            calls,
        "ratio");
  r.Set("inference.direct_share",
        static_cast<double>(sched_after.direct_calls - sched_before.direct_calls) /
            calls,
        "ratio");
  r.Set("tensor.scratch_growths", static_cast<double>(growths), "count");

  const Tensor images = corpus_.images.To(Device::kAccel);
  const double similarity_ms = MedianMs(kKernelReps, [&] {
    if (!clip_->Similarity(vocabulary_[0], images).ok()) Fail("Similarity");
  });
  r.Set("models.similarity_ms", similarity_ms, "ms");

  const std::vector<SpanRecord> spans = Tracer::Get().Collect();
  const auto stats = Aggregate(spans);
  std::vector<double> udf_runs;
  for (int s = 0; s < kShapes; ++s) {
    r.Set(std::string("exec.run_ms.") + kShapeNames[s],
          SpanP50Ms(stats, kRunSpans[s]), "ms");
    auto it = stats.find(kRunSpans[s]);
    if (it != stats.end()) {
      udf_runs.insert(udf_runs.end(), it->second.ms.begin(), it->second.ms.end());
    }
  }
  r.Set("exec.udf_overhead_ms",
        (udf_runs.empty() ? 0 : Median(udf_runs)) - similarity_ms, "ms");
  r.Set("session.prepare_us_mean", SpanMeanMs(stats, "session.prepare") * 1000,
        "us");
  r.Set("storage.register_ms", SpanMeanMs(stats, "storage.register"), "ms");
  ReportCommonLayers(r, untraced, traced, spans);

  out.ops.Merge(untraced.ops);
  out.ops.Merge(traced.ops);
  Checks(out.checks);

  std::vector<SpanRecord> replay = RunTrainingReplay(
      config_.seed, config_.seconds * kTrainingReplayShare, r, out.checks);
  if (!config_.trace_out.empty()) {
    replay.insert(replay.begin(), spans.begin(), spans.end());
    WriteSpansCsv(config_.trace_out, replay);
  }
  return out;
}

}  // namespace

RunResult RunMultimodal(const RunConfig& config) {
  Multimodal workload(config);
  return workload.Run();
}

}  // namespace perfbench
}  // namespace tdp
