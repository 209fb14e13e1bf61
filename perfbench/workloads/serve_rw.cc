// serve_rw: multi-tenant read/write serving through `server::Engine`.
//
// A closed loop of 3 reader clients and 1 writer client, no think time.
// Four tenants, each with a 16K-row `events` table (int key, int value,
// dictionary tag, float[32] embedding with an IVF index), registered on
// the CPU; plans compile for the default accel device. Readers draw a
// fixed mix of prepared point reads, GROUP BY aggregates, filtered vector
// top-k with a partial probe budget, ORDER BY ... LIMIT, and ad-hoc
// 48-key IN multi-gets that miss the plan cache. The writer cycles INSERT
// a new key / DELETE the oldest key / UPDATE a random key on tenant 0, so
// the live row count stays constant.

#include <map>
#include <mutex>
#include <set>

#include "perfbench/workloads/common.h"
#include "src/index/ivf_index.h"
#include "src/plan/optimizer.h"
#include "src/plan/pipeline.h"
#include "src/server/engine.h"
#include "src/sql/binder.h"
#include "src/sql/lexer.h"
#include "src/sql/parser.h"

namespace tdp {
namespace perfbench {
namespace {

using exec::ScalarValue;

constexpr int kTenants = 4;
constexpr int64_t kRows = 16384;
constexpr int64_t kDim = 32;
constexpr int64_t kTags = 8;
constexpr int64_t kClusters = 8;  // fewer than lists: clusters span lists
constexpr int64_t kLists = 32;
constexpr int64_t kProbes = 4;
constexpr int kReaders = 3;
constexpr int kMultigetKeys = 48;
constexpr int kQueryVectors = 64;
constexpr int kSetupReps = 3;
constexpr int kRetries = 8;
constexpr int kReplayPerFamily = 24;  // per reader client

enum Family { kPoint, kAgg, kVecTopK, kSortLimit, kMultiget, kWrite };
constexpr int kReadFamilies = 5;
constexpr const char* kFamilyNames[] = {"point",      "agg",      "vec_topk",
                                        "sort_limit", "multiget", "write"};
constexpr const char* kRunSpans[] = {
    "exec.run.point",      "exec.run.agg",      "exec.run.vec_topk",
    "exec.run.sort_limit", "exec.run.multiget", "exec.run.write"};
/// Reader mix per 100 ops.
const std::vector<int> kReadMix = {80, 6, 6, 5, 3};
/// tenant_mix's skew: tenant 0 gets half the reads, tenant 1 a quarter.
const std::vector<int> kTenantMix = {4, 2, 1, 1};

constexpr char kPointSql[] = "SELECT k, v, tag FROM events WHERE k = ?";
constexpr char kAggSql[] =
    "SELECT tag, COUNT(*), SUM(v) FROM events WHERE v >= ? GROUP BY tag";
constexpr char kVecSql[] =
    "SELECT k, dot(emb, ?) AS sim FROM events WHERE tag = ? "
    "ORDER BY sim DESC LIMIT 10";
constexpr char kSortSql[] =
    "SELECT k, v FROM events ORDER BY v DESC, k ASC LIMIT 32";
constexpr char kInsertSql[] = "INSERT INTO events VALUES (?, ?, ?, ?)";
constexpr char kDeleteSql[] = "DELETE FROM events WHERE k = ?";
constexpr char kUpdateSql[] = "UPDATE events SET v = ? WHERE k = ?";

std::string TenantName(int t) { return "tenant" + std::to_string(t); }
std::string TagName(int64_t i) { return "tag" + std::to_string(i); }

struct LiveRow {
  int64_t v = 0;
  std::string tag;
};
/// A tenant's live rows by key, as the benchmark wrote them: the oracle's
/// copy of the table.
using Mirror = std::map<int64_t, LiveRow>;

struct Tenant {
  std::shared_ptr<Table> table;  // as generated (registered at set-up)
  Mirror initial;                // rows of `table`
  Mirror rows;                   // live rows, updated by the writer
  std::vector<Tensor> queries;  // query vectors: perturbed stored rows
};

/// One statement as a client issued it.
struct Op {
  int family = kPoint;
  int tenant = 0;
  std::string sql;
  exec::RunOptions run;
  double engine_ms = 0;  // latency through Engine::Sql in the mix
};

std::string InList(const std::vector<int64_t>& keys) {
  std::string out;
  for (size_t i = 0; i < keys.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(keys[i]);
  }
  return out;
}

/// Expected row count bound of a read family (a cheap in-loop sanity
/// check; full results are checked against the oracle after the run).
bool PlausibleRows(int family, int64_t rows) {
  switch (family) {
    case kPoint:
      return rows <= 1;
    case kAgg:
      return rows <= kTags;
    case kVecTopK:
      return rows <= 10;
    case kSortLimit:
      return rows == 32;
    default:
      return rows <= kMultigetKeys;
  }
}

class ServeRw {
 public:
  explicit ServeRw(const RunConfig& config) : config_(config) {}

  RunResult Run();

 private:
  void Generate();
  double Setup();
  Op MakeRead(int family, int tenant, Rng& rng) const;
  Window Mix(double seconds, bool sample);
  Window Reader(int client, Clock::time_point deadline, bool sample);
  Window Writer(Clock::time_point deadline);
  /// One writer step (INSERT, DELETE or UPDATE in turn) through `exec`,
  /// retried on the engine's retryable write-race error.
  template <typename ExecFn>
  bool WriteStep(ExecFn&& exec);
  void ReplaySolo(Report& report);
  void Checks(Tally& checks);
  double Recall();

  const RunConfig config_;
  std::vector<Tenant> tenants_;
  std::unique_ptr<server::Engine> engine_;

  // Writer state (one writer thread at a time): the live key window
  // [lo_, hi_) and the step counter.
  int64_t lo_ = 0;
  int64_t hi_ = kRows;
  int64_t write_steps_ = 0;
  Rng writer_rng_{0};
  int64_t dml_attempts_ = 0;
  int64_t dml_retries_ = 0;

  std::mutex sample_mu_;
  std::vector<Op> sample_;  // reads of the traced window, replayed solo
};

void ServeRw::Generate() {
  Rng rng(config_.seed * 7919 + 1);
  for (int t = 0; t < kTenants; ++t) {
    Tenant tenant;
    std::vector<int64_t> k(kRows), v(kRows);
    std::vector<std::string> tag(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      k[i] = i;
      v[i] = rng.UniformInt(0, 99999);
      tag[i] = TagName(rng.UniformInt(0, kTags - 1));
      tenant.initial[i] = LiveRow{v[i], tag[i]};
    }
    const Tensor emb = ClusteredUnitVectors(kRows, kDim, kClusters, rng);
    auto table = TableBuilder("events")
                     .AddInt64("k", k)
                     .AddInt64("v", v)
                     .AddStrings("tag", tag)
                     .AddTensor("emb", emb)
                     .Build();
    if (!table.ok()) Fail(table.status().ToString());
    tenant.table = table.value();
    for (int q = 0; q < kQueryVectors; ++q) {
      const int64_t row = rng.UniformInt(0, kRows - 1);
      std::vector<float> vec(kDim);
      for (int64_t d = 0; d < kDim; ++d) {
        vec[d] = static_cast<float>(emb.At({row, d}) + 0.05 * rng.Normal());
      }
      tenant.queries.push_back(Tensor::FromVector(vec));
    }
    tenants_.push_back(std::move(tenant));
  }
  writer_rng_ = Rng(config_.seed * 31 + 5);
}

Op ServeRw::MakeRead(int family, int tenant, Rng& rng) const {
  Op op;
  op.family = family;
  op.tenant = tenant;
  switch (family) {
    case kPoint:
      op.sql = kPointSql;
      op.run.params = {ScalarValue::Int(rng.UniformInt(0, kRows - 1))};
      break;
    case kAgg:
      op.sql = kAggSql;
      op.run.params = {ScalarValue::Int(rng.UniformInt(0, 90000))};
      break;
    case kVecTopK: {
      const auto& queries = tenants_[static_cast<size_t>(tenant)].queries;
      op.sql = kVecSql;
      op.run.params = {
          ScalarValue::FromTensor(queries[rng.NextUint64(queries.size())]),
          ScalarValue::String(TagName(rng.UniformInt(0, kTags - 1)))};
      op.run.vector_search.num_probes = kProbes;
      break;
    }
    case kSortLimit:
      op.sql = kSortSql;
      break;
    default: {
      std::vector<int64_t> keys;
      for (int i = 0; i < kMultigetKeys; ++i) {
        keys.push_back(rng.UniformInt(0, kRows - 1));
      }
      op.sql = "SELECT k, v FROM events WHERE k IN (" + InList(keys) + ")";
      break;
    }
  }
  return op;
}

double ServeRw::Setup() {
  engine_.reset();
  engine_ = std::make_unique<server::Engine>();
  // Every repetition starts from the generated data.
  for (auto& tenant : tenants_) tenant.rows = tenant.initial;
  lo_ = 0;
  hi_ = kRows;
  write_steps_ = 0;

  double seconds = 0;
  Rng warm_rng(config_.seed + 99);
  for (int t = 0; t < kTenants; ++t) {
    Session& session = engine_->tenant(TenantName(t));
    const auto start = Clock::now();
    {
      ScopedSpan span("storage.register");
      const Status s =
          session.RegisterTable("events", tenants_[static_cast<size_t>(t)].table);
      if (!s.ok()) Fail(s.ToString());
    }
    {
      ScopedSpan span("index.create");
      index::IvfIndex::Options options;
      options.num_lists = kLists;
      const Status s = session.CreateVectorIndex("events", "emb", options);
      if (!s.ok()) Fail(s.ToString());
    }
    // First compiles and warm-up runs of every statement shape.
    for (int f = 0; f < kReadFamilies; ++f) {
      const Op op = MakeRead(f, t, warm_rng);
      auto result = engine_->Sql({TenantName(t), op.sql, {}, op.run});
      if (!result.ok()) Fail(op.sql + ": " + result.status().ToString());
    }
    seconds += MsSince(start) / 1000.0;
  }
  return seconds;
}

template <typename ExecFn>
bool ServeRw::WriteStep(ExecFn&& exec) {
  Mirror& rows = tenants_[0].rows;
  const int step = static_cast<int>(write_steps_++ % 3);
  std::string sql;
  exec::RunOptions run;
  int64_t key = 0;
  LiveRow row;
  if (step == 0) {
    key = hi_;
    row = LiveRow{writer_rng_.UniformInt(0, 99999),
                  TagName(writer_rng_.UniformInt(0, kTags - 1))};
    const auto& queries = tenants_[0].queries;
    sql = kInsertSql;
    run.params = {ScalarValue::Int(key), ScalarValue::Int(row.v),
                  ScalarValue::String(row.tag),
                  ScalarValue::FromTensor(
                      queries[writer_rng_.NextUint64(queries.size())])};
  } else if (step == 1) {
    key = lo_;
    sql = kDeleteSql;
    run.params = {ScalarValue::Int(key)};
  } else {
    key = lo_ + writer_rng_.UniformInt(0, hi_ - lo_ - 1);
    row = rows.at(key);
    row.v = writer_rng_.UniformInt(0, 99999);
    sql = kUpdateSql;
    run.params = {ScalarValue::Int(row.v), ScalarValue::Int(key)};
  }
  for (int attempt = 0; attempt <= kRetries; ++attempt) {
    ++dml_attempts_;
    auto result = exec(sql, run);
    if (result.ok()) {
      if (step == 0) {
        rows[key] = row;
        ++hi_;
      } else if (step == 1) {
        rows.erase(key);
        ++lo_;
      } else {
        rows[key] = row;
      }
      return true;
    }
    if (result.status().code() != StatusCode::kExecutionError) {
      NoteFailure(sql + ": " + result.status().ToString());
      break;
    }
    ++dml_retries_;
  }
  return false;
}

Window ServeRw::Reader(int client, Clock::time_point deadline, bool sample) {
  Rng rng(config_.seed * 1000003 + static_cast<uint64_t>(client) * 7 + 3);
  Deck families(kReadMix, rng.Split());
  Deck tenants(kTenantMix, rng.Split());
  std::vector<int> sampled(kReadFamilies, 0);
  std::vector<Op> kept;
  Window w;
  while (Clock::now() < deadline) {
    Op op = MakeRead(families.Next(), tenants.Next(), rng);
    RequestScope request;
    ScopedSpan span(kOpSpan);
    const auto start = Clock::now();
    StatusOr<std::shared_ptr<Table>> result = [&] {
      ScopedSpan sql_span("server.sql");
      return engine_->Sql({TenantName(op.tenant), op.sql, {}, op.run});
    }();
    op.engine_ms = MsSince(start);
    const bool ok = result.ok() && PlausibleRows(op.family, (*result)->num_rows());
    if (!ok) {
      NoteFailure(op.sql + ": " +
                  (result.ok() ? std::to_string((*result)->num_rows()) + " rows"
                               : result.status().ToString()));
    }
    w.ops.Record(ok);
    if (ok) w.AddOp(op.engine_ms);
    if (sample && sampled[op.family] < kReplayPerFamily) {
      ++sampled[op.family];
      kept.push_back(std::move(op));
    }
  }
  if (!kept.empty()) {
    std::lock_guard<std::mutex> lock(sample_mu_);
    for (Op& op : kept) sample_.push_back(std::move(op));
  }
  return w;
}

Window ServeRw::Writer(Clock::time_point deadline) {
  Window w;
  while (Clock::now() < deadline) {
    RequestScope request;
    ScopedSpan span(kOpSpan);
    const auto start = Clock::now();
    const bool ok = WriteStep([&](const std::string& sql,
                                  const exec::RunOptions& run) {
      ScopedSpan sql_span("server.sql");
      return engine_->Sql({TenantName(0), sql, {}, run});
    });
    w.ops.Record(ok);
    if (ok) w.AddWrite(MsSince(start));
  }
  return w;
}

Window ServeRw::Mix(double seconds, bool sample) {
  return RunClosedLoop(kReaders + 1, seconds,
                       [&](int client, Clock::time_point deadline) {
                         return client == kReaders
                                    ? Writer(deadline)
                                    : Reader(client, deadline, sample);
                       });
}

/// The traced run's solo replay: the sampled reads of the traced window,
/// one at a time through Session::Prepare + CompiledQuery::Run, and the
/// ad-hoc ones also through the compile steps; then a few writer cycles.
void ServeRw::ReplaySolo(Report& report) {
  std::vector<double> prepare_us, engine_ms, solo_ms;
  double examined = 0, returned = 0;
  for (const Op& op : sample_) {
    Session& session = engine_->tenant(TenantName(op.tenant));
    const auto start = Clock::now();
    auto query = [&] {
      ScopedSpan span("session.prepare");
      return session.Prepare(op.sql);
    }();
    prepare_us.push_back(MsSince(start) * 1000.0);
    if (!query.ok()) Fail(query.status().ToString());
    auto result = [&] {
      ScopedSpan span(kRunSpans[op.family]);
      return (*query)->Run(op.run);
    }();
    if (!result.ok()) Fail(result.status().ToString());
    engine_ms.push_back(op.engine_ms);
    solo_ms.push_back(MsSince(start));
    if (op.family == kPoint) {
      examined += static_cast<double>(
          session.catalog().GetTable("events").value()->num_rows());
      returned += static_cast<double>((*result)->num_rows());
    }
    if (op.family == kMultiget) {
      const auto snapshot = session.catalog().Snapshot();
      { ScopedSpan span("sql.tokenize"); (void)sql::Tokenize(op.sql); }
      auto stmt = [&] {
        ScopedSpan span("sql.parse");
        return sql::ParseStatement(op.sql);
      }();
      if (!stmt.ok()) Fail(stmt.status().ToString());
      auto plan = [&] {
        ScopedSpan span("sql.bind");
        sql::Binder binder(*snapshot, session.functions());
        return binder.Bind(**stmt);
      }();
      if (!plan.ok()) Fail(plan.status().ToString());
      plan::LogicalNodePtr optimized = [&] {
        ScopedSpan span("plan.optimize");
        return plan::Optimize(std::move(plan).value(), snapshot.get());
      }();
      ScopedSpan span("plan.pipelines");
      (void)plan::BuildPipelines(*optimized);
    }
  }
  // Writer cycles, solo, through the tenant-0 session.
  Session& session0 = engine_->tenant(TenantName(0));
  for (int i = 0; i < 3 * 8; ++i) {
    const bool ok = WriteStep([&](const std::string& sql,
                                  const exec::RunOptions& run) {
      auto query = [&] {
        ScopedSpan span("session.prepare");
        return session0.Prepare(sql);
      }();
      if (!query.ok()) return StatusOr<std::shared_ptr<Table>>(query.status());
      ScopedSpan span(kRunSpans[kWrite]);
      return (*query)->Run(run);
    });
    if (!ok) Fail("solo write replay failed");
  }

  report.Set("session.prepare_us_mean", Mean(prepare_us), "us");
  report.Set("server.wait_ms_mean", Mean(engine_ms) - Mean(solo_ms), "ms");
  report.Set("exec.rows_examined_per_row_returned",
             returned > 0 ? examined / returned : 0, "ratio");
}

/// Recall@10 of the partial-probe vector top-k against the exact plan
/// (all probes), over a fixed sample of query vectors and tags.
double ServeRw::Recall() {
  Rng rng(config_.seed * 13 + 11);
  double hit = 0, total = 0;
  for (int t = 0; t < kTenants; ++t) {
    for (int q = 0; q < 8; ++q) {
      Op op = MakeRead(kVecTopK, t, rng);
      Session& session = engine_->tenant(TenantName(t));
      auto approx = session.Sql(op.sql, {}, op.run);
      op.run.vector_search.num_probes = 0;
      auto exact = session.Sql(op.sql, {}, op.run);
      if (!approx.ok() || !exact.ok()) Fail("recall query failed");
      std::set<int64_t> truth;
      for (int64_t r = 0; r < (*exact)->num_rows(); ++r) {
        truth.insert(static_cast<int64_t>((*exact)->column(0).data().At({r})));
      }
      for (int64_t r = 0; r < (*approx)->num_rows(); ++r) {
        hit += truth.count(
            static_cast<int64_t>((*approx)->column(0).data().At({r})));
      }
      total += static_cast<double>(truth.size());
    }
  }
  return total > 0 ? hit / total : 1.0;
}

/// Reads of every family but vec_topk (checked by recall) on every
/// tenant, literal-substituted, against BaselineDB loaded with the rows
/// the benchmark wrote; plus the writer's live-row invariant.
void ServeRw::Checks(Tally& checks) {
  Rng rng(config_.seed * 17 + 7);
  for (int t = 0; t < kTenants; ++t) {
    const Mirror& rows = tenants_[static_cast<size_t>(t)].rows;
    baseline::BaselineTable bt;
    bt.column_names = {"k", "v", "tag"};
    for (const auto& [k, row] : rows) bt.rows.push_back({k, row.v, row.tag});
    baseline::BaselineDb oracle;
    if (!oracle.RegisterTable("events", std::move(bt)).ok()) {
      Fail("oracle registration failed");
    }
    std::vector<std::string> sqls;
    for (int i = 0; i < 6; ++i) {
      sqls.push_back("SELECT k, v, tag FROM events WHERE k = " +
                     std::to_string(rng.UniformInt(0, hi_ - 1)));
    }
    sqls.push_back(
        "SELECT tag, COUNT(*), SUM(v) FROM events WHERE v >= " +
        std::to_string(rng.UniformInt(0, 90000)) + " GROUP BY tag");
    sqls.push_back(kSortSql);
    sqls.push_back(MakeRead(kMultiget, t, rng).sql);
    for (const std::string& sql : sqls) {
      auto got = engine_->Sql({TenantName(t), sql, {}, {}});
      auto want = oracle.Sql(sql);
      std::string why = got.ok() ? "" : got.status().ToString();
      const bool ok = got.ok() && want.ok() &&
                      SameRows(**got, *want, 1e-9, &why);
      Check(checks, ok, TenantName(t) + ": " + sql + ": " + why);
    }
  }
  // The window may end between a cycle's INSERT and its DELETE.
  const int64_t live = static_cast<int64_t>(tenants_[0].rows.size());
  auto table = engine_->tenant(TenantName(0)).catalog().GetTable("events");
  Check(checks,
        table.ok() && (*table)->num_rows() == live &&
            (live == kRows || live == kRows + 1),
        "tenant 0 must hold the writer's " + std::to_string(live) +
            " live rows, " + std::to_string(kRows) + " or one more mid-cycle");
}

RunResult ServeRw::Run() {
  RunResult out;
  Generate();
  // A traced run sets up once, traced, for the set-up layer spans.
  Tracer::Get().set_enabled(config_.trace);
  const double setup_s =
      MedianSetupSeconds(config_.trace ? 1 : kSetupReps, [&] { return Setup(); });
  Tracer::Get().set_enabled(false);

  if (!config_.trace) {
    const Window window = Mix(config_.seconds, /*sample=*/false);
    const double rss = Usage::Now().max_rss_mb;
    out.ops.Merge(window.ops);
    ReportEndToEnd(out.report, window, setup_s, rss);
    Checks(out.checks);
    return out;
  }

  // Traced run: an untraced window (tails, process counters, the
  // reference ops/s for the tracing overhead), then a traced half-window,
  // then the solo replay and the recall probe.
  auto cache_totals = [&] {
    PlanCacheStats sum;
    for (int t = 0; t < kTenants; ++t) {
      const PlanCacheStats s = engine_->tenant(TenantName(t)).plan_cache_stats();
      sum.hits += s.hits;
      sum.misses += s.misses;
    }
    return sum;
  };
  const Window untraced = Mix(config_.seconds, /*sample=*/false);
  const PlanCacheStats cache_before = cache_totals();
  const int64_t attempts_before = dml_attempts_, retries_before = dml_retries_;
  Tracer::Get().set_enabled(true);
  const Window traced = Mix(config_.seconds / 2, /*sample=*/true);
  const PlanCacheStats cache_after = cache_totals();
  Report& r = out.report;
  r.Set("storage.write_retries_per_write",
        static_cast<double>(dml_retries_ - retries_before) /
            static_cast<double>(std::max<int64_t>(dml_attempts_ - attempts_before, 1)),
        "ratio");
  auto table0 = engine_->tenant(TenantName(0)).catalog().GetTable("events");
  if (!table0.ok()) Fail(table0.status().ToString());
  r.Set("storage.physical_rows_per_live_row",
        static_cast<double>((*table0)->num_physical_rows()) /
            static_cast<double>((*table0)->num_rows()),
        "ratio");
  r.Set("storage.segments", static_cast<double>((*table0)->num_segments()),
        "count");
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  r.Set("session.plan_cache_hit_rate", hits / std::max(hits + misses, 1.0),
        "ratio");
  const server::EngineStats engine_stats = engine_->stats();
  r.Set("server.peak_queue_depth",
        static_cast<double>(engine_stats.peak_queue_depth), "count");
  r.Set("server.shed", static_cast<double>(engine_stats.shed), "count");

  ReplaySolo(r);
  Tracer::Get().set_enabled(false);

  // Scan-transfer cache of the hot (prepared) plans, every tenant.
  double scan_hits = 0, scan_lookups = 0;
  for (int t = 0; t < kTenants; ++t) {
    for (const char* sql : {kPointSql, kAggSql, kVecSql, kSortSql}) {
      auto query = engine_->tenant(TenantName(t)).Prepare(sql);
      if (!query.ok()) Fail(query.status().ToString());
      const exec::PrimitiveCache& cache = (*query)->primitive_cache();
      scan_hits += static_cast<double>(cache.scan_hits());
      scan_lookups += static_cast<double>(cache.scan_hits() + cache.scan_misses());
    }
  }
  r.Set("exec.scan_cache_hit_rate", scan_hits / std::max(scan_lookups, 1.0),
        "ratio");
  r.Set("recall_at_k", Recall(), "ratio");

  const std::vector<SpanRecord> spans = Tracer::Get().Collect();
  const auto stats = Aggregate(spans);
  r.Set("server.sql_ms_mean", SpanMeanMs(stats, "server.sql"), "ms");
  for (int f = 0; f <= kWrite; ++f) {
    r.Set(std::string("exec.run_ms.") + kFamilyNames[f],
          SpanP50Ms(stats, kRunSpans[f]), "ms");
  }
  r.Set("sql.tokenize_us", SpanMeanMs(stats, "sql.tokenize") * 1000, "us");
  r.Set("sql.parse_us", SpanMeanMs(stats, "sql.parse") * 1000, "us");
  r.Set("sql.bind_us", SpanMeanMs(stats, "sql.bind") * 1000, "us");
  r.Set("plan.optimize_us", SpanMeanMs(stats, "plan.optimize") * 1000, "us");
  r.Set("plan.pipelines_us", SpanMeanMs(stats, "plan.pipelines") * 1000, "us");
  r.Set("index.build_ms", SpanMeanMs(stats, "index.create"), "ms");
  r.Set("storage.register_ms", SpanMeanMs(stats, "storage.register"), "ms");
  ReportCommonLayers(r, untraced, traced, spans);
  if (!config_.trace_out.empty()) WriteSpansCsv(config_.trace_out, spans);

  out.ops.Merge(untraced.ops);
  out.ops.Merge(traced.ops);
  Checks(out.checks);
  return out;
}

}  // namespace

RunResult RunServeRw(const RunConfig& config) {
  ServeRw workload(config);
  return workload.Run();
}

}  // namespace perfbench
}  // namespace tdp
