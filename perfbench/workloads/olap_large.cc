// olap_large: relational analytics, 1 client, through Session::Prepare +
// CompiledQuery::Run (the two halves of Session::Sql, called separately so
// each gets its span).
//
// A 2^18-row fact table (int keys, float measure, a 4-value and a
// 1000-value dictionary column, a 64K-value customer key) and a 64K-row
// dimension table, both registered on the accel device. Five prepared
// query families in equal shares, with `?` literals drawn from the seed.

#include "perfbench/workloads/common.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace perfbench {
namespace {

using exec::ScalarValue;

constexpr int64_t kFactRows = int64_t{1} << 18;
constexpr int64_t kCustomers = 65536;
constexpr int64_t kCities = 1000;
constexpr int kSetupReps = 5;
constexpr int kKernelReps = 5;

enum Family { kFilter, kGroupByLow, kGroupByHigh, kJoinAgg, kTopK };
constexpr int kFamilies = 5;
constexpr const char* kFamilyNames[] = {"filter", "groupby_low",
                                        "groupby_high", "join_agg", "topk"};
constexpr const char* kRunSpans[] = {
    "exec.run.filter", "exec.run.groupby_low", "exec.run.groupby_high",
    "exec.run.join_agg", "exec.run.topk"};
constexpr const char* kSql[] = {
    "SELECT id, price * 2 AS p2, qty FROM fact WHERE city = ? AND qty > ?",
    "SELECT seg, COUNT(*), SUM(price), MIN(qty), MAX(qty) FROM fact "
    "WHERE qty > ? GROUP BY seg",
    "SELECT cust, COUNT(*), SUM(price) FROM fact WHERE qty > ? GROUP BY cust",
    "SELECT d.region, COUNT(*), SUM(f.price) FROM fact f JOIN dim d "
    "ON f.cust = d.cust WHERE f.qty > ? GROUP BY d.region",
    "SELECT id, price FROM fact WHERE qty > ? "
    "ORDER BY price DESC LIMIT 100"};
/// The oracle's form of each family. BaselineDB joins by nested loops
/// (2^34 pairs here), so join_agg is checked on a copy of the fact table
/// that carries its customer's region: `dim` is keyed by `cust` and covers
/// every customer, so the two queries are equivalent.
constexpr const char* kOracleJoinSql =
    "SELECT region, COUNT(*), SUM(price) FROM fact WHERE qty > ? "
    "GROUP BY region";
/// Float aggregates (float32 sums over ~2^18 rows) must match the
/// oracle's double arithmetic to this relative tolerance.
constexpr double kFloatTolerance = 1e-4;

const std::vector<std::string> kSegments = {"AUTOMOBILE", "BUILDING",
                                            "FURNITURE", "MACHINERY"};
const std::vector<std::string> kRegions = {"AFRICA", "AMERICA", "ASIA",
                                           "EUROPE", "MIDDLE_EAST"};

std::string CityName(int64_t i) {
  std::string s = std::to_string(i);
  return "c" + std::string(3 - s.size(), '0') + s;
}

struct Data {
  std::vector<int64_t> id, qty, cust;
  std::vector<float> price;
  std::vector<std::string> seg, city;
  std::vector<std::string> region;  // per customer
  std::shared_ptr<Table> fact, dim;
};

class OlapLarge {
 public:
  explicit OlapLarge(const RunConfig& config) : config_(config) {}
  RunResult Run();

 private:
  void Generate();
  double Setup();
  std::vector<ScalarValue> Params(int family, Rng& rng) const;
  Window Loop(double seconds);
  void Checks(Tally& checks);
  void KernelReplays(Report& report);

  const RunConfig config_;
  Data data_;
  std::unique_ptr<Session> session_;
  std::vector<std::shared_ptr<exec::CompiledQuery>> queries_;
};

void OlapLarge::Generate() {
  Rng rng(config_.seed * 104729 + 3);
  const std::vector<int64_t> perm = rng.Permutation(kFactRows);
  for (int64_t i = 0; i < kFactRows; ++i) {
    data_.id.push_back(i);
    data_.qty.push_back(rng.UniformInt(1, 50));
    // Distinct, exactly representable prices: top-k has no ties and the
    // oracle compares them exactly.
    data_.price.push_back(static_cast<float>(perm[static_cast<size_t>(i)]) /
                          2048.0f);
    data_.seg.push_back(kSegments[rng.NextUint64(kSegments.size())]);
    data_.city.push_back(CityName(rng.UniformInt(0, kCities - 1)));
    data_.cust.push_back(rng.UniformInt(0, kCustomers - 1));
  }
  std::vector<int64_t> dim_cust;
  for (int64_t c = 0; c < kCustomers; ++c) {
    dim_cust.push_back(c);
    data_.region.push_back(kRegions[rng.NextUint64(kRegions.size())]);
  }
  auto fact = TableBuilder("fact")
                  .AddInt64("id", data_.id)
                  .AddInt64("qty", data_.qty)
                  .AddFloat32("price", data_.price)
                  .AddStrings("seg", data_.seg)
                  .AddStrings("city", data_.city)
                  .AddInt64("cust", data_.cust)
                  .Build();
  auto dim = TableBuilder("dim")
                 .AddInt64("cust", dim_cust)
                 .AddStrings("region", data_.region)
                 .Build();
  if (!fact.ok() || !dim.ok()) Fail("table build failed");
  data_.fact = fact.value();
  data_.dim = dim.value();
}

std::vector<ScalarValue> OlapLarge::Params(int family, Rng& rng) const {
  const ScalarValue qty = ScalarValue::Int(rng.UniformInt(1, 10));
  if (family == kFilter) {
    return {ScalarValue::String(CityName(rng.UniformInt(0, kCities - 1))),
            qty};
  }
  return {qty};
}

double OlapLarge::Setup() {
  queries_.clear();
  session_.reset();
  session_ = std::make_unique<Session>();
  Rng rng(config_.seed + 17);
  const auto start = Clock::now();
  {
    ScopedSpan span("storage.register");
    if (!session_->RegisterTable("fact", data_.fact, Device::kAccel).ok()) {
      Fail("register fact failed");
    }
  }
  {
    ScopedSpan span("storage.register");
    if (!session_->RegisterTable("dim", data_.dim, Device::kAccel).ok()) {
      Fail("register dim failed");
    }
  }
  for (int f = 0; f < kFamilies; ++f) {
    auto query = session_->Prepare(kSql[f]);
    if (!query.ok()) Fail(std::string(kSql[f]) + ": " + query.status().ToString());
    exec::RunOptions run;
    run.params = Params(f, rng);
    auto result = (*query)->Run(run);
    if (!result.ok()) Fail(result.status().ToString());
    queries_.push_back(*query);
  }
  return MsSince(start) / 1000.0;
}

Window OlapLarge::Loop(double seconds) {
  return RunClosedLoop(1, seconds, [&](int, Clock::time_point deadline) {
    Rng rng(config_.seed * 7 + 1);
    Deck families(std::vector<int>(kFamilies, 1), rng.Split());
    Window w;
    while (Clock::now() < deadline) {
      const int f = families.Next();
      exec::RunOptions run;
      run.params = Params(f, rng);
      RequestScope request;
      ScopedSpan span(kOpSpan);
      const auto start = Clock::now();
      auto query = [&] {
        ScopedSpan prepare("session.prepare");
        return session_->Prepare(kSql[f]);
      }();
      bool ok = query.ok();
      if (ok) {
        ScopedSpan run_span(kRunSpans[f]);
        auto result = (*query)->Run(run);
        ok = result.ok();
        if (!ok) NoteFailure(std::string(kSql[f]) + ": " + result.status().ToString());
      }
      w.ops.Record(ok);
      if (ok) w.AddOp(MsSince(start));
    }
    return w;
  });
}

/// Two literal-substituted queries per family against BaselineDB loaded
/// with the same rows.
void OlapLarge::Checks(Tally& checks) {
  baseline::BaselineTable bt;
  bt.column_names = {"id", "qty", "price", "seg", "city", "cust", "region"};
  bt.rows.reserve(static_cast<size_t>(kFactRows));
  for (size_t i = 0; i < data_.id.size(); ++i) {
    bt.rows.push_back({data_.id[i], data_.qty[i],
                       static_cast<double>(data_.price[i]), data_.seg[i],
                       data_.city[i], data_.cust[i],
                       data_.region[static_cast<size_t>(data_.cust[i])]});
  }
  baseline::BaselineDb oracle;
  if (!oracle.RegisterTable("fact", std::move(bt)).ok()) {
    Fail("oracle registration failed");
  }
  Rng rng(config_.seed * 5 + 2);
  for (int f = 0; f < kFamilies; ++f) {
    for (int i = 0; i < 2; ++i) {
      const std::vector<ScalarValue> params = Params(f, rng);
      const std::string sql = Substitute(kSql[f], params);
      const std::string oracle_sql =
          Substitute(f == kJoinAgg ? kOracleJoinSql : kSql[f], params);
      auto got = session_->Sql(sql);
      auto want = oracle.Sql(oracle_sql);
      std::string why = !got.ok()    ? got.status().ToString()
                        : !want.ok() ? want.status().ToString()
                                     : "";
      const bool ok = got.ok() && want.ok() &&
                      SameRows(**got, *want, kFloatTolerance, &why);
      Check(checks, ok, sql + ": " + why);
    }
  }
}

/// Kernel replays on the registered (accel) columns the families read.
void OlapLarge::KernelReplays(Report& report) {
  auto fact = session_->catalog().GetTable("fact");
  if (!fact.ok()) Fail(fact.status().ToString());
  const Table& t = **fact;
  const Tensor qty = t.column(1).data();
  const Tensor price = t.column(2).data();
  const Column& city = t.column(4);
  const Tensor cust = t.column(5).data();
  report.Set("tensor.argsort_ms",
             MedianMs(kKernelReps, [&] { (void)ArgSort(price, true); }), "ms");
  report.Set("tensor.unique_ms",
             MedianMs(kKernelReps, [&] { (void)Unique(cust); }), "ms");
  const Tensor mask = LogicalAnd(
      Eq(city.data(), Tensor::Scalar(static_cast<double>(city.DictionaryCode(
                                         CityName(7))),
                                     city.data().dtype(), Device::kAccel)),
      Gt(qty, Tensor::Scalar(3, qty.dtype(), Device::kAccel)));
  report.Set("tensor.nonzero_ms",
             MedianMs(kKernelReps, [&] { (void)NonZero(mask); }), "ms");
}

RunResult OlapLarge::Run() {
  RunResult out;
  Generate();
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

  const Window untraced = Loop(config_.seconds);
  auto join_counts = [&] {
    const exec::PrimitiveCache& c = queries_[kJoinAgg]->primitive_cache();
    return std::make_pair(c.join_hits(), c.join_misses());
  };
  const auto join_before = join_counts();
  Tracer::Get().set_enabled(true);
  const Window traced = Loop(config_.seconds / 2);
  Tracer::Get().set_enabled(false);
  const auto join_after = join_counts();

  Report& r = out.report;
  const double join_hits =
      static_cast<double>(join_after.first - join_before.first);
  const double join_lookups =
      join_hits + static_cast<double>(join_after.second - join_before.second);
  r.Set("exec.join_cache_hit_rate", join_hits / std::max(join_lookups, 1.0),
        "ratio");
  int64_t fused = 0;
  for (const auto& q : queries_) fused += q->primitive_cache().fused_compiles();
  r.Set("exec.fused_compiles", static_cast<double>(fused), "count");
  KernelReplays(r);

  const std::vector<SpanRecord> spans = Tracer::Get().Collect();
  const auto stats = Aggregate(spans);
  double rows = 0, run_s = 0;
  for (int f = 0; f < kFamilies; ++f) {
    r.Set(std::string("exec.run_ms.") + kFamilyNames[f],
          SpanP50Ms(stats, kRunSpans[f]), "ms");
    auto it = stats.find(kRunSpans[f]);
    if (it == stats.end()) continue;
    const double rows_per_run = static_cast<double>(
        kFactRows + (f == kJoinAgg ? kCustomers : 0));
    rows += rows_per_run * static_cast<double>(it->second.ms.size());
    for (double ms : it->second.ms) run_s += ms / 1000.0;
  }
  r.Set("exec.rows_scanned_per_s", rows / std::max(run_s, 1e-9), "rows/s");
  r.Set("session.prepare_us_mean", SpanMeanMs(stats, "session.prepare") * 1000,
        "us");
  r.Set("storage.register_ms", SpanMeanMs(stats, "storage.register"), "ms");
  ReportCommonLayers(r, untraced, traced, spans);
  if (!config_.trace_out.empty()) WriteSpansCsv(config_.trace_out, spans);

  out.ops.Merge(untraced.ops);
  out.ops.Merge(traced.ops);
  Checks(out.checks);
  return out;
}

}  // namespace

RunResult RunOlapLarge(const RunConfig& config) {
  OlapLarge workload(config);
  return workload.Run();
}

}  // namespace perfbench
}  // namespace tdp
