// The serving front end's contracts: tenant isolation (private catalogs
// and plan caches over one shared runtime), bounded-queue admission with
// load shedding, per-tenant concurrency caps that keep one hot tenant
// from starving the rest, cancellation while queued, and the engine's
// default memory budget. The final test is a race storm — many client
// threads against a small engine with shed/admit/cancel all in flight —
// whose status accounting must balance exactly; it is the suite's reason
// to ride in the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/memory_budget.h"
#include "src/exec/run_options.h"
#include "src/server/engine.h"
#include "src/storage/table.h"
#include "src/tensor/tensor.h"
#include "src/udf/registry.h"

namespace tdp {
namespace server {
namespace {

using std::chrono::milliseconds;

// A latch the blocking UDF parks on: lets a test hold execution slots
// open while it probes the admission queue from other threads.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Registers `hold_gate(x)` for `tenant`: returns its input untouched after
// blocking until the gate opens. Keeping the body a UDF (not a sleep)
// pins the slot for exactly as long as the test wants.
void RegisterGateUdf(Engine& engine, const std::string& tenant, Gate* gate,
                     std::atomic<int>* entered) {
  udf::ScalarFunction fn;
  fn.name = "hold_gate";
  fn.return_type = udf::DeclaredType::kFloat;
  fn.fn = [gate, entered](const std::vector<udf::Argument>& args,
                          int64_t num_rows,
                          Device device) -> StatusOr<Column> {
    (void)num_rows;
    (void)device;
    if (entered != nullptr) entered->fetch_add(1);
    gate->Wait();
    return Column::Plain(args[0].column.DecodeValues());
  };
  ASSERT_TRUE(engine.tenant(tenant).functions().RegisterScalar(fn).ok());
}

void RegisterSmallTable(Engine& engine, const std::string& tenant,
                        std::vector<int64_t> values) {
  auto table = TableBuilder("t").AddInt64("x", std::move(values)).Build();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_TRUE(engine.tenant(tenant).RegisterTable("t", table.value()).ok());
}

// Spins until `pred` holds (10 ms admission-poll granularity makes exact
// waits impossible) or the deadline passes.
template <typename Pred>
bool WaitFor(Pred pred, milliseconds deadline = milliseconds(5000)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST(EngineTest, TenantsSeeOnlyTheirOwnCatalog) {
  Engine engine;
  RegisterSmallTable(engine, "alice", {1, 2, 3});
  RegisterSmallTable(engine, "bob", {10, 20, 30, 40});

  auto alice = engine.Sql({"alice", "SELECT COUNT(*) AS n FROM t", {}, {}});
  ASSERT_TRUE(alice.ok()) << alice.status().ToString();
  EXPECT_EQ(alice.value()->column(0).data().At({0}), 3.0);

  auto bob = engine.Sql({"bob", "SELECT COUNT(*) AS n FROM t", {}, {}});
  ASSERT_TRUE(bob.ok()) << bob.status().ToString();
  EXPECT_EQ(bob.value()->column(0).data().At({0}), 4.0);

  // A tenant that never registered the table cannot see either copy.
  auto carol = engine.Sql({"carol", "SELECT COUNT(*) FROM t", {}, {}});
  EXPECT_FALSE(carol.ok());

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(EngineTest, PlanCachesArePerTenant) {
  Engine engine;
  RegisterSmallTable(engine, "alice", {1, 2, 3});
  RegisterSmallTable(engine, "bob", {10, 20});

  const std::string sql = "SELECT x FROM t ORDER BY x";
  ASSERT_TRUE(engine.Sql({"alice", sql, {}, {}}).ok());
  ASSERT_TRUE(engine.Sql({"alice", sql, {}, {}}).ok());
  ASSERT_TRUE(engine.Sql({"bob", sql, {}, {}}).ok());

  // Alice's repeat hit her cache; Bob's first run was a miss in HIS cache
  // even though Alice had compiled the same text.
  EXPECT_EQ(engine.tenant("alice").plan_cache_stats().hits, 1u);
  EXPECT_EQ(engine.tenant("alice").plan_cache_stats().misses, 1u);
  EXPECT_EQ(engine.tenant("bob").plan_cache_stats().hits, 0u);
  EXPECT_EQ(engine.tenant("bob").plan_cache_stats().misses, 1u);
}

TEST(EngineTest, FullQueueShedsImmediately) {
  EngineOptions options;
  options.max_concurrent = 1;
  options.per_tenant_max_concurrent = 1;
  options.max_queue = 1;
  Engine engine(options);

  Gate gate;
  std::atomic<int> entered{0};
  RegisterGateUdf(engine, "alice", &gate, &entered);
  RegisterSmallTable(engine, "alice", {1, 2, 3});

  const Engine::Request blocking{
      "alice", "SELECT hold_gate(x) FROM t", {}, {}};

  // First request occupies the only slot (parked inside the UDF)...
  std::thread runner([&] {
    auto r = engine.Sql(blocking);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 1; }));

  // ...second fills the one queue seat...
  std::thread waiter([&] {
    auto r = engine.Sql(blocking);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  ASSERT_TRUE(WaitFor([&] { return engine.stats().queued == 1; }));

  // ...so a third is shed synchronously, queue untouched.
  auto shed = engine.Sql(blocking);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.stats().shed, 1u);
  EXPECT_EQ(engine.stats().queued, 1);

  gate.Open();
  runner.join();
  waiter.join();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.peak_queue_depth, 1u);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.queued, 0);
}

TEST(EngineTest, PerTenantCapDoesNotStarveOtherTenants) {
  EngineOptions options;
  options.max_concurrent = 2;
  options.per_tenant_max_concurrent = 1;
  Engine engine(options);

  Gate gate;
  std::atomic<int> entered{0};
  RegisterGateUdf(engine, "hot", &gate, &entered);
  RegisterSmallTable(engine, "hot", {1, 2, 3});
  RegisterSmallTable(engine, "quiet", {7});

  // The hot tenant fills its per-tenant cap with one parked query and
  // queues a second behind it (a global slot is still free).
  std::thread first([&] {
    EXPECT_TRUE(
        engine.Sql({"hot", "SELECT hold_gate(x) FROM t", {}, {}}).ok());
  });
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 1; }));
  std::thread second([&] {
    EXPECT_TRUE(
        engine.Sql({"hot", "SELECT hold_gate(x) FROM t", {}, {}}).ok());
  });
  ASSERT_TRUE(WaitFor([&] { return engine.stats().queued == 1; }));

  // The quiet tenant's request is admitted PAST the hot tenant's queued
  // one and completes while the hot tenant is still parked.
  auto quiet = engine.Sql({"quiet", "SELECT x FROM t", {}, {}});
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
  EXPECT_EQ(engine.stats().queued, 1);  // hot's second is still waiting

  gate.Open();
  first.join();
  second.join();
  EXPECT_EQ(engine.stats().completed, 3u);
}

TEST(EngineTest, CancelWhileQueued) {
  EngineOptions options;
  options.max_concurrent = 1;
  options.per_tenant_max_concurrent = 1;
  Engine engine(options);

  Gate gate;
  std::atomic<int> entered{0};
  RegisterGateUdf(engine, "alice", &gate, &entered);
  RegisterSmallTable(engine, "alice", {1, 2, 3});

  std::thread runner([&] {
    EXPECT_TRUE(
        engine.Sql({"alice", "SELECT hold_gate(x) FROM t", {}, {}}).ok());
  });
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 1; }));

  Engine::Request queued{"alice", "SELECT x FROM t", {}, {}};
  queued.run.cancel = std::make_shared<exec::CancellationToken>();
  std::thread waiter([&] {
    auto r = engine.Sql(queued);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  });
  ASSERT_TRUE(WaitFor([&] { return engine.stats().queued == 1; }));
  queued.run.cancel->Cancel();
  waiter.join();

  EXPECT_EQ(engine.stats().cancelled_while_queued, 1u);
  EXPECT_EQ(engine.stats().queued, 0);

  gate.Open();
  runner.join();
}

TEST(EngineTest, DefaultMemoryBudgetMakesBreakersSpill) {
  EngineOptions options;
  options.default_memory_budget_bytes = 1;
  Engine engine(options);

  std::vector<int64_t> values(2000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>((i * 2654435761u) % 4001);
  }
  RegisterSmallTable(engine, "alice", values);

  // A hash join is the breaker that spills: its build payload goes to
  // disk once the build side is over budget.
  const std::string join = "SELECT a.x FROM t a JOIN t b ON a.x = b.x";
  const int64_t spilled_before = exec::QueryMemory::TotalBytesSpilled();
  const int64_t live_before = exec::QueryMemory::LiveSpillFiles();
  auto joined = engine.Sql({"alice", join, {}, {}});
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_GT(exec::QueryMemory::TotalBytesSpilled(), spilled_before)
      << "the engine's default budget was not applied to the run";
  EXPECT_EQ(exec::QueryMemory::LiveSpillFiles(), live_before);

  // A request carrying its own budget keeps it (no default override).
  Engine::Request unlimited{"alice", join, {}, {}};
  unlimited.run.memory_budget_bytes = 1 << 30;
  const int64_t spilled_mid = exec::QueryMemory::TotalBytesSpilled();
  ASSERT_TRUE(engine.Sql(unlimited).ok());
  EXPECT_EQ(exec::QueryMemory::TotalBytesSpilled(), spilled_mid);
}

// The TSan target: shed, admitted, cancelled-while-queued, and completed
// requests all racing on a deliberately tiny engine. The accounting must
// balance exactly — every request ends in exactly one terminal state, and
// every admitted request releases its slot.
TEST(EngineTest, AdmissionRaceStormAccountsEveryRequest) {
  EngineOptions options;
  options.max_concurrent = 2;
  options.per_tenant_max_concurrent = 1;
  options.max_queue = 4;
  Engine engine(options);

  const std::vector<std::string> tenants = {"t0", "t1", "t2"};
  for (const auto& tenant : tenants) {
    RegisterSmallTable(engine, tenant, {1, 2, 3, 4, 5});
  }

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;
  std::atomic<uint64_t> ok_count{0}, shed_count{0}, cancelled_count{0};

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        Engine::Request req{tenants[(t + i) % tenants.size()],
                            "SELECT x, x * 2 FROM t ORDER BY x DESC", {}, {}};
        // A third of the requests race a cancel against their own
        // admission wait.
        std::thread canceller;
        if (i % 3 == 0) {
          req.run.cancel = std::make_shared<exec::CancellationToken>();
          canceller = std::thread([cancel = req.run.cancel] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            cancel->Cancel();
          });
        }
        auto r = engine.Sql(req);
        if (canceller.joinable()) canceller.join();
        if (r.ok()) {
          ++ok_count;
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          ++shed_count;
        } else if (r.status().code() == StatusCode::kCancelled) {
          ++cancelled_count;
        } else {
          ADD_FAILURE() << "unexpected status: " << r.status().ToString();
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  const EngineStats stats = engine.stats();
  const uint64_t total = kThreads * kRequestsPerThread;
  // Terminal states partition the requests...
  EXPECT_EQ(stats.admitted + stats.shed + stats.cancelled_while_queued,
            total);
  EXPECT_EQ(stats.shed, shed_count.load());
  // (a cancel can also land DURING the run -> admitted but kCancelled, so
  // the engine's queue-cancel counter bounds the client-side one)
  EXPECT_LE(stats.cancelled_while_queued, cancelled_count.load());
  EXPECT_EQ(stats.completed, ok_count.load());
  EXPECT_EQ(stats.completed + stats.failed, stats.admitted);
  // ...and every slot was returned.
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.queued, 0);
}

}  // namespace
}  // namespace server
}  // namespace tdp
