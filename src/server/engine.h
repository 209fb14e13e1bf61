#ifndef TDP_SERVER_ENGINE_H_
#define TDP_SERVER_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/common/statusor.h"
#include "src/exec/run_options.h"
#include "src/runtime/session.h"

namespace tdp {
namespace server {

/// Static sizing of the serving front end. The defaults suit tests; a real
/// deployment sizes `max_concurrent` to the machine and `max_queue` to its
/// latency SLO (a deep queue converts overload into latency, a shallow one
/// into shed requests).
struct EngineOptions {
  /// Requests allowed to WAIT for an execution slot. A request arriving
  /// with the queue full is shed immediately with
  /// `StatusCode::kResourceExhausted` — overload degrades into fast,
  /// explicit rejections instead of unbounded queueing.
  int64_t max_queue = 64;
  /// Queries executing simultaneously across all tenants. Admission is
  /// FIFO among eligible waiters.
  int64_t max_concurrent = 4;
  /// Per-tenant cap on simultaneously executing queries: one hot tenant
  /// saturating the engine cannot occupy every slot, so other tenants'
  /// requests keep flowing (they are admitted PAST queued requests of the
  /// capped tenant — FIFO order is preserved within eligibility, not
  /// across it).
  int64_t per_tenant_max_concurrent = 2;
  /// Default `RunOptions::memory_budget_bytes` applied to requests that
  /// did not set one (0 leaves them unlimited). The per-query breaker
  /// budget is the engine's real memory backstop: admission caps how many
  /// queries run, the budget caps what each one may hold.
  int64_t default_memory_budget_bytes = 0;
};

/// Cumulative serving counters plus point-in-time gauges (`stats()`).
struct EngineStats {
  uint64_t admitted = 0;   // requests that received an execution slot
  uint64_t shed = 0;       // rejected: queue full
  uint64_t cancelled_while_queued = 0;
  uint64_t completed = 0;  // admitted runs that returned OK
  uint64_t failed = 0;     // admitted runs that returned an error
  uint64_t peak_queue_depth = 0;
  int64_t running = 0;     // gauge
  int64_t queued = 0;      // gauge
};

/// Embedded multi-tenant serving front end over the shared process
/// runtime. Each tenant gets its own `Session` — its own catalog and its
/// own plan-cache namespace, so tenants can never see each other's tables
/// and one tenant's ad-hoc statements cannot evict another's hot plans —
/// while all execution shares the single process-wide `ThreadPool`.
/// What the engine adds over bare Sessions is the resource envelope:
///
///   request -> bounded FIFO admission queue
///           -> (global + per-tenant concurrency caps) -> Session::Sql
///              with a per-query MemoryBudget -> release + promote next
///
/// Thread safety: all public methods may be called from any number of
/// threads concurrently. `Sql` blocks while its request waits for a slot
/// (cancellable through `RunOptions::cancel`).
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// One serving request. `run.memory_budget_bytes == 0` inherits the
  /// engine's default budget; `run.cancel` also cancels waiting in the
  /// admission queue (status `kCancelled`, same as a cancelled run).
  struct Request {
    std::string tenant;
    std::string sql;
    QueryOptions query;
    exec::RunOptions run;
  };

  /// Compile (through the tenant's plan cache) + admit + run + release.
  /// Compilation failures return without ever occupying a queue slot.
  StatusOr<std::shared_ptr<Table>> Sql(const Request& req);

  /// The tenant's private session (created on first use): the registration
  /// surface — tables, tensors, UDFs, vector indexes — for that tenant.
  Session& tenant(const std::string& tenant_id);

  EngineStats stats() const;

  const EngineOptions& options() const { return options_; }

 private:
  struct Waiter {
    const std::string* tenant = nullptr;
    bool admitted = false;
  };

  /// Scans the FIFO queue front-to-back admitting every waiter whose
  /// tenant has spare capacity until the global cap is reached. Called
  /// with `mu_` held whenever capacity may have appeared.
  void PromoteLocked();

  Status Admit(const std::string& tenant_id,
               const exec::CancellationToken* cancel);
  void Release(const std::string& tenant_id);

  const EngineOptions options_;

  mutable std::mutex tenants_mu_;
  std::unordered_map<std::string, std::unique_ptr<Session>> tenants_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::list<Waiter*> queue_;
  int64_t running_ = 0;
  std::unordered_map<std::string, int64_t> tenant_running_;
  EngineStats stats_;
};

}  // namespace server
}  // namespace tdp

#endif  // TDP_SERVER_ENGINE_H_
