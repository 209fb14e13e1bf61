#include "src/server/engine.h"

#include <algorithm>
#include <chrono>

namespace tdp {
namespace server {

Engine::Engine(EngineOptions options) : options_(options) {}

Session& Engine::tenant(const std::string& tenant_id) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto& slot = tenants_[tenant_id];
  if (slot == nullptr) slot = std::make_unique<Session>();
  return *slot;
}

void Engine::PromoteLocked() {
  bool promoted = false;
  for (auto it = queue_.begin();
       it != queue_.end() && running_ < options_.max_concurrent;) {
    Waiter* w = *it;
    if (tenant_running_[*w->tenant] < options_.per_tenant_max_concurrent) {
      w->admitted = true;
      ++running_;
      ++tenant_running_[*w->tenant];
      it = queue_.erase(it);
      promoted = true;
    } else {
      // This tenant is at its cap: later requests of OTHER tenants may
      // still be admitted (per-tenant isolation beats strict FIFO).
      ++it;
    }
  }
  if (promoted) cv_.notify_all();
}

Status Engine::Admit(const std::string& tenant_id,
                     const exec::CancellationToken* cancel) {
  std::unique_lock<std::mutex> lock(mu_);
  if (static_cast<int64_t>(queue_.size()) >= options_.max_queue) {
    ++stats_.shed;
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(options_.max_queue) +
        " waiting): load shed — retry with backoff");
  }
  Waiter w;
  w.tenant = &tenant_id;
  queue_.push_back(&w);
  stats_.peak_queue_depth =
      std::max(stats_.peak_queue_depth,
               static_cast<uint64_t>(queue_.size()));
  PromoteLocked();
  // Timed waits: a caller-shared CancellationToken can flip without
  // notifying this condition variable (same pattern as ResultCursor
  // backpressure), so a queued request re-checks it every few ms.
  while (!w.admitted) {
    if (cancel != nullptr && cancel->cancelled()) {
      queue_.remove(&w);
      ++stats_.cancelled_while_queued;
      return Status::Cancelled("request cancelled while queued");
    }
    cv_.wait_for(lock, std::chrono::milliseconds(10));
  }
  ++stats_.admitted;
  return Status::OK();
}

void Engine::Release(const std::string& tenant_id) {
  std::lock_guard<std::mutex> lock(mu_);
  --running_;
  --tenant_running_[tenant_id];
  PromoteLocked();
}

StatusOr<std::shared_ptr<Table>> Engine::Sql(const Request& req) {
  Session& session = tenant(req.tenant);

  // Compile first (through the tenant's plan cache): a malformed statement
  // must fail fast without holding — or even waiting for — a slot.
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<exec::CompiledQuery> query,
                       session.Prepare(req.sql, req.query));

  exec::RunOptions run = req.run;
  if (run.memory_budget_bytes == 0) {
    run.memory_budget_bytes = options_.default_memory_budget_bytes;
  }

  TDP_RETURN_NOT_OK(Admit(req.tenant, run.cancel.get()));
  StatusOr<std::shared_ptr<Table>> result = query->Run(run);
  Release(req.tenant);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.ok()) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
    }
  }
  return result;
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats snapshot = stats_;
  snapshot.running = running_;
  snapshot.queued = static_cast<int64_t>(queue_.size());
  return snapshot;
}

}  // namespace server
}  // namespace tdp
