#include "src/exec/result_cursor.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/exec/compiled_query.h"
#include "src/exec/operators.h"
#include "src/exec/streaming.h"

namespace tdp {
namespace exec {

ResultCursor::ResultCursor(std::shared_ptr<const CompiledQuery> query,
                           RunOptions options,
                           std::shared_ptr<const Catalog> snapshot)
    : query_(std::move(query)),
      options_(std::move(options)),
      snapshot_(std::move(snapshot)),
      run_cancel_(options_.cancel),
      capacity_(std::max<size_t>(
          2, static_cast<size_t>(ThreadPool::Global().num_threads()))) {}

ResultCursor::~ResultCursor() { Close(); }

void ResultCursor::Start() {
  producer_ = std::thread([this] { Produce(); });
}

void ResultCursor::Produce() {
  ExecContext ctx =
      query_->MakeContext(options_, snapshot_.get(), &run_cancel_);
  // Budgeted run: the spill registry's lifetime is this producer body, so
  // cancellation or an early Close() (which joins the producer) releases
  // every spill temp file before Close() returns — not at some later
  // destructor. ReleaseSpillFiles() below makes the cleanup eager even
  // though the local's destructor would also do it.
  std::optional<QueryMemory> memory;
  if (options_.memory_budget_bytes > 0) {
    memory.emplace(options_.memory_budget_bytes);
    ctx.memory = &*memory;
  }
  Status status = ExecuteStreamingToSink(
      query_->pipelines(), ctx,
      [this](Chunk chunk) { return Push(std::move(chunk)); });
  if (memory.has_value()) memory->ReleaseSpillFiles();
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok()) status_ = std::move(status);
  done_ = true;
  not_empty_.notify_all();
}

Status ResultCursor::Push(Chunk chunk) {
  std::unique_lock<std::mutex> lock(mu_);
  // Timed wait: a caller-shared CancellationToken can flip without anyone
  // notifying this cursor's condition variable, so a backpressure-blocked
  // producer re-checks it every few milliseconds.
  while (queue_.size() >= capacity_ && !closed_ && !run_cancel_.cancelled()) {
    not_full_.wait_for(lock, std::chrono::milliseconds(10));
  }
  if (closed_ || run_cancel_.cancelled()) {
    return Status::Cancelled("query run cancelled");
  }
  queue_.push_back(std::move(chunk));
  chunks_produced_.fetch_add(1, std::memory_order_relaxed);
  not_empty_.notify_one();
  return Status::OK();
}

StatusOr<std::optional<Chunk>> ResultCursor::Next() {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [&] { return !queue_.empty() || done_ || closed_; });
  if (closed_) return Status::Cancelled("result cursor closed");
  if (!queue_.empty()) {
    Chunk chunk = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return std::optional<Chunk>(std::move(chunk));
  }
  // Producer finished: surface its error verbatim (and repeatably) — a
  // mid-stream failure must never read as a clean end of stream.
  if (!status_.ok()) return status_;
  return std::optional<Chunk>();
}

void ResultCursor::Close() {
  // close_mu_ serializes concurrent Close() calls (including the
  // destructor's): every caller returns only after the producer has been
  // joined, so chunks_produced() is frozen once any Close() returns.
  std::lock_guard<std::mutex> close_lock(close_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  run_cancel_.Cancel();
  not_full_.notify_all();
  not_empty_.notify_all();
  if (producer_.joinable()) producer_.join();
  std::lock_guard<std::mutex> lock(mu_);
  queue_.clear();
}

}  // namespace exec
}  // namespace tdp
