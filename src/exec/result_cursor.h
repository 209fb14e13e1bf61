#ifndef TDP_EXEC_RESULT_CURSOR_H_
#define TDP_EXEC_RESULT_CURSOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "src/common/statusor.h"
#include "src/exec/chunk.h"
#include "src/exec/run_options.h"
#include "src/storage/catalog.h"

namespace tdp {
namespace exec {

class CompiledQuery;

/// Pull-based streaming result of one query run, returned by
/// `CompiledQuery::Open` / `Session::Execute`.
///
/// A background producer runs the streaming executor: upstream breaker
/// pipelines (sorts, aggregates, join builds) materialize exactly as under
/// `Run()`, then the final pipeline's chunks are pushed — in morsel order —
/// into a bounded queue that `Next()` drains. Backpressure is built in:
/// once the queue is full the producer blocks, so a slow consumer bounds
/// the run's buffered memory at max(2, pool threads) chunks instead of
/// materializing the whole result. The concatenation of all
/// chunks yielded by `Next()` is bit-identical to what `Run()` returns for
/// the same options.
///
/// Lifecycle: `Next()` yields chunks until it returns an empty optional
/// (end of stream) or an error `Status` — a mid-stream executor error
/// surfaces here exactly as it would from `Run()`, never as a silently
/// truncated stream. `Close()` (also run by the destructor) cancels the
/// run cooperatively: workers observe the token at the next morsel
/// boundary and stop producing, so abandoning a cursor early — client
/// disconnect, LIMIT satisfied downstream, timeout — costs roughly one
/// wave of morsels, not the full result. After `Close()`, `Next()` returns
/// `kCancelled`.
///
/// Thread safety: `Next()` may be called by one consumer thread at a time;
/// `Close()` may race with `Next()` from another thread (that is the
/// cancellation path). The cursor keeps the compiled query and its catalog
/// snapshot alive, so it may outlive the `shared_ptr` it was opened from.
class ResultCursor {
 public:
  ~ResultCursor();

  ResultCursor(const ResultCursor&) = delete;
  ResultCursor& operator=(const ResultCursor&) = delete;

  /// Blocks for the next chunk. Returns the chunk, an empty optional at
  /// end of stream, or the run's error status (repeatably). Chunks arrive
  /// in morsel order; their concatenation equals `Run()`'s result.
  StatusOr<std::optional<Chunk>> Next();

  /// Cancels the run and joins the producer. Idempotent; safe to call
  /// while another thread blocks in `Next()` (it wakes with `kCancelled`).
  /// Buffered chunks are discarded.
  void Close();

  /// Number of chunks the producer has pushed into the queue so far —
  /// the production counter behind the early-close guarantee: after an
  /// early `Close()` this stops at ~(consumed + queue capacity + one
  /// wave), far below the chunk count of a full drain.
  int64_t chunks_produced() const {
    return chunks_produced_.load(std::memory_order_relaxed);
  }

 private:
  friend class CompiledQuery;

  ResultCursor(std::shared_ptr<const CompiledQuery> query, RunOptions options,
               std::shared_ptr<const Catalog> snapshot);

  void Start();    // spawns the producer thread (called once by Open)
  void Produce();  // producer-thread body
  Status Push(Chunk chunk);

  const std::shared_ptr<const CompiledQuery> query_;
  const RunOptions options_;
  const std::shared_ptr<const Catalog> snapshot_;
  /// Internal close-token handed to the executor; linked to the caller's
  /// `options_.cancel` so either cancels the run, while `Close()` never
  /// cancels the caller's (possibly shared) token.
  CancellationToken run_cancel_;
  const size_t capacity_;  ///< queue bound: max(2, pool threads) chunks

  std::mutex mu_;
  std::mutex close_mu_;  // serializes Close() (see result_cursor.cc)
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Chunk> queue_;
  bool done_ = false;    // producer finished (status_ is final)
  bool closed_ = false;  // Close() called
  Status status_;        // first producer error, if any
  std::atomic<int64_t> chunks_produced_{0};
  std::thread producer_;
};

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_RESULT_CURSOR_H_
