#ifndef TDP_EXEC_RUN_OPTIONS_H_
#define TDP_EXEC_RUN_OPTIONS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/exec/value.h"
#include "src/exec/vector_search.h"

namespace tdp {
namespace exec {

/// Cooperative cancellation flag shared between a client and a running
/// query. The client calls `Cancel()` (any thread, any time); executor
/// workers poll `cancelled()` at morsel boundaries and abandon the run
/// with a `kCancelled` status instead of racing to materialize the full
/// result. One token may be shared by several runs (e.g. every query of
/// one client request) to cancel them all on disconnect.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// A token linked to `parent`: reports cancelled when either this token
  /// or the parent is. `ResultCursor` links its internal close-token to
  /// the caller's `RunOptions::cancel` this way, so closing the cursor
  /// stops workers without cancelling the caller's (possibly shared)
  /// token.
  explicit CancellationToken(std::shared_ptr<const CancellationToken> parent)
      : parent_(std::move(parent)) {}

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed) ||
           (parent_ != nullptr && parent_->cancelled());
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::shared_ptr<const CancellationToken> parent_;
};

/// Everything that may vary between two runs of one (immutable, shared)
/// `CompiledQuery`, gathered into a single value object passed to
/// `Run`/`RunChunk`/`Open`. Plans carry no per-run state, so a cached
/// plan can serve clients with conflicting options concurrently.
struct RunOptions {
  /// Values for the statement's `?` placeholders, in lexical order; must
  /// match `CompiledQuery::num_params()` exactly.
  std::vector<ScalarValue> params;

  /// Morsel size in rows for the streaming executor: each pipeline's
  /// source is cut into row-range morsels of this many rows that flow
  /// through its streaming operators in parallel. 0 (the default)
  /// resolves to `DefaultMorselRows()` (`TDP_MORSEL_ROWS`, default 65536);
  /// a negative size fails the run with `InvalidArgument`.
  /// Purely a scheduling knob: results are bit-identical at any morsel
  /// size, and soft (trainable) runs always take one whole-relation
  /// morsel. Per-run state, NOT part of the plan-cache key.
  int64_t morsel_rows = 0;

  /// For TRAINABLE-compiled queries only: `true` (the default when unset)
  /// runs the soft differentiable operators, `false` swaps in the exact
  /// operators for inference ("at inference time, we swap the approximate
  /// differentiable operators with exact implementations", §4 of the
  /// paper). Ignored for non-trainable queries.
  std::optional<bool> training_mode;

  /// Vector-search knobs for IndexTopK / FilteredIndexTopK
  /// (index-accelerated `ORDER BY similarity LIMIT k`, optionally under a
  /// WHERE predicate) operators in this run: the probe budget, a strategy
  /// override for filtered searches, and the post-filter widening pace.
  /// See `VectorSearchOptions` for per-field semantics (the probe/recall
  /// ablation is `bench/ablation_topk_index`; the strategy sweep is
  /// `bench/filtered_topk`).
  using VectorSearch = VectorSearchOptions;
  VectorSearch vector_search;

  /// Optional cooperative-cancellation token. Workers poll it at morsel
  /// boundaries; a cancelled run fails with `StatusCode::kCancelled`.
  std::shared_ptr<CancellationToken> cancel;

  /// Per-query memory budget (bytes) for breaker materializations — the
  /// scratch the blocking operators hold while they run: sort keys and
  /// permutations; the hash-join build table; the aggregate's
  /// code/argument/accumulator arrays. 0 (default) is unlimited:
  /// everything stays in memory. When > 0, an aggregate whose scratch
  /// would exceed the budget computes page by page from its resident
  /// inputs, and a join build over it writes its payload to disk and
  /// gathers matched rows back per probe; a sort always runs in memory.
  /// Results are bit-identical to the in-memory path, only scratch
  /// residency changes. Spill temp files live for exactly one run: they
  /// are deleted when the run returns, is cancelled, or its cursor is
  /// closed early. Purely a resource knob, NOT part of the plan-cache key.
  int64_t memory_budget_bytes = 0;

  /// Test-only fault injection: when set, the streaming executor invokes
  /// this with each result-pipeline morsel index before processing it and
  /// fails the run with any non-OK status returned. Lets tests prove that
  /// a mid-stream executor error surfaces identically through
  /// `ResultCursor::Next()` and `Run()` (no silent truncation).
  std::function<Status(int64_t)> inject_morsel_fault;
};

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_RUN_OPTIONS_H_
