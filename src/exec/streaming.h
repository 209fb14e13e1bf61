#ifndef TDP_EXEC_STREAMING_H_
#define TDP_EXEC_STREAMING_H_

#include <functional>

#include "src/common/status.h"
#include "src/exec/operators.h"

namespace tdp {
namespace exec {

/// Consumer of the result pipeline's chunks, invoked in morsel order.
/// Returning a non-OK status aborts execution with that status — the
/// bounded cursor queue uses this to stop production the moment the
/// cursor is closed or its run is cancelled.
using ChunkSink = std::function<Status(Chunk)>;

/// Runs the streaming executor push-style: every breaker (upstream)
/// pipeline materializes exactly as under `ExecutePlan`, then the final
/// (result) pipeline's chunks are handed to `sink` incrementally in
/// morsel order instead of being concatenated. The concatenation of the
/// sunk chunks is bit-identical to `ExecutePlan`'s result; at least one
/// chunk (possibly zero-row) is always sunk on success. Workers poll
/// `ctx.cancel` at morsel boundaries. A soft run is one whole-relation
/// morsel, so it sinks exactly one chunk.
Status ExecuteStreamingToSink(const plan::PipelinePlan& pplan,
                              const ExecContext& ctx, const ChunkSink& sink);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_STREAMING_H_
