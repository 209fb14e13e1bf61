#ifndef TDP_RUNTIME_INFERENCE_SCHEDULER_H_
#define TDP_RUNTIME_INFERENCE_SCHEDULER_H_

#include <cstdint>

namespace tdp {
namespace runtime {

/// Kept only for the `inference.*` metrics of perfbench's `multimodal`
/// workload, which reads these counters. Queries call model bodies
/// directly, and ModelEval is the only batching mechanism, so every
/// counter stays zero.
class InferenceScheduler {
 public:
  struct Stats {
    int64_t calls = 0;
    int64_t direct_calls = 0;
    int64_t forwards = 0;
    int64_t coalesced_requests = 0;
  };

  static InferenceScheduler& Global() {
    static InferenceScheduler scheduler;
    return scheduler;
  }

  Stats stats() const { return {}; }
};

}  // namespace runtime
}  // namespace tdp

#endif  // TDP_RUNTIME_INFERENCE_SCHEDULER_H_
