// Discrete-event engine with CUDA-stream semantics.
//
// Ops are issued in plan order onto five streams (compute, H2D DMA, D2H
// DMA, NIC, host CPU). An op starts when
//   (1) it is at the head of its stream's FIFO queue,
//   (2) the most recently issued earlier op touching the same block has
//       completed (per-block producer/consumer chain),
//   (3) for ops that allocate device memory (forward/recompute/backward
//       transients, swap-ins), enough capacity is free.
// Completion events free memory (backward consumes activations, swap-out
// evicts). The engine is single-threaded and fully deterministic: ties are
// broken by stream id, then op index.
//
// This mirrors how KARMA's generated script behaves on real hardware
// (Sec. III-H): prefetches are cudaMemPrefetchAsync on a side stream,
// compute waits on events, and stalls appear exactly when a dependency or
// the capacity limit blocks the compute queue.
#pragma once

#include "src/sim/plan.h"
#include "src/sim/trace.h"

namespace karma::sim {

class Engine {
 public:
  explicit Engine(DeviceSpec device) : device_(device) {}

  /// Replays `plan` from op 0 and returns the trace. Throws
  /// karma::InfeasibleError with a state dump if the plan deadlocks (e.g.
  /// a swap-in that can never fit) and std::logic_error if the plan fails
  /// validation.
  ExecutionTrace run(const Plan& plan) const;

  const DeviceSpec& device() const { return device_; }

 private:
  Seconds op_duration(const Plan& plan, const Op& op) const;
  Bytes op_bytes(const Plan& plan, const Op& op) const;

  DeviceSpec device_;
};

}  // namespace karma::sim
