// Discrete-event engine with CUDA-stream semantics.
//
// Ops are issued in plan order onto seven streams (compute, H2D DMA, D2H
// DMA, NIC, host CPU, NVMe read, NVMe write). An op starts when
//   (1) it is at the head of its stream's FIFO queue,
//   (2) the most recently issued earlier op touching the same block has
//       completed (per-block producer/consumer chain),
//   (3) for ops that allocate device memory (forward/recompute/backward
//       transients, swap-ins), enough capacity is free,
//   (4) its stream's previous op has retired. An op that takes zero time
//       ends at the instant it starts and retires at the next event, at
//       the same time; only then may its successor on the stream start.
// Completion events free memory (backward consumes activations, swap-out
// evicts). A start never completes a dependency and never frees memory,
// so one start pass per event, over the streams that have ops, starts
// everything that can start. The engine is single-threaded and fully
// deterministic: ties are broken by stream id, then op index.
//
// A replay first walks the ops once: that walk runs every validate_plan
// check, builds the dependency chains and stream queues, and computes
// each op's stream, payload, device alloc and free and tier charge.
//
// One event loop, two outputs (DESIGN.md §14): run() returns the per-op
// trace, makespan() only the iteration time. makespan() is what the
// planner's search scores every candidate by; it writes no OpRecords and
// keeps the walk's and the loop's arrays in a ReplayScratch the caller
// reuses, so they grow to the largest plan once and a warm makespan()
// allocates nothing. Both outputs come from the same loop, so
// makespan(plan) == run(plan).makespan bit for bit.
//
// This mirrors how KARMA's generated script behaves on real hardware
// (Sec. III-H): prefetches are cudaMemPrefetchAsync on a side stream,
// compute waits on events, and stalls appear exactly when a dependency or
// the capacity limit blocks the compute queue.
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "src/sim/plan.h"
#include "src/sim/trace.h"

namespace karma::sim {

/// The working arrays of one replay. A caller that replays many plans
/// keeps one and passes it to every makespan() call; each replay resets
/// everything it reads, so a scratch reused across plans of any size gives
/// the same answers as a fresh one.
struct ReplayScratch {
  /// One op: the constants the walk over the ops derives once, then the
  /// event loop's state.
  struct OpState {
    int dep1 = -1;    ///< latest earlier op on the same block
    int dep2 = -1;    ///< recompute: latest earlier op on block - 1
    int after = -1;   ///< Op::after_op
    int stream = 0;   ///< stream_of_op
    Bytes payload = 0;  ///< Op::bytes, or the block's activations
    Bytes alloc = 0;    ///< device bytes reserved when the op starts
    Bytes free = 0;     ///< device bytes released when it completes
    Bytes charge = 0;   ///< offload-tier bytes a swap-out reserves at start
    bool done = false;
    Seconds start = 0.0;
    Seconds end = 0.0;
  };
  /// validate_plan's residency replay of one block in one iteration:
  /// whether its activations are usable for the backward pass, whether
  /// its output checkpoint (what a following recompute reads) is, and the
  /// offload tier an evicted block's activations went to.
  struct BlockResidency {
    bool acts = false;
    bool boundary = false;
    bool evicted = false;
    tier::Tier evicted_to = tier::Tier::kHost;
  };
  /// validate_plan's forward and backward cursors of one iteration.
  struct IterationCursor {
    int iteration = 0;  ///< Op::iteration
    int next_fwd = 0;
    int next_bwd = 0;
  };
  std::vector<OpState> ops;
  std::vector<int> last_on_block;
  std::array<std::vector<int>, kNumStreams> queue;  ///< stream FIFOs
  /// The iterations the plan's ops name, in order of first appearance,
  /// and their blocks' residency, [slot * num_blocks + block].
  std::vector<IterationCursor> iterations;
  std::vector<BlockResidency> residency;
  /// Offload ledgers indexed [block * tier::kNumTiers + tier]: activation
  /// bytes some swap-out spilled, and gradient bytes awaiting the block's
  /// update.
  std::vector<Bytes> spilled;
  std::vector<Bytes> grad_in_flight;
};

class Engine {
 public:
  explicit Engine(DeviceSpec device) : device_(std::move(device)) {}

  /// Replays `plan` from op 0 and returns the trace. Throws
  /// karma::InfeasibleError with a state dump if the plan deadlocks (e.g.
  /// a swap-in that can never fit) and std::logic_error if the plan fails
  /// validation.
  ExecutionTrace run(const Plan& plan) const;

  /// The same replay, returning only run(plan).makespan (bit-identical)
  /// and throwing exactly where run() throws. Writes no OpRecords, and
  /// works in `scratch` instead of allocating its own arrays.
  Seconds makespan(const Plan& plan, ReplayScratch& scratch) const;

  const DeviceSpec& device() const { return device_; }

 private:
  /// What the event loop reports besides each op's start and end (left in
  /// ReplayScratch::ops).
  struct Totals {
    Seconds makespan = 0.0;
    Seconds compute_busy = 0.0;
    Bytes min_free = 0;
    Bytes peak_host = 0;
    Bytes peak_nvme = 0;
  };
  /// The one event loop behind run() and makespan().
  Totals replay(const Plan& plan, ReplayScratch& scratch) const;
  Seconds op_duration(const Plan& plan, const Op& op, Bytes payload) const;

  DeviceSpec device_;
};

}  // namespace karma::sim
