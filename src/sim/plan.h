// Execution-plan intermediate representation (KARMA workflow step 5).
//
// A Plan is what every strategy — KARMA, vDNN++, SuperNeurons, gradient
// checkpointing, the in-core baseline, and the 5-stage distributed
// pipeline — compiles down to. Ops are listed in *issue order* and bound
// to streams by kind, exactly like work submitted to CUDA streams; the
// engine (engine.h) replays them with stream-FIFO + per-block dependency
// semantics and capacity accounting, so overlap and stalls emerge rather
// than being asserted.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/graph/memory_model.h"
#include "src/graph/model.h"
#include "src/sim/device.h"
#include "src/tier/hierarchy.h"
#include "src/util/units.h"

namespace karma::sim {

/// A block of consecutive layers [first_layer, last_layer), the paper's
/// unit of swapping / recompute / weight update (Sec. III-B footnote 1).
struct Block {
  int first_layer = 0;
  int last_layer = 0;  // exclusive
  int num_layers() const { return last_layer - first_layer; }
};

/// Per-block costs, read from the LayerCostTable of the model and device.
struct BlockCost {
  Seconds fwd_time = 0.0;    ///< forward compute time on-device
  Seconds bwd_time = 0.0;    ///< backward compute time on-device
  Bytes act_bytes = 0;       ///< retained activations (the swap unit)
  Bytes boundary_bytes = 0;  ///< output of the block's last layer (the
                             ///< checkpoint a following recompute reads)
  Bytes param_bytes = 0;     ///< weights
  Bytes grad_bytes = 0;      ///< weight gradients
};

enum class OpKind {
  kForward,    ///< forward compute of a block; allocates its activations
  kBackward,   ///< backward compute; consumes + frees its activations
  kRecompute,  ///< re-run of forward to rematerialize activations
  kSwapOut,    ///< device -> host copy; frees bytes on completion
  kSwapIn,     ///< host -> device copy; allocates bytes at start
  kAllReduce,  ///< gradient exchange for a block (duration from net model)
  kCpuUpdate,  ///< host-side SGD step on a block's parameters
  kDeviceUpdate,  ///< GPU-side SGD step (ablation baseline; occupies the
                  ///< compute stream, duration must be explicit)
};

const char* op_kind_name(OpKind kind);

/// Streams mirror the CUDA execution resources KARMA uses: one compute
/// queue, one DMA engine per direction, the NIC, the host CPU, and — for
/// the tiered-offload extension — one NVMe queue per direction (host-side
/// DMA to storage, overlapping both PCIe DMA engines).
enum class Stream {
  kCompute = 0,
  kH2D = 1,
  kD2H = 2,
  kNet = 3,
  kCpu = 4,
  kNvmeRead = 5,
  kNvmeWrite = 6,
};
inline constexpr int kNumStreams = 7;

Stream stream_of(OpKind kind);

/// One unit of work. Sentinel values (-1) mean "derive the default from
/// the op kind and the block's BlockCost":
///   Forward    bytes=act  alloc=act (or boundary if !retains)  free=0
///   Recompute  bytes=act  alloc=act                            free=0
///   Backward   bytes=act  alloc=act (gradient wavefront)       free=2*act
///   SwapIn     alloc=bytes, free=0;  SwapOut  alloc=0, free=bytes
///   AllReduce / CpuUpdate: no device memory, explicit duration required.
struct Op {
  OpKind kind = OpKind::kForward;
  int block = 0;
  /// Offload tier this swap targets: the swap-out destination or swap-in
  /// source. kHost reproduces the original two-level model; kNvme routes
  /// the transfer through the NVMe streams at storage bandwidth. Ignored
  /// for non-swap ops.
  tier::Tier tier = tier::Tier::kHost;
  /// Residency class of the payload (DESIGN.md §9) — what the destination
  /// tier's ledger charges and how the charge is eventually released:
  ///   kActivation   swap-out charges, the matching swap-in releases;
  ///   kWeightShard  reads/writes of the pinned host master copy: no
  ///                 ledger traffic (the baseline charge is static);
  ///   kGradient     swap-out charges, the block's CpuUpdate/DeviceUpdate
  ///                 releases on completion (set `bytes` on the update op
  ///                 to the gradient payload it consumes).
  /// Ignored for Forward/Backward/Recompute/AllReduce.
  tier::Residency residency = tier::Residency::kActivation;
  Bytes bytes = kDefault;      ///< swap payload (drives transfer time)
  Bytes alloc = kDefault;      ///< device bytes reserved when the op starts
  Bytes free = kDefault;       ///< device bytes released when it completes
  Seconds duration = kAuto;    ///< override; kAuto = engine derives
  bool retains = true;         ///< forward only: keep activations for bwd
  int iteration = 0;           ///< for multi-iteration (distributed) plans
  /// Optional explicit dependency: index into Plan::ops that must complete
  /// before this op starts. Lets planners express policies like vDNN's
  /// lookahead-1 prefetch or ooc_cuDNN's synchronous per-layer swaps,
  /// which deliberately *don't* start transfers as early as possible.
  int after_op = -1;

  static constexpr Bytes kDefault = -1;
  static constexpr Seconds kAuto = -1.0;
};

/// Tier-aware stream binding: swaps tagged kNvme run on the NVMe streams,
/// everything else falls back to stream_of(op.kind).
Stream stream_of_op(const Op& op);

struct Plan {
  std::string strategy;              ///< e.g. "karma+recompute"
  std::vector<Block> blocks;
  std::vector<BlockCost> costs;      ///< parallel to blocks
  Bytes capacity = 0;                ///< effective device capacity
  Bytes baseline_resident = 0;       ///< always-resident bytes (reported
                                     ///< in peak memory, outside capacity)
  /// Bytes pinned on the HOST tier for the whole plan (the distributed
  /// pipeline's master weight shards; DESIGN.md §9). Charged into the
  /// engine's host ledger as Residency::kWeightShard before any op runs,
  /// so transient gradient/activation traffic competes with it for the
  /// bounded tier. 0 for single-GPU plans.
  Bytes host_baseline_resident = 0;
  /// Offload-tier capacities for the tiered extension. nullopt (default)
  /// reproduces the seed's two-level model: unbounded host DRAM, no NVMe.
  /// When set, the engine charges swap-out payloads against the
  /// destination tier's ledger and deadlock reports include every tier.
  std::optional<tier::StorageHierarchy> hierarchy;
  std::vector<Op> ops;               ///< issue order
  /// Stage annotation for pretty-printing (Sec. III-F.3): stage_of[i] is
  /// the stage index of ops[i]; ops sharing a stage are "||" in the paper
  /// notation. Purely cosmetic — the engine derives overlap itself.
  std::vector<int> stage_of;

  int num_blocks() const { return static_cast<int>(blocks.size()); }

  /// Renders the Sec. III-F.3 schedule string, e.g.
  /// "F1 -> F2||Sout1 -> F3 -> ... -> B1".
  std::string schedule_string() const;
};

/// Per-layer cost table of one (model, device), built once and then read
/// per block (DESIGN.md §14). Each layer's forward/backward kernel time
/// comes from the analytic models; weight, gradient and activation bytes
/// are prefix sums. A block's times are its layers' cached times summed in
/// layer order, so they are bit-identical to re-deriving each layer, and
/// its bytes are prefix differences.
class LayerCostTable {
 public:
  LayerCostTable(const graph::Model& model, const DeviceSpec& device);

  BlockCost cost(const Block& block) const;
  std::vector<BlockCost> costs(const std::vector<Block>& blocks) const;
  /// The farthest layer any layer of `block` feeds (at least its own last
  /// layer): the block has a long skip when this lands two blocks on.
  int reach(const Block& block) const;
  /// Retained activation bytes of the layers before `layer`.
  Bytes activations_before(int layer) const {
    return prefix_[static_cast<std::size_t>(layer)].activations;
  }

 private:
  struct Layer {
    Seconds fwd_time = 0.0;
    Seconds bwd_time = 0.0;
    Bytes out_bytes = 0;  ///< the layer's output (a checkpoint)
    int reach = 0;        ///< the layer's farthest successor
  };
  std::vector<Layer> layers_;
  std::vector<graph::LayerMemory> prefix_;  ///< sums over layers [0, i)
};

/// Uniform partition of a model into blocks of at most `max_layers` layers.
std::vector<Block> uniform_blocks(const graph::Model& model, int max_layers);

/// Structural validation; throws std::logic_error with a diagnostic when:
///  - block ranges are not a disjoint complete cover of the layers
///    (constraint 9.1 / 9.2),
///  - forwards / backwards are not issued in topological / reverse order,
///  - a backward runs without resident activations (no swap-in or
///    recompute after the last eviction),
///  - a recompute runs without its predecessor block's output available,
///  - an AllReduce / CpuUpdate lacks an explicit duration.
/// These are the checks every Engine replay runs in its one walk over the
/// ops (engine.cpp); this entry runs that walk on its own.
void validate_plan(const Plan& plan);

}  // namespace karma::sim
