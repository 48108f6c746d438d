#include "src/sim/plan.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "src/graph/cost_model.h"
#include "src/graph/memory_model.h"

namespace karma::sim {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kForward: return "F";
    case OpKind::kBackward: return "B";
    case OpKind::kRecompute: return "R";
    case OpKind::kSwapOut: return "Sout";
    case OpKind::kSwapIn: return "Sin";
    case OpKind::kAllReduce: return "AR";
    case OpKind::kCpuUpdate: return "U";
    case OpKind::kDeviceUpdate: return "Ud";
  }
  return "?";
}

Stream stream_of(OpKind kind) {
  switch (kind) {
    case OpKind::kForward:
    case OpKind::kBackward:
    case OpKind::kRecompute:
      return Stream::kCompute;
    case OpKind::kSwapIn:
      return Stream::kH2D;
    case OpKind::kSwapOut:
      return Stream::kD2H;
    case OpKind::kAllReduce:
      return Stream::kNet;
    case OpKind::kCpuUpdate:
      return Stream::kCpu;
    case OpKind::kDeviceUpdate:
      return Stream::kCompute;
  }
  return Stream::kCompute;
}

Stream stream_of_op(const Op& op) {
  if (op.tier == tier::Tier::kNvme) {
    if (op.kind == OpKind::kSwapIn) return Stream::kNvmeRead;
    if (op.kind == OpKind::kSwapOut) return Stream::kNvmeWrite;
  }
  return stream_of(op.kind);
}

std::string Plan::schedule_string() const {
  std::ostringstream os;
  int prev_stage = -1;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const int stage = i < stage_of.size() ? stage_of[i] : static_cast<int>(i);
    if (i > 0) os << (stage == prev_stage ? "||" : " -> ");
    os << op_kind_name(ops[i].kind) << ops[i].block + 1;
    // NVMe-tier swaps are primed: Sout3' is a swap-out to storage.
    if (ops[i].tier == tier::Tier::kNvme &&
        (ops[i].kind == OpKind::kSwapIn || ops[i].kind == OpKind::kSwapOut))
      os << "'";
    prev_stage = stage;
  }
  return os.str();
}

LayerCostTable::LayerCostTable(const graph::Model& model,
                               const DeviceSpec& device) {
  const std::size_t n = model.num_layers();
  const int dtype = model.dtype_bytes();
  layers_.reserve(n);
  prefix_.assign(n + 1, {});
  for (std::size_t i = 0; i < n; ++i) {
    const graph::Layer& l = model.layer(static_cast<int>(i));
    const Bytes in_bytes = l.in_shape.rank()
                               ? static_cast<Bytes>(l.in_shape.numel()) * dtype
                               : 0;
    const Bytes out_bytes = static_cast<Bytes>(l.out_shape.numel()) * dtype;
    int reach = static_cast<int>(i);
    for (const int succ : model.succs(l.id)) reach = std::max(reach, succ);
    // Backward touches the saved input, the incoming gradient, and writes
    // the outgoing gradient: ~3x the activation traffic.
    layers_.push_back({device.kernel_time(l.kind, graph::forward_flops(l),
                                          in_bytes + out_bytes),
                       device.kernel_time(l.kind, graph::backward_flops(l),
                                          2 * in_bytes + out_bytes),
                       out_bytes, reach});
    const graph::LayerMemory mem = graph::layer_memory(
        l, dtype, {}, model.activation_memory_scale());
    graph::LayerMemory& sum = prefix_[i + 1];
    sum.activations = prefix_[i].activations + mem.activations;
    sum.weights = prefix_[i].weights + mem.weights;
    sum.weight_grads = prefix_[i].weight_grads + mem.weight_grads;
  }
}

BlockCost LayerCostTable::cost(const Block& block) const {
  const auto first = static_cast<std::size_t>(block.first_layer);
  const auto last = static_cast<std::size_t>(block.last_layer);
  BlockCost cost;
  for (std::size_t i = first; i < last; ++i) {
    cost.fwd_time += layers_[i].fwd_time;
    cost.bwd_time += layers_[i].bwd_time;
  }
  cost.act_bytes = prefix_[last].activations - prefix_[first].activations;
  cost.param_bytes = prefix_[last].weights - prefix_[first].weights;
  cost.grad_bytes = prefix_[last].weight_grads - prefix_[first].weight_grads;
  cost.boundary_bytes = layers_[last - 1].out_bytes;
  return cost;
}

std::vector<BlockCost> LayerCostTable::costs(
    const std::vector<Block>& blocks) const {
  std::vector<BlockCost> out;
  out.reserve(blocks.size());
  for (const Block& b : blocks) out.push_back(cost(b));
  return out;
}

int LayerCostTable::reach(const Block& block) const {
  int reach = 0;
  for (int i = block.first_layer; i < block.last_layer; ++i)
    reach = std::max(reach, layers_[static_cast<std::size_t>(i)].reach);
  return reach;
}

std::vector<Block> uniform_blocks(const graph::Model& model, int max_layers) {
  if (max_layers <= 0) throw std::invalid_argument("uniform_blocks: max<=0");
  std::vector<Block> blocks;
  const int n = static_cast<int>(model.num_layers());
  for (int first = 0; first < n; first += max_layers) {
    blocks.push_back({first, std::min(first + max_layers, n)});
  }
  return blocks;
}

void validate_plan(const Plan& plan) {
  const auto fail = [&](const std::string& why) {
    throw std::logic_error("validate_plan(" + plan.strategy + "): " + why);
  };
  if (plan.blocks.empty()) fail("no blocks");
  if (plan.costs.size() != plan.blocks.size()) fail("costs size mismatch");
  if (!plan.stage_of.empty() && plan.stage_of.size() != plan.ops.size())
    fail("stage_of size mismatch");

  // Blocks must be a disjoint, complete, ordered cover (9.1 / 9.2).
  int expect = 0;
  for (const auto& b : plan.blocks) {
    if (b.first_layer != expect) fail("blocks not contiguous");
    if (b.last_layer <= b.first_layer) fail("empty block");
    expect = b.last_layer;
  }

  const int nb = plan.num_blocks();
  // Per-iteration residency replay. `acts[b]`: activations usable for the
  // backward pass; `boundary[b]`: the block-output checkpoint a following
  // block's recompute reads.
  struct IterState {
    std::vector<bool> acts, boundary;
    /// Offload tier holding each evicted block's activations (valid only
    /// while `evicted` is set): a swap-in must read from where the
    /// swap-out wrote.
    std::vector<tier::Tier> evicted_to;
    std::vector<bool> evicted;
    int next_fwd = 0;
    int next_bwd = 0;
    explicit IterState(int n)
        : acts(static_cast<std::size_t>(n), false),
          boundary(static_cast<std::size_t>(n), false),
          evicted_to(static_cast<std::size_t>(n), tier::Tier::kHost),
          evicted(static_cast<std::size_t>(n), false),
          next_bwd(n - 1) {}
  };
  std::map<int, IterState> iters;
  const auto iter_state = [&](int it) -> IterState& {
    return iters.try_emplace(it, nb).first->second;
  };

  int op_index = -1;
  for (const Op& op : plan.ops) {
    ++op_index;
    if (op.block < 0 || op.block >= nb) fail("op block out of range");
    if (op.after_op >= op_index) fail("after_op must reference an earlier op");
    IterState& st = iter_state(op.iteration);
    const auto b = static_cast<std::size_t>(op.block);
    switch (op.kind) {
      case OpKind::kForward:
        if (op.block != st.next_fwd) fail("forwards out of order");
        ++st.next_fwd;
        st.acts[b] = op.retains;
        st.boundary[b] = true;
        break;
      case OpKind::kBackward:
        if (op.block != st.next_bwd)
          fail("backwards out of order (block " + std::to_string(op.block) +
               ", expected " + std::to_string(st.next_bwd) + ")");
        --st.next_bwd;
        if (!st.acts[b])
          fail("backward of block " + std::to_string(op.block) +
               " without resident activations (missing SwapIn/Recompute)");
        st.acts[b] = false;  // consumed
        break;
      case OpKind::kRecompute:
        if (op.block > 0 && !st.acts[b - 1] && !st.boundary[b - 1])
          fail("recompute of block " + std::to_string(op.block) +
               " without predecessor output available");
        st.acts[b] = true;
        st.boundary[b] = true;
        break;
      case OpKind::kSwapOut:
        if (op.tier == tier::Tier::kNvme &&
            (!plan.hierarchy || !plan.hierarchy->has(tier::Tier::kNvme)))
          fail("NVMe-tier swap-out without an NVMe tier in the hierarchy");
        // Default-payload swap-outs evict the block's activations; custom
        // payloads (gradients in the distributed pipeline) do not.
        if (op.bytes == Op::kDefault) {
          st.acts[b] = false;
          st.boundary[b] = false;
          st.evicted[b] = true;
          st.evicted_to[b] = op.tier;
        }
        break;
      case OpKind::kSwapIn:
        if (op.tier == tier::Tier::kNvme &&
            (!plan.hierarchy || !plan.hierarchy->has(tier::Tier::kNvme)))
          fail("NVMe-tier swap-in without an NVMe tier in the hierarchy");
        if (op.bytes == Op::kDefault) {
          if (st.evicted[b] && st.evicted_to[b] != op.tier)
            fail("swap-in of block " + std::to_string(op.block) + " from '" +
                 tier::tier_name(op.tier) + "' but it was evicted to '" +
                 tier::tier_name(st.evicted_to[b]) + "'");
          st.acts[b] = true;
          st.boundary[b] = true;
          st.evicted[b] = false;
        }
        break;
      case OpKind::kAllReduce:
      case OpKind::kCpuUpdate:
      case OpKind::kDeviceUpdate:
        if (op.duration < 0.0)
          fail("AllReduce/CpuUpdate/DeviceUpdate requires an explicit duration");
        break;
    }
  }
  for (const auto& [it, st] : iters) {
    if (st.next_fwd != 0 && st.next_fwd != nb)
      fail("iteration " + std::to_string(it) + ": incomplete forward pass");
  }
}

}  // namespace karma::sim
