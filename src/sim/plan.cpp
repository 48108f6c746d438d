#include "src/sim/plan.h"

#include <algorithm>
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

}  // namespace karma::sim
