// The per-layer cost table is exact: a block's cost read from
// sim::LayerCostTable equals, bit for bit, the per-layer derivation it
// replaced, and the O(blocks) long-skip mask equals a walk over every
// skip edge.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/core/schedule_gen.h"
#include "src/graph/cost_model.h"
#include "src/graph/memory_model.h"
#include "src/graph/model_zoo.h"
#include "src/sim/device.h"
#include "src/sim/plan.h"
#include "src/util/rng.h"

namespace karma {
namespace {

/// A block's cost derived layer by layer from the analytic models, the
/// way the planner derived it before the table existed.
sim::BlockCost per_layer_cost(const graph::Model& model,
                              const sim::Block& block,
                              const sim::DeviceSpec& device) {
  sim::BlockCost cost;
  const int dtype = model.dtype_bytes();
  for (int i = block.first_layer; i < block.last_layer; ++i) {
    const graph::Layer& l = model.layer(i);
    const Bytes in_bytes = l.in_shape.rank()
                               ? static_cast<Bytes>(l.in_shape.numel()) * dtype
                               : 0;
    const Bytes out_bytes = static_cast<Bytes>(l.out_shape.numel()) * dtype;
    cost.fwd_time += device.kernel_time(l.kind, graph::forward_flops(l),
                                        in_bytes + out_bytes);
    cost.bwd_time += device.kernel_time(l.kind, graph::backward_flops(l),
                                        2 * in_bytes + out_bytes);
  }
  const graph::LayerMemory mem =
      graph::range_memory(model, block.first_layer, block.last_layer);
  cost.act_bytes = mem.activations;
  cost.param_bytes = mem.weights;
  cost.grad_bytes = mem.weight_grads;
  cost.boundary_bytes = static_cast<Bytes>(
      model.layer(block.last_layer - 1).out_shape.numel() * dtype);
  return cost;
}

/// The long-skip mask by walking every edge through a per-layer block map.
std::vector<bool> edge_walk_mask(const graph::Model& model,
                                 const std::vector<sim::Block>& blocks) {
  std::vector<int> block_of(model.num_layers(), 0);
  for (std::size_t b = 0; b < blocks.size(); ++b)
    for (int l = blocks[b].first_layer; l < blocks[b].last_layer; ++l)
      block_of[static_cast<std::size_t>(l)] = static_cast<int>(b);
  std::vector<bool> mask(blocks.size(), false);
  for (const auto& layer : model.layers())
    for (const int succ : model.succs(layer.id)) {
      const int from = block_of[static_cast<std::size_t>(layer.id)];
      if (block_of[static_cast<std::size_t>(succ)] > from + 1)
        mask[static_cast<std::size_t>(from)] = true;
    }
  return mask;
}

struct ZooCase {
  std::string name;
  graph::Model model;
};

std::vector<ZooCase> zoo() {
  return {
      {"ResNet-50", graph::make_resnet50(32)},
      {"ResNet-200", graph::make_resnet200(8)},
      {"VGG16", graph::make_vgg16(16)},
      {"WRN-28-10", graph::make_wrn28_10(64)},
      {"ResNet-1001", graph::make_resnet1001(64)},
      {"U-Net", graph::make_unet(4)},
      {"HighRes", graph::make_highres_segmenter(1, 1024)},
      {"LSTM", graph::make_lstm_seq2seq(8, 32, 256, 2)},
      {"GPT-2 0.7B", graph::make_transformer(graph::megatron_config(0), 2)},
      {"GPT-2 chain",
       graph::make_transformer_chain(graph::megatron_config(0), 2)},
  };
}

std::vector<sim::DeviceSpec> devices() {
  sim::DeviceSpec scaled = sim::v100_abci();
  scaled.name = "v100-scaled";
  scaled.scale.compute = 1.37;
  scaled.scale.h2d = 0.8;
  sim::DeviceSpec contended = sim::v100_abci_nvme();
  contended.name = "v100-nvme-contended";
  contended.nvme_contention.queue_depth = 3.0;
  return {sim::v100_abci(), scaled, contended};
}

/// Random blocking of `model` into 1..`max_blocks` contiguous blocks.
std::vector<sim::Block> random_blocking(const graph::Model& model, Rng& rng,
                                        int max_blocks) {
  const int n = static_cast<int>(model.num_layers());
  const int k = 1 + static_cast<int>(rng.next_below(
                        static_cast<std::uint64_t>(std::min(max_blocks, n))));
  std::vector<bool> cut(static_cast<std::size_t>(n), false);
  for (int c = 1; c < k; ++c)
    cut[1 + rng.next_below(static_cast<std::uint64_t>(n - 1))] = true;
  std::vector<sim::Block> blocks;
  int first = 0;
  for (int p = 1; p <= n; ++p)
    if (p == n || cut[static_cast<std::size_t>(p)]) {
      blocks.push_back({first, p});
      first = p;
    }
  return blocks;
}

TEST(LayerCostTable, EveryZooModelMatchesThePerLayerLoopBitForBit) {
  Rng rng(0xc057);
  int compared = 0;
  for (const auto& [name, model] : zoo()) {
    const int n = static_cast<int>(model.num_layers());
    for (const auto& device : devices()) {
      const sim::LayerCostTable table(model, device);
      std::vector<sim::Block> extents = {{0, n}, {0, 1}, {n - 1, n}};
      for (int i = 0; i < 40; ++i) {
        const int a = static_cast<int>(rng.next_below(n));
        const int b = static_cast<int>(rng.next_below(n));
        extents.push_back({std::min(a, b), std::max(a, b) + 1});
      }
      for (const auto& extent : extents) {
        const sim::BlockCost want = per_layer_cost(model, extent, device);
        const sim::BlockCost got = table.cost(extent);
        const std::string where = name + " on " + device.name + " [" +
                                  std::to_string(extent.first_layer) + ", " +
                                  std::to_string(extent.last_layer) + ")";
        EXPECT_EQ(std::memcmp(&got.fwd_time, &want.fwd_time, sizeof(double)),
                  0)
            << where << ": fwd " << got.fwd_time << " vs " << want.fwd_time;
        EXPECT_EQ(std::memcmp(&got.bwd_time, &want.bwd_time, sizeof(double)),
                  0)
            << where << ": bwd " << got.bwd_time << " vs " << want.bwd_time;
        EXPECT_EQ(got.act_bytes, want.act_bytes) << where;
        EXPECT_EQ(got.boundary_bytes, want.boundary_bytes) << where;
        EXPECT_EQ(got.param_bytes, want.param_bytes) << where;
        EXPECT_EQ(got.grad_bytes, want.grad_bytes) << where;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 10 * 3 * 43);
}

TEST(LayerCostTable, LongSkipMaskEqualsTheEdgeWalk) {
  Rng rng(0x5419);
  const std::vector<graph::Model> models = {graph::make_unet(2),
                                            graph::make_resnet1001(8)};
  int flagged = 0;
  for (const auto& model : models) {
    const sim::LayerCostTable table(model, sim::v100_abci());
    std::vector<std::vector<sim::Block>> blockings = {
        sim::uniform_blocks(model, 1), sim::uniform_blocks(model, 6),
        sim::uniform_blocks(model, 97)};
    for (int i = 0; i < 200; ++i)
      blockings.push_back(random_blocking(model, rng, 48));
    for (const auto& blocks : blockings) {
      std::vector<int> reach;
      for (const auto& b : blocks) reach.push_back(table.reach(b));
      const auto mask = core::blocks_with_long_skips(blocks, reach);
      EXPECT_EQ(mask, edge_walk_mask(model, blocks))
          << model.name() << ", " << blocks.size() << " blocks";
      for (const bool m : mask) flagged += m ? 1 : 0;
    }
  }
  EXPECT_GT(flagged, 0);  // the sweep exercised the rule, not only zeros
}

}  // namespace
}  // namespace karma
