// Allocation counts of the search's hot path (DESIGN.md §14). A candidate
// is scored by emitting it into its search lane's Plan and replaying that
// plan in the lane's ReplayScratch, so once those buffers have grown to
// the largest candidate, scoring one should allocate next to nothing:
//  - a warm Engine::makespan allocates nothing at all: validation, the
//    dependency chains, the stream queues and the tier ledger all live in
//    the scratch or inline;
//  - a serial cold search allocates a few blocks per candidate, for its
//    memo entry and the anneal's proposed boundaries; the bounds are half
//    of what it took when every replay rebuilt its validation state and
//    ledger hierarchy and every candidate its blocks and policies.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/distributed.h"
#include "src/core/planner.h"
#include "src/graph/model_zoo.h"
#include "src/sim/device.h"
#include "src/sim/engine.h"
#include "src/util/alloc_counter.h"

namespace karma {
namespace {

core::PlannerOptions serial_options(int iterations) {
  core::PlannerOptions o;
  o.anneal_iterations = iterations;
  o.anneal_workers = 1;
  return o;
}

/// Operator-new calls of `calls` warm makespan replays of `plan`.
std::uint64_t warm_replay_allocations(const sim::Plan& plan,
                                      const sim::DeviceSpec& device,
                                      int calls = 20) {
  const sim::Engine engine(device);
  sim::ReplayScratch scratch;
  const Seconds first = engine.makespan(plan, scratch);  // grows the scratch
  const std::uint64_t before = util::allocations();
  Seconds last = 0.0;
  for (int i = 0; i < calls; ++i) last = engine.makespan(plan, scratch);
  const std::uint64_t spent = util::allocations() - before;
  EXPECT_EQ(last, first);
  return spent;
}

TEST(Allocations, WarmMakespanAllocatesNothing) {
  const sim::DeviceSpec device = sim::v100_abci();
  const std::vector<graph::Model> models = {graph::make_resnet50(512),
                                            graph::make_vgg16(64),
                                            graph::make_unet(32)};
  for (const graph::Model& model : models) {
    const core::PlanResult r =
        core::KarmaPlanner(model, device, serial_options(50)).plan();
    EXPECT_EQ(warm_replay_allocations(r.schedule, device), 0u) << model.name();
  }
}

TEST(Allocations, WarmMakespanOfTieredAndMultiIterationPlansAllocatesNothing) {
  // A plan that carries its own hierarchy (NVMe tier) and a two-iteration
  // data-parallel pipeline: the ledger copies the hierarchy's specs inline
  // and validation indexes iterations in the scratch.
  const sim::DeviceSpec nvme = sim::v100_abci_nvme();
  const core::PlanResult tiered =
      core::KarmaPlanner(graph::make_resnet50(1024), nvme, serial_options(50))
          .plan();
  ASSERT_TRUE(tiered.schedule.hierarchy.has_value());
  EXPECT_EQ(warm_replay_allocations(tiered.schedule, nvme), 0u);

  const sim::DeviceSpec device = sim::v100_abci();
  core::DistributedOptions dp;
  dp.num_gpus = 8;
  dp.iterations = 2;
  const core::PlanResult pipeline =
      core::plan_data_parallel(graph::make_resnet50(256), device, dp);
  EXPECT_EQ(warm_replay_allocations(pipeline.schedule, device), 0u);
}

TEST(Allocations, SerialColdSearchAllocatesFewBlocksPerCandidate) {
  struct Case {
    graph::Model model;
    double max_per_candidate;
  };
  const std::vector<Case> cases = {{graph::make_resnet50(512), 4.65},
                                   {graph::make_vgg16(64), 9.15},
                                   {graph::make_unet(32), 14.15}};
  const sim::DeviceSpec device = sim::v100_abci();
  for (const Case& c : cases) {
    const std::uint64_t before = util::allocations();
    const core::PlanResult r =
        core::KarmaPlanner(c.model, device, serial_options(2000)).plan();
    const std::uint64_t spent = util::allocations() - before;
    ASSERT_GT(r.search_stats.candidates, 0);
    const double per_candidate = static_cast<double>(spent) /
                                 static_cast<double>(r.search_stats.candidates);
    EXPECT_LE(per_candidate, c.max_per_candidate)
        << c.model.name() << ": " << spent << " allocations over "
        << r.search_stats.candidates << " candidates";
    std::printf("%s: %.2f allocations per candidate (%lld candidates)\n",
                c.model.name().c_str(), per_candidate,
                static_cast<long long>(r.search_stats.candidates));
  }
}

}  // namespace
}  // namespace karma
