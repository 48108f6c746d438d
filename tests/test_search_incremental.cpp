// Portfolio annealing and the search objective (DESIGN.md §14).
//
// The load-bearing property here is that the objective the search ranks
// by is exactly the engine's replay: a plan's reported iteration_time
// must equal sim::Engine::run on that plan, bit for bit. The candidate
// memo can be shared across portfolio workers only because a memoized
// value and a recomputed one can never differ, and the stable reduction
// makes the N-worker search deterministic only because each walk's
// observed energies are scheduling-independent.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/planner.h"
#include "src/graph/model_zoo.h"
#include "src/sim/engine.h"

namespace karma {
namespace {

using core::KarmaPlanner;
using core::PlannerOptions;
using core::PlanResult;

void expect_traces_identical(const sim::ExecutionTrace& a,
                             const sim::ExecutionTrace& b,
                             const std::string& what) {
  ASSERT_EQ(a.records.size(), b.records.size()) << what;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    EXPECT_EQ(ra.op_index, rb.op_index) << what << " record " << i;
    EXPECT_EQ(ra.kind, rb.kind) << what << " record " << i;
    EXPECT_EQ(ra.block, rb.block) << what << " record " << i;
    EXPECT_EQ(ra.iteration, rb.iteration) << what << " record " << i;
    // Bit-equality on the floats, deliberately: the same plan replays the
    // same arithmetic in the same order, so even rounding must agree.
    EXPECT_EQ(ra.start, rb.start) << what << " record " << i;
    EXPECT_EQ(ra.end, rb.end) << what << " record " << i;
    EXPECT_EQ(ra.stall, rb.stall) << what << " record " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.compute_busy, b.compute_busy) << what;
  EXPECT_EQ(a.peak_resident, b.peak_resident) << what;
  EXPECT_EQ(a.peak_host_resident, b.peak_host_resident) << what;
  EXPECT_EQ(a.peak_nvme_resident, b.peak_nvme_resident) << what;
}

// ---- Planner-level guarantees.

PlannerOptions search_options(int workers) {
  PlannerOptions o;
  o.enable_recompute = true;
  o.anneal_iterations = 80;
  o.anneal_workers = workers;
  return o;
}

void expect_results_identical(const PlanResult& a, const PlanResult& b,
                              const std::string& what) {
  EXPECT_EQ(a.iteration_time, b.iteration_time) << what;
  EXPECT_EQ(a.schedule.blocks.size(), b.schedule.blocks.size()) << what;
  EXPECT_EQ(a.policies, b.policies) << what;
  EXPECT_EQ(a.schedule.schedule_string(), b.schedule.schedule_string()) << what;
  expect_traces_identical(a.trace, b.trace, what);
}

TEST(PortfolioSearch, NWorkerPlanBitIdenticalAcrossRuns) {
  // Same seed, N threads, two runs: thread timing must not leak into the
  // chosen plan. Runs under the TSan CI job with real concurrency.
  const graph::Model m = graph::make_resnet50(512);
  const KarmaPlanner planner(m, sim::v100_abci(), search_options(4));
  const PlanResult a = planner.plan();
  const PlanResult b = planner.plan();
  expect_results_identical(a, b, "two 4-worker runs");
  EXPECT_EQ(a.search_stats.anneal_workers, 4);
}

TEST(PortfolioSearch, NWorkersNeverWorseThanOne) {
  // The 1-worker walk is one of the portfolio's diversification rungs in
  // budget terms, not a strict subset — so the N-worker result may DIFFER
  // from the serial one, but the documented contract is it never loses:
  // more diversified walks over the same shared memo can only add
  // candidates to the reduction.
  for (std::int64_t batch : {384, 512}) {
    const graph::Model m = graph::make_resnet50(batch);
    const PlanResult one =
        KarmaPlanner(m, sim::v100_abci(), search_options(1)).plan();
    const PlanResult four =
        KarmaPlanner(m, sim::v100_abci(), search_options(4)).plan();
    EXPECT_LE(four.iteration_time, one.iteration_time * (1.0 + 1e-9))
        << "batch " << batch;
  }
}

TEST(PortfolioSearch, RepairRidesSuffixResim) {
  // plan_from seeds the search with the cached plan: the repair is a
  // warm start, and it runs the same portfolio anneal as the cold search.
  const graph::Model m = graph::make_resnet50(512);
  const KarmaPlanner planner(m, sim::v100_abci(), search_options(4));
  const PlanResult cold = planner.plan();
  const PlanResult repaired =
      planner.plan_from(cold.schedule.blocks, cold.policies);
  EXPECT_TRUE(repaired.search_stats.warm_started);
  // Warm start must not land anywhere worse than the seed it was given.
  EXPECT_LE(repaired.iteration_time, cold.iteration_time * (1.0 + 1e-9));
}

TEST(PortfolioSearch, ReportedIterationTimeMatchesFullReplay) {
  // The search's objective must be the engine itself: the iteration_time
  // a plan reports is bit-identical to replaying that plan from op 0.
  // These ResNet-50 seeds once reported times 0.4-4.1% off their replay,
  // when candidates resumed from engine checkpoints mid-plan.
  struct Case {
    std::int64_t batch;
    std::uint64_t seed;
  };
  const std::vector<Case> cases = {
      {768, 11458623658677507965ull}, {640, 12285948757477592399ull},
      {640, 11411127391396423534ull}, {640, 5462281074070370685ull},
      {640, 11132772262848591049ull},
  };
  const sim::DeviceSpec device = sim::v100_abci();
  for (const Case& c : cases) {
    const graph::Model m = graph::make_resnet50(c.batch);
    PlannerOptions o;
    o.anneal_iterations = 2000;
    o.seed = c.seed;
    const PlanResult result = KarmaPlanner(m, device, o).plan();
    EXPECT_EQ(result.iteration_time,
              sim::Engine(device).run(result.schedule).makespan)
        << "batch " << c.batch << " seed " << c.seed;
  }
}

}  // namespace
}  // namespace karma
