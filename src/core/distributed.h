// Data-parallel KARMA: the 5-stage pipeline of Sec. III-G / Fig. 3.
//
// Stages per block b, per iteration:
//   (1,2) capacity-based swap + interleaved recompute (as single-GPU),
//   (3)   gradients swap out to the host right after B(b), overlapped
//         with the swap-ins of earlier blocks on the other DMA direction,
//   (4)   *phased* AllReduce: finished blocks exchange without waiting
//         for the rest (MG-WFBP grouping from src/net),
//   (5)   CPU-side weight update, overlapped with everything else, before
//         the (updated) weights return to the device for the next
//         iteration's forward.
//
// Two weight regimes are handled:
//   - weights fit on the device (CNNs): weights stay resident; after the
//     CPU update the refreshed values are copied back in place;
//   - weights exceed the device (Megatron-LM, Turing-NLG): weights are
//     themselves swapped per block — in for F(b), dropped after, in again
//     for B(b), dropped with the gradient swap-out. This is what makes
//     pure data parallelism possible for billion-parameter models.
//
// One function emits the iteration: core::emit_iteration writes
// Algorithm 1 (stages 1-2, exactly the single-GPU ops) and, given the
// rank's DataParallelStages, stages 3-5 and the weight shards with it.
// Candidates are scored through core::CandidateStep, the step
// KarmaPlanner's search takes.
//
// All ranks are symmetric in synchronous data parallelism, so simulating
// one rank's pipeline with the collective costs from src/net reproduces
// the cluster's iteration time.
#pragma once

#include "src/core/planner.h"

namespace karma::core {

enum class ExchangeMode { kBulk, kPerBlock, kMerged };

struct DistributedOptions {
  int num_gpus = 2;
  net::NetSpec net = net::abci_net();
  ExchangeMode exchange = ExchangeMode::kMerged;
  UpdateSite update = UpdateSite::kCpu;
  /// Iterations to simulate; the steady-state time is measured on the
  /// last one (the first iteration has no update/swap-back pipeline
  /// running into its forward phase; Fig. 3 notes iterations after the
  /// 2nd look like the 2nd).
  int iterations = 2;
  PlannerOptions planner;
  /// Fraction of parameter+gradient+optimizer state each rank must hold
  /// when stacking KARMA on top of ZeRO-style partitioning (1.0 = plain
  /// data parallelism; 1/N for ZeRO stage 3). Scales the weight swap
  /// traffic per rank.
  double weight_shard_fraction = 1.0;
};

/// Plans and simulates data-parallel KARMA for `model` (built at the
/// *per-GPU* batch size). Throws std::runtime_error when infeasible. The
/// result carries the steady-state (last) and first iteration times, the
/// weight regime and the gradient exchange.
///
/// api::Engine runs this search for requests with PlanRequest::distributed
/// set, reporting infeasibility as a structured PlanError (per-tier shard
/// deficits included).
///
/// `control` / `on_improved` follow the KarmaPlanner::plan contract: the
/// token is polled per candidate (raising SearchInterrupted), each
/// admitted variant counts one candidate, every new incumbent best is
/// published through the callback, and the result's search_stats report
/// the effort. The uniform block-count scan runs no anneal.
PlanResult plan_data_parallel(
    const graph::Model& model, const sim::DeviceSpec& device,
    const DistributedOptions& options, const CancelToken& control = {},
    const std::function<void(const PlanResult&)>& on_improved = {});

}  // namespace karma::core
