// Out-of-core training on the numeric twin: train a real (small) network
// through a device pool deliberately too small for in-core execution, and
// verify at the end that the result is bit-identical to unconstrained
// training — the executable form of the paper's accuracy claim
// (Sec. IV-D).
//
// The OOC configuration is not hand-assembled: an analytic twin of the
// MLP goes through karma::api::Engine on a scaled-down device, and
// Plan::bind_executor() projects the planner's blocking + policies onto
// the real Sequential — the same facade path production callers use.
//
//   $ ./train_ooc
#include <cstdio>

#include "src/api/engine.h"
#include "src/graph/memory_model.h"
#include "src/train/data_parallel.h"
#include "src/train/synthetic.h"

namespace {

/// Analytic twin of train::make_mlp(widths): FullyConnected + ReLU layers
/// with the same topology, so the planner reasons about the same network
/// the executor runs.
karma::graph::Model make_mlp_twin(const std::vector<std::int64_t>& widths,
                                  std::int64_t batch) {
  using namespace karma::graph;
  Model model("MLP-twin");
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    Layer fc;
    fc.name = "fc" + std::to_string(i);
    fc.kind = LayerKind::kFullyConnected;
    fc.in_shape = TensorShape({batch, widths[i]});
    fc.out_shape = TensorShape({batch, widths[i + 1]});
    fc.weight_elems = widths[i] * widths[i + 1] + widths[i + 1];
    model.add_layer(std::move(fc));
    if (i + 2 < widths.size()) {
      Layer relu;
      relu.name = "relu" + std::to_string(i);
      relu.kind = LayerKind::kReLU;
      relu.in_shape = relu.out_shape = TensorShape({batch, widths[i + 1]});
      model.add_layer(std::move(relu));
    }
  }
  return model;
}

}  // namespace

int main() {
  using namespace karma;
  using namespace karma::train;

  constexpr std::uint64_t kSeed = 42;
  // Single source of truth: the real net and its analytic twin are both
  // built from this list, so they cannot silently diverge.
  const std::vector<std::int64_t> widths = {32, 64, 64, 64, 8};
  const auto factory = [&](Rng& rng) {
    return make_mlp(std::vector<std::size_t>(widths.begin(), widths.end()),
                    rng);
  };

  // Measure the in-core activation peak, then give the OOC run half.
  Rng data_rng(7);
  const SyntheticBatch data = make_synthetic_batch(32, {32}, 8, data_rng);
  Bytes incore_peak = 0;
  {
    Rng rng(kSeed);
    Sequential probe = factory(rng);
    OocExecutor probe_exec(
        &probe,
        uniform_ooc_blocks(probe.size(), probe.size(),
                           core::BlockPolicy::kResident),
        Bytes{1} << 30);
    probe_exec.compute_gradients(data.inputs, data.labels);
    incore_peak = probe_exec.pool().peak_used();
  }
  std::printf("in-core activation peak: %lld B\n",
              static_cast<long long>(incore_peak));

  // Reference: unconstrained training.
  Rng ref_rng(kSeed);
  Sequential reference = factory(ref_rng);
  SGD ref_opt(0.05f, 0.9f);
  SoftmaxCrossEntropy ref_loss;

  // KARMA-style OOC run: plan the twin on a device scaled so the model
  // does NOT fit (mirroring the halved pool), then bind the executor.
  api::PlanRequest request;
  request.model = make_mlp_twin(widths, 32);
  request.device = sim::test_device();
  // Scale the simulated HBM down until blocking is forced: weights stay
  // resident, but only ~half the activations fit — same regime the real
  // pool enforces below.
  {
    const auto all = graph::range_memory(
        request.model, 0, static_cast<int>(request.model.num_layers()));
    request.device.memory_capacity =
        all.weights + all.weight_grads +
        (all.activations + all.activation_grads) / 2;
  }
  request.optimizer.kind = api::OptimizerSpec::Kind::kSgdMomentum;
  request.planner.enable_recompute = true;
  request.planner.min_blocks = 2;

  const api::Plan plan = api::Engine::create()->plan_or_throw(request);
  std::printf("\nfacade plan: %zu blocks on '%s' (policies:",
              plan.blocks().size(), request.device.name.c_str());
  for (const auto p : plan.policies)
    std::printf(" %s", core::block_policy_name(p));
  std::printf(")\n");

  // Measure what the plan-derived protocol actually needs (the numeric
  // twin's byte accounting differs from the analytic model's), then run
  // the real training inside exactly that budget — which must undercut
  // the in-core peak, or the plan saved nothing.
  Bytes pool = 0;
  {
    Rng probe_rng(kSeed);
    Sequential probe = factory(probe_rng);
    OocExecutor probe_exec = plan.bind_executor(&probe, Bytes{1} << 30);
    probe_exec.compute_gradients(data.inputs, data.labels);
    pool = probe_exec.pool().peak_used();
  }
  std::printf("plan-derived OOC pool: %lld B (%.0f%% of in-core)\n",
              static_cast<long long>(pool),
              100.0 * static_cast<double>(pool) /
                  static_cast<double>(incore_peak));
  if (pool >= incore_peak) {
    std::printf("plan saved no memory — policies degenerate\n");
    return 1;
  }

  Rng ooc_rng(kSeed);
  Sequential ooc_net = factory(ooc_rng);
  OocExecutor executor = plan.bind_executor(&ooc_net, pool);
  SGD ooc_opt(0.05f, 0.9f);

  std::printf("\nstep   loss(in-core)  loss(OOC)   swapped     recomputed\n");
  for (int step = 0; step < 20; ++step) {
    reference.zero_grads();
    const float rl =
        ref_loss.forward(reference.forward(data.inputs), data.labels);
    reference.backward(ref_loss.grad_logits());
    ref_opt.step(reference.all_params(), reference.all_grads());

    // The OOC step also exercises the CPU-side update path (stage 5).
    const StepStats stats =
        executor.train_step(data.inputs, data.labels, ooc_opt,
                            /*cpu_update=*/true);
    if (step % 4 == 0 || step == 19)
      std::printf("%4d   %12.5f  %9.5f   %7lld B  %5lld layers\n", step, rl,
                  stats.loss, static_cast<long long>(stats.swapped_out_bytes),
                  static_cast<long long>(stats.recomputed_layers));
  }

  // The punchline: identical weights, bit for bit.
  const auto ref_params = reference.all_params();
  const auto ooc_params = ooc_net.all_params();
  bool identical = ref_params.size() == ooc_params.size();
  for (std::size_t i = 0; identical && i < ref_params.size(); ++i)
    identical = bitwise_equal(*ref_params[i], *ooc_params[i]);
  std::printf("\nweights bitwise identical to in-core training: %s\n",
              identical ? "YES" : "NO");
  std::printf("OOC peak pool usage: %lld B (pool %lld B)\n",
              static_cast<long long>(executor.pool().peak_used()),
              static_cast<long long>(pool));
  return identical ? 0 : 1;
}
