// The introduction's second motivating case: "even a single training
// sample is too large to be processed on a single GPU" (high-resolution
// medical / satellite imagery, up to ~2 GiB per sample [5]).
//
//   $ ./highres_sample [resolution]
//
// Shows a fully convolutional segmenter at batch = 1 whose in-core
// footprint exceeds the device severalfold, and the out-of-core plan
// KARMA generates for it — including the generated training script
// (workflow step 5).
#include <cstdio>
#include <cstdlib>

#include "src/api/engine.h"
#include "src/core/codegen.h"
#include "src/graph/memory_model.h"
#include "src/graph/model_zoo.h"

int main(int argc, char** argv) {
  using namespace karma;

  const std::int64_t resolution = argc > 1 ? std::atoll(argv[1]) : 4096;
  const sim::DeviceSpec device = sim::v100_abci();
  const graph::Model model = graph::make_highres_segmenter(1, resolution);

  const Bytes sample_bytes =
      static_cast<Bytes>(3 * resolution * resolution) * model.dtype_bytes();
  const Bytes footprint = graph::in_core_footprint(model);
  std::printf("%s: one %lldx%lld sample = %s raw input\n",
              model.name().c_str(), static_cast<long long>(resolution),
              static_cast<long long>(resolution),
              format_bytes(sample_bytes).c_str());
  std::printf("in-core training footprint at batch 1: %s  (device: %s, %.1fx"
              " over)\n",
              format_bytes(footprint).c_str(),
              format_bytes(device.memory_capacity).c_str(),
              static_cast<double>(footprint) /
                  static_cast<double>(device.memory_capacity));

  api::PlanRequest request;
  request.model = model;
  request.device = device;
  request.planner.enable_recompute = true;
  const api::Plan plan = api::Engine::create()->plan_or_throw(request);

  std::printf("\nKARMA plan: %zu blocks, iteration %s, occupancy %.3f\n",
              plan.blocks().size(),
              format_seconds(plan.iteration_time).c_str(), plan.occupancy);
  std::printf("peak device memory: %s (fits!)\n",
              format_bytes(plan.trace.peak_resident).c_str());
  int swapped = 0, recomputed = 0, resident = 0;
  for (const auto policy : plan.policies) {
    if (policy == core::BlockPolicy::kSwap) ++swapped;
    else if (policy == core::BlockPolicy::kRecompute) ++recomputed;
    else ++resident;
  }
  std::printf("policies: %d swapped, %d recomputed, %d resident\n", swapped,
              recomputed, resident);

  std::printf("\ngenerated training script (first 30 lines):\n");
  const std::string script = core::generate_training_script(plan.schedule);
  std::size_t pos = 0;
  for (int line = 0; line < 30 && pos != std::string::npos; ++line) {
    const std::size_t end = script.find('\n', pos);
    std::printf("  %s\n", script.substr(pos, end - pos).c_str());
    pos = end == std::string::npos ? end : end + 1;
  }
  return 0;
}
