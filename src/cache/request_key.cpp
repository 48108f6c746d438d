#include "src/cache/request_key.h"

#include <cinttypes>
#include <cstdio>

#include "src/api/plan_io.h"
#include "src/api/session.h"

namespace karma::cache {
namespace {

/// Append-only canonical serializer. Same philosophy as plan_io's
/// JsonWriter: determinism falls out of the code structure, not a schema
/// walker. Strings are length-prefixed (`name=5:hello;`) so field values
/// cannot impersonate delimiters.
class Fingerprint {
 public:
  std::string take() { return std::move(out_); }

  void section(const char* name) {
    out_ += name;
    out_ += '{';
  }
  void end_section() { out_ += '}'; }

  void field(const char* key, std::int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    emit(key, buf);
  }
  void field(const char* key, int v) { field(key, static_cast<std::int64_t>(v)); }
  void field(const char* key, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    emit(key, buf);
  }
  void field(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    emit(key, buf);
  }
  void field(const char* key, bool v) { emit(key, v ? "1" : "0"); }
  void field(const char* key, const std::string& v) {
    out_ += key;
    out_ += '=';
    out_ += std::to_string(v.size());
    out_ += ':';
    out_ += v;
    out_ += ';';
  }

 private:
  void emit(const char* key, const char* value) {
    out_ += key;
    out_ += '=';
    out_ += value;
    out_ += ';';
  }
  std::string out_;
};

void write_shape(Fingerprint& fp, const char* key,
                 const graph::TensorShape& shape) {
  std::string dims;
  for (std::size_t i = 0; i < shape.rank(); ++i) {
    if (i) dims += 'x';
    dims += std::to_string(shape.dim(i));
  }
  fp.field(key, dims);
}

void write_model(Fingerprint& fp, const graph::Model& model) {
  fp.section("model");
  fp.field("name", model.name());
  fp.field("dtype_bytes", model.dtype_bytes());
  fp.field("act_scale", model.activation_memory_scale());
  fp.field("layers", static_cast<std::int64_t>(model.num_layers()));
  for (const auto& layer : model.layers()) {
    fp.section("l");
    fp.field("name", layer.name);
    fp.field("kind", static_cast<int>(layer.kind));
    write_shape(fp, "in", layer.in_shape);
    write_shape(fp, "out", layer.out_shape);
    fp.field("kernel", layer.kernel);
    fp.field("stride", layer.stride);
    fp.field("in_ch", layer.in_channels);
    fp.field("out_ch", layer.out_channels);
    fp.field("heads", layer.heads);
    fp.field("head_dim", layer.head_dim);
    fp.field("vocab", layer.vocab);
    fp.field("weights", layer.weight_elems);
    fp.end_section();
  }
  // Edges via succs(), kept sorted ascending by Model::add_edge — the
  // order edges were *added* in cannot reach the fingerprint.
  fp.section("edges");
  for (const auto& layer : model.layers()) {
    std::string succs;
    for (const int s : model.succs(layer.id)) {
      if (!succs.empty()) succs += ',';
      succs += std::to_string(s);
    }
    fp.field(std::to_string(layer.id).c_str(), succs);
  }
  fp.end_section();
  fp.end_section();
}

void write_device(Fingerprint& fp, const sim::DeviceSpec& d) {
  fp.section("device");
  fp.field("name", d.name);
  fp.field("memory_capacity", d.memory_capacity);
  fp.field("peak_flops", d.peak_flops);
  fp.field("device_mem_bw", d.device_mem_bw);
  fp.field("h2d_bw", d.h2d_bw);
  fp.field("d2h_bw", d.d2h_bw);
  fp.field("swap_latency", d.swap_latency);
  fp.field("cpu_flops", d.cpu_flops);
  fp.field("host_mem_bw", d.host_mem_bw);
  fp.field("host_capacity", d.host_capacity);
  fp.field("nvme_capacity", d.nvme_capacity);
  fp.field("nvme_read_bw", d.nvme_read_bw);
  fp.field("nvme_write_bw", d.nvme_write_bw);
  fp.field("nvme_latency", d.nvme_latency);
  // NVMe contention model (DESIGN.md §16): unconditional like the scale
  // overlay — identity requests hash identical bytes to each other, and
  // contended devices never collide with their uncontended twins.
  fp.field("qd", d.nvme_contention.queue_depth);
  fp.field("mixed_read", d.nvme_contention.mixed_read_penalty);
  fp.field("mixed_write", d.nvme_contention.mixed_write_penalty);
  // Calibration overlay: identity for uncalibrated requests, but probe
  // requests derived from a calibrated flight embed scaled devices, and
  // those must not collide with their analytic twins.
  fp.field("scale_compute", d.scale.compute);
  fp.field("scale_h2d", d.scale.h2d);
  fp.field("scale_d2h", d.scale.d2h);
  fp.field("scale_nvme_read", d.scale.nvme_read);
  fp.field("scale_nvme_write", d.scale.nvme_write);
  fp.field("scale_cpu_update", d.scale.cpu_update);
  fp.end_section();
}

void write_planner(Fingerprint& fp, const core::PlannerOptions& p) {
  fp.section("planner");
  fp.field("recompute", p.enable_recompute);
  fp.field("min_blocks", p.min_blocks);
  fp.field("max_blocks", p.max_blocks);
  fp.field("anneal", p.anneal_iterations);
  // Plan-affecting: the portfolio reduction is deterministic for a fixed
  // worker count, but different counts explore different rng streams.
  fp.field("anneal_workers", p.anneal_workers);
  fp.field("seed", static_cast<std::uint64_t>(p.seed));
  fp.field("prefetch", p.schedule.prefetch_window);
  fp.field("reserved_host", p.schedule.reserved_host_bytes);
  fp.end_section();
}

void write_optimizer(Fingerprint& fp, const api::OptimizerSpec& o) {
  fp.section("optimizer");
  fp.field("kind", static_cast<int>(o.kind));
  fp.field("host_resident", o.host_resident);
  fp.field("state_per_param", o.state_bytes_per_param_byte);
  fp.end_section();
}

void write_distributed(Fingerprint& fp,
                       const std::optional<core::DistributedOptions>& d) {
  fp.section("distributed");
  if (!d) {
    fp.field("none", true);
    fp.end_section();
    return;
  }
  fp.field("num_gpus", d->num_gpus);
  fp.field("gpus_per_node", d->net.gpus_per_node);
  fp.field("intra_bw", d->net.intra_bw);
  fp.field("intra_latency", d->net.intra_latency);
  fp.field("inter_bw", d->net.inter_bw);
  fp.field("inter_latency", d->net.inter_latency);
  fp.field("exchange", static_cast<int>(d->exchange));
  fp.field("update", static_cast<int>(d->update));
  fp.field("iterations", d->iterations);
  fp.field("shard_fraction", d->weight_shard_fraction);
  // d->planner is intentionally absent: Session supersedes it with
  // PlanRequest::planner (see the header's exclusion list).
  fp.end_section();
}

void write_fleet(Fingerprint& fp,
                 const std::optional<place::FleetSpec>& f) {
  fp.section("fleet");
  if (!f) {
    fp.field("none", true);
    fp.end_section();
    return;
  }
  fp.field("nodes", f->num_nodes());
  for (const auto& node : f->nodes) {
    fp.section("n");
    fp.field("name", node.name);
    write_device(fp, node.device);
    fp.end_section();
  }
  fp.field("gpus_per_node", f->net.gpus_per_node);
  fp.field("intra_bw", f->net.intra_bw);
  fp.field("intra_latency", f->net.intra_latency);
  fp.field("inter_bw", f->net.inter_bw);
  fp.field("inter_latency", f->net.inter_latency);
  fp.field("strategy", static_cast<int>(f->strategy));
  fp.end_section();
}

}  // namespace

std::string request_fingerprint(const api::PlanRequest& request,
                                const std::string& calibration) {
  Fingerprint fp;
  fp.section("karma-request-fp");
  // v4: fleet section + NVMe contention device fields (DESIGN.md §16) —
  // fleet-aware engines must never serve keys minted without them.
  // v3: anneal_workers + the rejection-sampled Rng (plans under the
  // unbiased stream differ from v2's, so v2 entries must miss).
  // v2: device scale fields + the calibration preamble entry below.
  fp.field("fp_version", 4);
  // Schema bump = cache invalidation: new keys never collide with entries
  // written under the old schema (which plan_from_json rejects anyway).
  fp.field("plan_schema", api::kPlanJsonVersion);
  // The active CalibrationTable's content hash ("" = analytic model).
  // Hot-swapping a table therefore re-keys the whole cache — stale plans
  // miss, and the engine turns the old-key entry into a repair seed.
  fp.field("calibration", calibration);
  fp.end_section();
  write_model(fp, request.model);
  write_device(fp, request.device);
  write_planner(fp, request.planner);
  write_optimizer(fp, request.optimizer);
  write_distributed(fp, request.distributed);
  write_fleet(fp, request.fleet);
  return fp.take();
}

RequestKey request_key(const api::PlanRequest& request,
                       const std::string& calibration) {
  return {util::digest128(request_fingerprint(request, calibration))};
}

}  // namespace karma::cache
