#include "src/cache/request_key.h"

#include <bit>
#include <cstdint>
#include <string_view>

#include "src/api/plan_io.h"
#include "src/api/session.h"

namespace karma::cache {
namespace {

/// fp_version: the encoding's version, the first word of every key.
/// v5: binary word encoding hashed by util::Hasher128 (the v4 text
///     fingerprint and its FNV-1a digest are gone).
/// v4: fleet section + NVMe contention device fields (DESIGN.md §16) —
///     fleet-aware engines must never serve keys minted without them.
/// v3: anneal_workers + the rejection-sampled Rng (plans under the
///     unbiased stream differ from v2's, so v2 entries must miss).
/// v2: device scale fields + the calibration preamble entry.
constexpr int kFpVersion = 5;

/// request_fingerprint's word sink: each word as its 8 little-endian
/// bytes, so digest128(text) is the Hasher128 fed the same words.
struct TextSink {
  void word(std::uint64_t w) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(w >> (8 * i));
    text.append(bytes, sizeof bytes);
  }
  std::string text;
};

/// Canonical word encoder over a sink (util::Hasher128 or TextSink). The
/// overload is picked by the field's C++ type, so one field cannot be
/// encoded two ways; counts go through count() so a size_t never lands
/// on a narrower overload.
template <class Sink>
struct Encoder {
  Sink sink;

  void put(std::uint64_t v) { sink.word(v); }
  void put(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void put(int v) { put(static_cast<std::int64_t>(v)); }
  void put(bool v) { put(std::uint64_t{v ? 1u : 0u}); }
  void put(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void put(std::string_view v) {
    count(v.size());
    util::for_each_le_word(v, [this](std::uint64_t w) { sink.word(w); });
  }
  void count(std::size_t n) { put(static_cast<std::uint64_t>(n)); }
};

template <class Enc>
void write_shape(Enc& e, const graph::TensorShape& shape) {
  e.count(shape.rank());
  for (const std::int64_t d : shape.dims()) e.put(d);
}

template <class Enc>
void write_model(Enc& e, const graph::Model& model) {
  e.put(model.name());
  e.put(model.dtype_bytes());
  e.put(model.activation_memory_scale());
  e.count(model.num_layers());
  // A layer's id is its index (Model::add_layer), so position encodes it.
  for (const auto& layer : model.layers()) {
    e.put(layer.name);
    e.put(static_cast<int>(layer.kind));
    write_shape(e, layer.in_shape);
    write_shape(e, layer.out_shape);
    e.put(layer.kernel);
    e.put(layer.stride);
    e.put(layer.in_channels);
    e.put(layer.out_channels);
    e.put(layer.heads);
    e.put(layer.head_dim);
    e.put(layer.vocab);
    e.put(layer.weight_elems);
  }
  // One successor list per layer, via succs(), kept sorted ascending by
  // Model::add_edge — the order edges were *added* in cannot reach the key.
  for (const auto& layer : model.layers()) {
    const std::vector<int>& succs = model.succs(layer.id);
    e.count(succs.size());
    for (const int s : succs) e.put(s);
  }
}

template <class Enc>
void write_device(Enc& e, const sim::DeviceSpec& d) {
  e.put(d.name);
  e.put(d.memory_capacity);
  e.put(d.peak_flops);
  e.put(d.device_mem_bw);
  e.put(d.h2d_bw);
  e.put(d.d2h_bw);
  e.put(d.swap_latency);
  e.put(d.cpu_flops);
  e.put(d.host_mem_bw);
  e.put(d.host_capacity);
  e.put(d.nvme_capacity);
  e.put(d.nvme_read_bw);
  e.put(d.nvme_write_bw);
  e.put(d.nvme_latency);
  // NVMe contention model (DESIGN.md §16): unconditional like the scale
  // overlay — identity requests hash identical words to each other, and
  // contended devices never collide with their uncontended twins.
  e.put(d.nvme_contention.queue_depth);
  e.put(d.nvme_contention.mixed_read_penalty);
  e.put(d.nvme_contention.mixed_write_penalty);
  // Calibration overlay: identity for uncalibrated requests, but probe
  // requests derived from a calibrated flight embed scaled devices, and
  // those must not collide with their analytic twins.
  e.put(d.scale.compute);
  e.put(d.scale.h2d);
  e.put(d.scale.d2h);
  e.put(d.scale.nvme_read);
  e.put(d.scale.nvme_write);
  e.put(d.scale.cpu_update);
}

template <class Enc>
void write_planner(Enc& e, const core::PlannerOptions& p) {
  e.put(p.enable_recompute);
  e.put(p.min_blocks);
  e.put(p.max_blocks);
  e.put(p.anneal_iterations);
  // Plan-affecting: the portfolio reduction is deterministic for a fixed
  // worker count, but different counts explore different rng streams.
  e.put(p.anneal_workers);
  e.put(p.seed);
  e.put(p.schedule.prefetch_window);
  e.put(p.schedule.reserved_host_bytes);
}

template <class Enc>
void write_optimizer(Enc& e, const api::OptimizerSpec& o) {
  e.put(static_cast<int>(o.kind));
  e.put(o.host_resident);
  e.put(o.state_bytes_per_param_byte);
}

template <class Enc>
void write_distributed(Enc& e,
                       const std::optional<core::DistributedOptions>& d) {
  e.put(d.has_value());
  if (!d) return;
  e.put(d->num_gpus);
  e.put(d->net.gpus_per_node);
  e.put(d->net.intra_bw);
  e.put(d->net.intra_latency);
  e.put(d->net.inter_bw);
  e.put(d->net.inter_latency);
  e.put(static_cast<int>(d->exchange));
  e.put(static_cast<int>(d->update));
  e.put(d->iterations);
  e.put(d->weight_shard_fraction);
  // d->planner is intentionally absent: the Engine supersedes it with
  // PlanRequest::planner (see the header's exclusion list).
}

template <class Enc>
void write_fleet(Enc& e, const std::optional<place::FleetSpec>& f) {
  e.put(f.has_value());
  if (!f) return;
  e.count(f->nodes.size());
  for (const auto& node : f->nodes) {
    e.put(node.name);
    write_device(e, node.device);
  }
  e.put(f->net.gpus_per_node);
  e.put(f->net.intra_bw);
  e.put(f->net.intra_latency);
  e.put(f->net.inter_bw);
  e.put(f->net.inter_latency);
  e.put(static_cast<int>(f->strategy));
}

template <class Enc>
void write_request(Enc& e, const api::PlanRequest& request,
                   const std::string& calibration) {
  e.put(kFpVersion);
  // Schema bump = cache invalidation: new keys never collide with entries
  // written under the old schema (which plan_from_json rejects anyway).
  e.put(api::kPlanJsonVersion);
  // The active CalibrationTable's content hash ("" = analytic model).
  // Hot-swapping a table therefore re-keys the whole cache — stale plans
  // miss, and the engine turns the old-key entry into a repair seed.
  e.put(calibration);
  write_model(e, request.model);
  write_device(e, request.device);
  write_planner(e, request.planner);
  write_optimizer(e, request.optimizer);
  write_distributed(e, request.distributed);
  write_fleet(e, request.fleet);
}

}  // namespace

std::string request_fingerprint(const api::PlanRequest& request,
                                const std::string& calibration) {
  Encoder<TextSink> e;
  write_request(e, request, calibration);
  return std::move(e.sink.text);
}

RequestKey request_key(const api::PlanRequest& request,
                       const std::string& calibration) {
  Encoder<util::Hasher128> e;
  write_request(e, request, calibration);
  return {e.sink.finish()};
}

}  // namespace karma::cache
