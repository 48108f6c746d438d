// One declared field list per serialized struct (DESIGN.md §8, §10, §12).
// Internal: include only from src/api/*.cpp and src/cache/request_key.cpp.
//
// Every struct that travels as JSON or joins the request key names its
// members exactly once, here, in order:
//
//   template <class V, Is<Foo> T> void fields(V& v, T& x) {
//     v("json_name", x.member);
//     ...
//   }
//
// Three visitors walk the same lists. JsonOut (below) writes util::json,
// JsonIn (below) reads it back, and the request key's Encoder
// (src/cache/request_key.cpp) streams the members as 64-bit words and
// ignores the names. A visitor treats a member by its C++ type — ints,
// int64s, doubles, bools, strings, enums, shapes, lists, optionals and
// nested listed structs — so a member cannot travel two ways, and a field
// added to a list reaches the writer, the reader and the key together.
//
// Besides v(name, member), a list may say:
//   v.optional(name, member) — the JSON leaves the member out while it is
//       unset (an empty std::optional, an identity overlay) and the reader
//       then keeps the default; the key always encodes it;
//   v.object(name, f)        — the JSON nests the members f() visits under
//       one key;
//   v.derived(name, get)     — the JSON carries get(), computed from other
//       members; the reader rejects input whose stored value disagrees.
// Only the Plan list, which never joins a key, uses the last two.
//
// Enums that travel by name in the JSON declare their *_name function in
// Enum<E>; the reader's name table is built from it over the whole enum
// range. The other enums, and every enum in the key, travel as integers.
//
// Left to the call sites, because a field list cannot say them: the
// version envelopes, how a model graph is built, the key's opening words
// and the request fields it leaves out, and the error's spliced partial
// plan.
#pragma once

#include <array>
#include <cerrno>
#include <cinttypes>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/api/errors.h"
#include "src/api/session.h"
#include "src/util/json.h"

namespace karma::api::io {

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

// ---------------------------------------------------------------------------
// Enums: the value count, plus the name function of those that travel by
// name.
// ---------------------------------------------------------------------------

template <class E>
struct Enum;

/// kCount values from 0; `name` is the *_name function of an enum that
/// travels by name, nullptr for one that travels as an integer.
template <int N, auto Name = nullptr>
struct EnumInfo {
  static constexpr int kCount = N;
  static constexpr auto name = Name;
};

template <>
struct Enum<graph::LayerKind>
    : EnumInfo<static_cast<int>(graph::LayerKind::kGeLU) + 1,
               graph::layer_kind_name> {};
template <>
struct Enum<sim::OpKind>
    : EnumInfo<static_cast<int>(sim::OpKind::kDeviceUpdate) + 1,
               sim::op_kind_name> {};
template <>
struct Enum<tier::Tier> : EnumInfo<tier::kNumTiers, tier::tier_name> {};
template <>
struct Enum<tier::Residency>
    : EnumInfo<tier::kNumResidencyClasses, tier::residency_name> {};
template <>
struct Enum<core::BlockPolicy>
    : EnumInfo<static_cast<int>(core::BlockPolicy::kSwapNvme) + 1,
               core::block_policy_name> {};
template <>
struct Enum<PlanErrorCode>
    : EnumInfo<static_cast<int>(PlanErrorCode::kUnavailable) + 1,
               plan_error_code_name> {};
template <>
struct Enum<place::PlacementStrategy>
    : EnumInfo<static_cast<int>(place::PlacementStrategy::kRoundRobin) + 1,
               place::placement_strategy_name> {};
template <>
struct Enum<OptimizerSpec::Kind>
    : EnumInfo<static_cast<int>(OptimizerSpec::Kind::kAdam) + 1> {};
template <>
struct Enum<core::ExchangeMode>
    : EnumInfo<static_cast<int>(core::ExchangeMode::kMerged) + 1> {};
template <>
struct Enum<core::UpdateSite>
    : EnumInfo<static_cast<int>(core::UpdateSite::kDevice) + 1> {};

template <class E>
concept NamedEnum =
    !std::is_null_pointer_v<std::remove_const_t<decltype(Enum<E>::name)>>;

/// The enum value named `s`; throws std::runtime_error for unknown names.
template <NamedEnum E>
E enum_from_name(std::string_view s, const char* what) {
  static const std::array<std::string_view, Enum<E>::kCount> kNames = [] {
    std::array<std::string_view, Enum<E>::kCount> names;
    for (int i = 0; i < Enum<E>::kCount; ++i)
      names[static_cast<std::size_t>(i)] = Enum<E>::name(static_cast<E>(i));
    return names;
  }();
  for (int i = 0; i < Enum<E>::kCount; ++i)
    if (kNames[static_cast<std::size_t>(i)] == s) return static_cast<E>(i);
  throw std::runtime_error("unknown " + std::string(what) + " '" +
                           std::string(s) + "'");
}

// ---------------------------------------------------------------------------
// The field lists.
// ---------------------------------------------------------------------------

template <class V, Is<graph::Layer> T>
void fields(V& v, T& x) {
  // A layer's id is its position in the model, so it is not listed.
  v("name", x.name);
  v("kind", x.kind);
  v("in", x.in_shape);
  v("out", x.out_shape);
  v("kernel", x.kernel);
  v("stride", x.stride);
  v("in_channels", x.in_channels);
  v("out_channels", x.out_channels);
  v("heads", x.heads);
  v("head_dim", x.head_dim);
  v("vocab", x.vocab);
  v("weight_elems", x.weight_elems);
}

template <class V, Is<sim::NvmeContention> T>
void fields(V& v, T& x) {
  v("queue_depth", x.queue_depth);
  v("mixed_read_penalty", x.mixed_read_penalty);
  v("mixed_write_penalty", x.mixed_write_penalty);
}

template <class V, Is<sim::CostScale> T>
void fields(V& v, T& x) {
  v("compute", x.compute);
  v("h2d", x.h2d);
  v("d2h", x.d2h);
  v("nvme_read", x.nvme_read);
  v("nvme_write", x.nvme_write);
  v("cpu_update", x.cpu_update);
}

template <class V, Is<sim::DeviceSpec> T>
void fields(V& v, T& x) {
  v("name", x.name);
  v("memory_capacity", x.memory_capacity);
  v("peak_flops", x.peak_flops);
  v("device_mem_bw", x.device_mem_bw);
  v("h2d_bw", x.h2d_bw);
  v("d2h_bw", x.d2h_bw);
  v("swap_latency", x.swap_latency);
  v("cpu_flops", x.cpu_flops);
  v("host_mem_bw", x.host_mem_bw);
  v("host_capacity", x.host_capacity);
  v("nvme_capacity", x.nvme_capacity);
  v("nvme_read_bw", x.nvme_read_bw);
  v("nvme_write_bw", x.nvme_write_bw);
  v("nvme_latency", x.nvme_latency);
  // The NVMe contention model (DESIGN.md §16) and the calibration overlay
  // (§13) are identity by default; the JSON leaves an identity overlay
  // out, so uncontended, uncalibrated artifacts keep their bytes. The key
  // always encodes both, so a contended device, or the scaled device a
  // probe request from a calibrated flight embeds, never collides with
  // its identity twin.
  v.optional("nvme_contention", x.nvme_contention);
  v.optional("scale", x.scale);
}

template <class V, Is<core::PlannerOptions> T>
void fields(V& v, T& x) {
  v("recompute", x.enable_recompute);
  v("min_blocks", x.min_blocks);
  v("max_blocks", x.max_blocks);
  v("anneal", x.anneal_iterations);
  // Plan-affecting: the portfolio reduction is deterministic for a fixed
  // worker count, but different counts explore different rng streams.
  v("anneal_workers", x.anneal_workers);
  v("seed", x.seed);
  v("prefetch", x.schedule.prefetch_window);
  v("reserved_host", x.schedule.reserved_host_bytes);
}

template <class V, Is<OptimizerSpec> T>
void fields(V& v, T& x) {
  v("kind", x.kind);
  v("host_resident", x.host_resident);
  v("state_per_param", x.state_bytes_per_param_byte);
}

/// Spliced flat into the lists that carry a network (no nested object).
template <class V, Is<net::NetSpec> T>
void fields(V& v, T& x) {
  v("gpus_per_node", x.gpus_per_node);
  v("intra_bw", x.intra_bw);
  v("intra_latency", x.intra_latency);
  v("inter_bw", x.inter_bw);
  v("inter_latency", x.inter_latency);
}

template <class V, Is<core::DistributedOptions> T>
void fields(V& v, T& x) {
  v("num_gpus", x.num_gpus);
  fields(v, x.net);
  v("exchange", x.exchange);
  v("update", x.update);
  v("iterations", x.iterations);
  v("shard_fraction", x.weight_shard_fraction);
  // x.planner is left out on purpose: PlanRequest::planner supersedes it
  // everywhere, so neither the JSON nor the key carries it.
}

template <class V, Is<place::FleetNode> T>
void fields(V& v, T& x) {
  v("name", x.name);
  v("device", x.device);
}

template <class V, Is<place::FleetSpec> T>
void fields(V& v, T& x) {
  v("nodes", x.nodes);
  fields(v, x.net);
  v("strategy", x.strategy);
}

template <class V, Is<PlanRequest::SearchLimits> T>
void fields(V& v, T& x) {
  v("deadline", x.deadline);
  v("max_candidates", x.max_candidates);
}

template <class V, Is<tier::TierSpec> T>
void fields(V& v, T& x) {
  v("tier", x.tier);
  v("capacity", x.capacity);
  v("read_bw", x.read_bw);
  v("write_bw", x.write_bw);
  v("latency", x.latency);
}

template <class V, Is<sim::BlockCost> T>
void fields(V& v, T& x) {
  v("fwd_time", x.fwd_time);
  v("bwd_time", x.bwd_time);
  v("act_bytes", x.act_bytes);
  v("boundary_bytes", x.boundary_bytes);
  v("param_bytes", x.param_bytes);
  v("grad_bytes", x.grad_bytes);
}

template <class V, Is<sim::Op> T>
void fields(V& v, T& x) {
  v("kind", x.kind);
  v("block", x.block);
  v("tier", x.tier);
  v("residency", x.residency);
  v("bytes", x.bytes);
  v("alloc", x.alloc);
  v("free", x.free);
  v("duration", x.duration);
  v("retains", x.retains);
  v("iteration", x.iteration);
  v("after_op", x.after_op);
}

template <class V, Is<sim::Plan> T>
void fields(V& v, T& x) {
  v("strategy", x.strategy);
  v("capacity", x.capacity);
  v("baseline_resident", x.baseline_resident);
  v("host_baseline_resident", x.host_baseline_resident);
  v("blocks", x.blocks);
  v("costs", x.costs);
  v("hierarchy", x.hierarchy);
  v("ops", x.ops);
  v("stage_of", x.stage_of);
}

template <class V, Is<net::ExchangePhase> T>
void fields(V& v, T& x) {
  v("launch_after_block", x.launch_after_block);
  v("blocks", x.blocks);
  v("bytes", x.bytes);
  v("allreduce_time", x.allreduce_time);
}

template <class V, Is<place::NodeSummary> T>
void fields(V& v, T& x) {
  v("name", x.name);
  v("device_name", x.device_name);
  v("owned_blocks", x.owned_blocks);
  v("owned_param_bytes", x.owned_param_bytes);
  v("owned_grad_bytes", x.owned_grad_bytes);
  v("reserved_host_bytes", x.reserved_host_bytes);
  v("plan_iteration_time", x.plan_iteration_time);
  v("exchange_tail", x.exchange_tail);
  v("update_time", x.update_time);
  v("total_time", x.total_time);
  v("warm_started", x.warm_started);
}

template <class V, Is<place::PlacementPlan> T>
void fields(V& v, T& x) {
  v("strategy", x.strategy);
  v("blocks", x.blocks);
  v("owner", x.owner);
  v("nodes", x.nodes);
  v("straggler", x.straggler);
  v("iteration_time", x.iteration_time);
}

/// Plan members; the optional trailing fleet placement (with its own
/// version envelope) stays with plan_to_json.
template <class V, Is<Plan> T>
void fields(V& v, T& x) {
  v.object("model", [&] {
    v("name", x.model_name);
    v("batch", x.batch);
    v("layers", x.model_layers);
  });
  v("device", x.device);
  v("schedule", x.schedule);
  v("policies", x.policies);
  // Only the scalar metrics of the planning run's trace travel.
  v.object("metrics", [&] {
    v("iteration_time", x.iteration_time);
    v("first_iteration_time", x.first_iteration_time);
    v("occupancy", x.occupancy);
    v("makespan", x.trace.makespan);
    v("peak_resident", x.trace.peak_resident);
    v("peak_host_resident", x.trace.peak_host_resident);
    v("peak_nvme_resident", x.trace.peak_nvme_resident);
  });
  v("reserved_host_bytes", x.reserved_host_bytes);
  v.derived("distributed", [&x] { return x.distributed(); });
  v("weights_resident", x.weights_resident);
  v("exchange", x.exchange);
}

template <class V, Is<TierDeficit> T>
void fields(V& v, T& x) {
  v("tier", x.tier);
  v("required", x.required);
  v("capacity", x.capacity);
}

/// PlanError members; the attached partial plan is spliced in verbatim by
/// error_to_json.
template <class V, Is<PlanError> T>
void fields(V& v, T& x) {
  v("code", x.code);
  v("message", x.message);
  v("model", x.model);
  v("device", x.device);
  v("violating_layer", x.violating_layer);
  v("violating_block", x.violating_block);
  v("deficits", x.deficits);
  v("nearest_feasible_batch", x.nearest_feasible_batch);
  v("probe_candidates", x.probe_candidates);
  v("probe_cache_hits", x.probe_cache_hits);
  v("from_negative_cache", x.from_negative_cache);
  v("retry_after", x.retry_after);
}

// ---------------------------------------------------------------------------
// Member types the visitors treat specially.
// ---------------------------------------------------------------------------

template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};

template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

/// True while v.optional() leaves `x` out of the JSON.
template <class T>
bool unset(const T& x) {
  if constexpr (IsOptional<T>::value)
    return !x.has_value();
  else
    return x.identity();
}

// ---------------------------------------------------------------------------
// JSON visitors.
// ---------------------------------------------------------------------------

/// Writes each visited member as `"name":value` into the writer's open
/// object. Deterministic: key order is the field list's order.
class JsonOut {
 public:
  explicit JsonOut(util::json::Writer& w) : w_(w) {}

  /// Writes x's listed members into the object the caller has open.
  template <class T>
  void members(const T& x) {
    fields(*this, x);
  }

  template <class T>
  void operator()(const char* name, const T& x) {
    w_.key(name);
    value(x);
  }
  template <class T>
  void optional(const char* name, const T& x) {
    if (!unset(x)) (*this)(name, x);
  }
  template <class F>
  void object(const char* name, F&& visit) {
    w_.key(name);
    w_.begin_object();
    visit();
    w_.end_object();
  }
  template <class F>
  void derived(const char* name, F&& get) {
    (*this)(name, get());
  }

 private:
  template <class T>
  void value(const T& x) {
    if constexpr (std::is_enum_v<T>) {
      if constexpr (NamedEnum<T>)
        w_.value(Enum<T>::name(x));
      else
        w_.value(static_cast<int>(x));
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      // Past the writer's int64 range: travels as decimal text.
      char digits[32];
      std::snprintf(digits, sizeof digits, "%" PRIu64, x);
      w_.value(digits);
    } else if constexpr (std::is_arithmetic_v<T> ||
                         std::is_same_v<T, std::string>) {
      w_.value(x);
    } else if constexpr (std::is_same_v<T, graph::TensorShape>) {
      value(x.dims());
    } else if constexpr (std::is_same_v<T, sim::Block>) {
      w_.begin_array();
      w_.value(x.first_layer);
      w_.value(x.last_layer);
      w_.end_array();
    } else if constexpr (std::is_same_v<T, tier::StorageHierarchy>) {
      value(x.tiers());
    } else if constexpr (std::is_same_v<T, net::ExchangePlan>) {
      value(x.phases);
    } else if constexpr (IsVector<T>::value) {
      w_.begin_array();
      for (const auto& item : x) value(item);
      w_.end_array();
    } else if constexpr (IsOptional<T>::value) {
      if (x) value(*x);
      else w_.null();
    } else {
      w_.begin_object();
      fields(*this, x);
      w_.end_object();
    }
  }

  util::json::Writer& w_;
};

/// Reads each visited member from the current JSON object. Throws
/// std::runtime_error on a missing member, a wrong type, an int out of
/// int32 range, an unknown enum name or a disagreeing derived member.
class JsonIn {
 public:
  explicit JsonIn(const util::json::Value& object) : at_(&object) {}

  /// Reads x's listed members from the object this reader was made on.
  template <class T>
  void members(T& x) {
    const std::size_t pending = checks_.size();
    fields(*this, x);
    while (checks_.size() > pending) {
      checks_.back()();
      checks_.pop_back();
    }
  }

  template <class T>
  void operator()(const char* name, T& x) {
    read(at_->at(name), x, name);
  }
  template <class T>
  void optional(const char* name, T& x) {
    if (at_->has(name)) (*this)(name, x);
  }
  template <class F>
  void object(const char* name, F&& visit) {
    const util::json::Value* outer = at_;
    at_ = &outer->at(name);
    visit();
    at_ = outer;
  }
  /// The stored value is checked once the whole struct has been read.
  template <class F>
  void derived(const char* name, F get) {
    std::decay_t<decltype(get())> stored{};
    read(at_->at(name), stored, name);
    checks_.push_back([name, stored, get] {
      if (get() != stored)
        throw std::runtime_error(std::string(name) +
                                 " disagrees with the members it derives from");
    });
  }

 private:
  template <class T>
  void read(const util::json::Value& v, T& x, const char* what) {
    using util::json::Value;
    if constexpr (std::is_enum_v<T>) {
      if constexpr (NamedEnum<T>) {
        x = enum_from_name<T>(v.as_string(), what);
      } else {
        const int i = util::json::as_int32(v, what);
        if (i < 0 || i >= Enum<T>::kCount)
          throw std::runtime_error(std::string(what) + " out of range");
        x = static_cast<T>(i);
      }
    } else if constexpr (std::is_same_v<T, bool>) {
      x = v.as_bool();
    } else if constexpr (std::is_same_v<T, int>) {
      x = util::json::as_int32(v, what);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      x = v.as_int();
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      // Unsigned decimal digits only. strtoull alone is too lax: it
      // accepts "-1" and wraps it to 2^64-1 without setting ERANGE.
      const std::string& s = v.as_string();
      const auto bad = [&] {
        return std::runtime_error("bad " + std::string(what) + " '" + s + "'");
      };
      if (s.empty() || s.front() < '0' || s.front() > '9') throw bad();
      char* end = nullptr;
      errno = 0;
      x = std::strtoull(s.c_str(), &end, 10);
      if (end != s.c_str() + s.size() || errno == ERANGE) throw bad();
    } else if constexpr (std::is_same_v<T, double>) {
      x = v.as_double();
    } else if constexpr (std::is_same_v<T, std::string>) {
      x = v.as_string();
    } else if constexpr (std::is_same_v<T, graph::TensorShape>) {
      std::vector<std::int64_t> dims;
      read(v, dims, what);
      x = dims.empty() ? graph::TensorShape()
                       : graph::TensorShape(std::move(dims));
    } else if constexpr (std::is_same_v<T, sim::Block>) {
      if (v.type != Value::Type::kArray || v.array.size() != 2)
        throw std::runtime_error(std::string("bad ") + what + " range");
      x.first_layer = util::json::as_int32(v.array[0], what);
      x.last_layer = util::json::as_int32(v.array[1], what);
    } else if constexpr (std::is_same_v<T, tier::StorageHierarchy>) {
      std::vector<tier::TierSpec> tiers;
      read(v, tiers, what);
      x = tier::StorageHierarchy(std::move(tiers));
    } else if constexpr (std::is_same_v<T, net::ExchangePlan>) {
      read(v, x.phases, what);
    } else if constexpr (IsVector<T>::value) {
      if (v.type != Value::Type::kArray)
        throw std::runtime_error(std::string(what) + ": expected array");
      x.clear();
      x.reserve(v.array.size());
      for (const Value& item : v.array) read(item, x.emplace_back(), what);
    } else if constexpr (IsOptional<T>::value) {
      if (v.is_null()) {
        x.reset();
      } else {
        x.emplace();
        read(v, *x, what);
      }
    } else {
      const Value* outer = at_;
      at_ = &v;
      members(x);
      at_ = outer;
    }
  }

  const util::json::Value* at_;
  std::vector<std::function<void()>> checks_;
};

}  // namespace karma::api::io
