#include "src/cache/request_key.h"

#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/api/fields.h"
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

/// Canonical word encoder over a sink (util::Hasher128 or TextSink): the
/// key's visitor of the api::io field lists. It ignores member names and
/// picks each member's encoding by its C++ type, so one member cannot be
/// encoded two ways; enums go as their integer value, sub-objects the
/// JSON leaves out while identity are always written, and counts go
/// through count() so a size_t never lands on a narrower overload.
template <class Sink>
struct Encoder {
  Sink sink;

  template <class T>
  void operator()(const char*, const T& x) { put(x); }
  template <class T>
  void optional(const char*, const T& x) { put(x); }

  void put(std::uint64_t v) { sink.word(v); }
  void put(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void put(int v) { put(static_cast<std::int64_t>(v)); }
  void put(bool v) { put(std::uint64_t{v ? 1u : 0u}); }
  void put(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void put(std::string_view v) {
    count(v.size());
    util::for_each_le_word(v, [this](std::uint64_t w) { sink.word(w); });
  }
  void put(const std::string& v) { put(std::string_view(v)); }
  void put(const graph::TensorShape& shape) { put(shape.dims()); }
  template <class E>
    requires std::is_enum_v<E>
  void put(E v) { put(static_cast<int>(v)); }
  template <class T>
  void put(const std::vector<T>& items) {
    count(items.size());
    for (const T& item : items) put(item);
  }
  /// A presence word; the value's words follow only when present.
  template <class T>
  void put(const std::optional<T>& x) {
    put(x.has_value());
    if (x) put(*x);
  }
  template <class T>
    requires std::is_class_v<T>
  void put(const T& x) { api::io::fields(*this, x); }
  void count(std::size_t n) { put(static_cast<std::uint64_t>(n)); }
};

template <class Enc>
void write_model(Enc& e, const graph::Model& model) {
  e.put(model.name());
  e.put(model.dtype_bytes());
  e.put(model.activation_memory_scale());
  // A layer's id is its index (Model::add_layer), so position encodes it.
  e.put(model.layers());
  // One successor list per layer, via succs(), kept sorted ascending by
  // Model::add_edge — the order edges were *added* in cannot reach the key.
  for (const auto& layer : model.layers()) e.put(model.succs(layer.id));
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
  e.put(request.device);
  e.put(request.planner);
  e.put(request.optimizer);
  e.put(request.distributed);
  e.put(request.fleet);
  // probe_feasible_batch and limits are left out on purpose (see the
  // header's exclusion list).
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
