#include "src/calib/table.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/util/hash.h"
#include "src/util/json.h"

namespace karma::calib {

namespace json = util::json;

double CalibrationTable::factor(const std::string& device_class,
                                CostKind kind) const {
  const std::string key = cost_kind_name(kind);
  const auto lookup = [&](const std::string& cls) -> const double* {
    const auto row = factors.find(cls);
    if (row == factors.end()) return nullptr;
    const auto cell = row->second.find(key);
    return cell == row->second.end() ? nullptr : &cell->second;
  };
  if (const double* f = lookup(device_class)) return *f;
  if (const double* f = lookup(kAnyDeviceClass)) return *f;
  return 1.0;
}

std::string CalibrationTable::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("version");
  w.value(version);
  w.key("factors");
  w.begin_object();
  for (const auto& [cls, row] : factors) {
    w.key(cls.c_str());
    w.begin_object();
    for (const auto& [kind, f] : row) {
      w.key(kind.c_str());
      w.value(f);
    }
    w.end_object();
  }
  w.end_object();
  w.key("sample_count");
  w.value(sample_count);
  w.key("rejected_outliers");
  w.value(rejected_outliers);
  w.end_object();
  return w.take();
}

CalibrationTable CalibrationTable::from_json(std::string_view text) {
  json::Reader r(text);
  json::Members root(r);
  CalibrationTable t;
  t.version = root.at("version").int32("calibration version");
  if (t.version != kCalibrationJsonVersion)
    throw std::runtime_error("CalibrationTable: unsupported version " +
                             std::to_string(t.version));
  // Rows and cells are keyed by any name; a duplicate keeps its first.
  json::Reader& factors = root.at("factors");
  std::string buffer;
  if (factors.peek() != '{')
    throw std::runtime_error("CalibrationTable: factors is not an object");
  if (factors.begin_object()) do {
      std::string cls(factors.key(buffer));
      if (factors.peek() != '{')
        throw std::runtime_error(
            "CalibrationTable: factor row is not an object");
      std::map<std::string, double> cells;
      if (factors.begin_object()) do {
          std::string kind(factors.key(buffer));
          const double factor = factors.number();
          if (!(factor > 0.0) || !std::isfinite(factor))
            throw std::runtime_error(
                "CalibrationTable: factor must be finite and positive");
          cells.emplace(std::move(kind), factor);
        } while (factors.more('}'));
      t.factors.emplace(std::move(cls), std::move(cells));
    } while (factors.more('}'));
  if (json::Reader* n = root.find("sample_count")) t.sample_count = n->int64();
  if (json::Reader* n = root.find("rejected_outliers"))
    t.rejected_outliers = n->int64();
  root.finish();
  r.finish();
  return t;
}

std::string CalibrationTable::content_hash() const {
  return util::digest128(to_json()).hex();
}

namespace {

double median_of(std::vector<double> v) {
  // Callers guarantee non-empty.
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

CalibrationTable fit(const std::vector<ProfileArtifact>& profiles,
                     const FitOptions& options) {
  CalibrationTable table;
  // Pool ratios per (device_class, kind) cell across every profile.
  std::map<std::string, std::map<std::string, std::vector<double>>> cells;
  for (const ProfileArtifact& p : profiles) {
    for (const ProfileSample& s : p.samples) {
      if (!(s.predicted > 0.0) || !(s.measured > 0.0)) continue;
      const double ratio = s.measured / s.predicted;
      if (!std::isfinite(ratio)) continue;
      cells[p.device_class][cost_kind_name(s.kind)].push_back(ratio);
      ++table.sample_count;
    }
  }
  for (auto& [cls, row] : cells) {
    for (auto& [kind, ratios] : row) {
      double med = median_of(ratios);
      if (ratios.size() >= 4) {
        // MAD-band rejection: one throttling event or page-fault storm in
        // a cell must not drag the factor. The band floor (1% of the
        // median) keeps a zero MAD — all samples identical — from
        // rejecting legitimate duplicates of the same ratio.
        std::vector<double> dev;
        dev.reserve(ratios.size());
        for (const double r : ratios) dev.push_back(std::fabs(r - med));
        const double mad = median_of(dev);
        const double band =
            options.outlier_band * std::max(mad, 0.01 * std::fabs(med));
        std::vector<double> kept;
        kept.reserve(ratios.size());
        for (const double r : ratios)
          if (std::fabs(r - med) <= band) kept.push_back(r);
        table.rejected_outliers +=
            static_cast<std::int64_t>(ratios.size() - kept.size());
        if (!kept.empty()) med = median_of(kept);
      }
      table.factors[cls][kind] =
          std::clamp(med, options.min_factor, options.max_factor);
    }
  }
  return table;
}

sim::DeviceSpec apply(const CalibrationTable& table,
                      const sim::DeviceSpec& device) {
  sim::DeviceSpec out = device;
  // Compose: a spec that already carries a scale gets the new factors
  // multiplied on top, so apply(fit(...), apply(old, d)) behaves like the
  // cumulative correction it is.
  out.scale.compute *= table.factor(device.name, CostKind::kCompute);
  out.scale.h2d *= table.factor(device.name, CostKind::kH2d);
  out.scale.d2h *= table.factor(device.name, CostKind::kD2h);
  out.scale.nvme_read *= table.factor(device.name, CostKind::kNvmeRead);
  out.scale.nvme_write *= table.factor(device.name, CostKind::kNvmeWrite);
  out.scale.cpu_update *= table.factor(device.name, CostKind::kCpuUpdate);
  return out;
}

}  // namespace karma::calib
