// plannerbench — the KARMA planner-service benchmark.
//
//   plannerbench --workload <warm_hit|cold_search|replan_mixed>
//                --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the per-layer run: the same workload on the same generated inputs, an
// untraced quarter of the time, a half with spans around the calls into
// each layer (README.md has the span tree), then an untraced quarter; the
// per-layer metrics come from the spans, the service counters and the search
// statistics, and the spans are written as one Chrome trace to
// .bench_run/traces/. Run files go under .bench_run/ in the working
// directory (relative, so the daemon's unix socket path stays short). The
// last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "plannerbench/src/inputs.h"
#include "plannerbench/src/reference.h"
#include "plannerbench/src/service.h"
#include "plannerbench/src/trace.h"
#include "src/cache/request_key.h"

namespace plannerbench {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Geomean over keys of each key's geomean: every template weighs alike,
/// however often the run planned it.
double keyed_geomean(const std::map<std::string, std::vector<double>>& m) {
  std::vector<double> per_key;
  for (const auto& [key, values] : m) per_key.push_back(geomean(values));
  return geomean(per_key);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Args {
  Workload workload = Workload::kWarmHit;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

constexpr const char* kRunDir = ".bench_run";

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!parse_workload(value, &args->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0.0 && argc % 2 == 1;
}

/// Set-up as a user pays it: generate the requests (the model zoo builds
/// every graph), start the daemon, connect the clients, create the
/// cold-search engine. Timed after a reference pass into `setup_s`.
std::unique_ptr<Service> set_up(const Args& args, const Recipe& recipe,
                                const std::string& dir, Inputs* inputs,
                                Series* setup_s) {
  const std::string rep_dir =
      dir + "/setup" + std::to_string(setup_s->raw.size());
  std::filesystem::remove_all(rep_dir);
  const double ref = host_reference_us();
  const double t0 = now_s();
  *inputs = generate(args.workload, args.seed);
  auto service = std::make_unique<Service>(recipe, rep_dir);
  setup_s->add(now_s() - t0, ref);
  return service;
}

/// Set-ups before the run; the last one's service runs the workload. The
/// untraced run sets up once more between epochs, so that setup_s, the
/// median of all, spans the run's drift like every other metric.
constexpr int kSetupReps = 5;

/// `s` at the reference host speed (reference.h).
std::vector<double> at_reference(const Series& s) {
  std::vector<double> out(s.raw.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = s.raw[i] * kReferenceUs / s.ref_us[i];
  return out;
}

std::vector<double> as_measured(const Series& s) { return s.raw; }

/// Geomean over request templates of each template's p-th percentile. For
/// the search latencies, whose samples mix templates that differ 10x: a
/// pooled percentile would sit on the edge between two templates and jump
/// with the mix.
double template_percentile(const std::vector<double>& values,
                           const Series& s, double p) {
  std::map<std::size_t, std::vector<double>> by_template;
  for (std::size_t i = 0; i < values.size(); ++i)
    by_template[s.template_id[i]].push_back(values[i]);
  std::vector<double> per_template;
  for (const auto& [id, v] : by_template)
    per_template.push_back(percentile(v, p));
  return geomean(per_template);
}

/// The end-to-end metrics; `view` maps each latency series to the values
/// reported (at_reference) or shown beside them (as_measured).
std::vector<Metric> end_to_end(
    const Samples& s, const Series& setup_s,
    std::vector<double> (*view)(const Series&)) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"setup_s", median(view(setup_s)), "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      {"hit_p50_us", percentile(view(s.hit_us), 50), "us"},
      {"hit_p90_us", percentile(view(s.hit_us), 90), "us"},
      {"socket_hit_p50_us", percentile(view(s.socket_hit_us), 50), "us"},
      {"socket_hit_p90_us", percentile(view(s.socket_hit_us), 90), "us"},
      {"cold_plan_p50_ms", template_percentile(view(s.cold_ms), s.cold_ms, 50),
       "ms"},
      {"cold_plan_p90_ms", template_percentile(view(s.cold_ms), s.cold_ms, 90),
       "ms"},
      {"plan_samples_per_s", keyed_geomean(s.samples_per_s), "samples/s"},
      {"busy_hit_p90_us", percentile(view(s.busy_hit_us), 90), "us"},
      {"miss_p50_ms", template_percentile(view(s.miss_ms), s.miss_ms, 50),
       "ms"},
      {"repair_p50_ms",
       template_percentile(view(s.repair_ms), s.repair_ms, 50), "ms"},
      {"fleet_plan_p50_ms",
       template_percentile(view(s.fleet_ms), s.fleet_ms, 50), "ms"},
  };
}

/// The end-to-end samples a workload mostly measures, at reference speed
/// (the traced and untraced segments run minutes apart): the basis of
/// trace.overhead_share.
std::vector<double> primary(const Samples& s, Workload w) {
  switch (w) {
    case Workload::kWarmHit: return at_reference(s.hit_us);
    case Workload::kColdSearch: return at_reference(s.cold_ms);
    case Workload::kReplanMixed: return at_reference(s.busy_hit_us);
  }
  return at_reference(s.hit_us);
}

std::vector<Metric> per_layer(const Inputs& in, const Samples& plain,
                              const Samples& traced, const Tracer& tracer) {
  const auto self_med = [&](const char* name) {
    return median(tracer.self_us(name));
  };
  // The in-process hit layers, over in-process hits only.
  const double key_us = median(tracer.self_us("cache.request_key", "hit.inproc"));
  const double lookup_us = median(tracer.self_us("cache.lookup", "hit.inproc"));
  const auto self_sum = [&](const char* name) {
    const auto v = tracer.self_us(name);
    return std::accumulate(v.begin(), v.end(), 0.0);
  };

  // Search statistics of the seed-determined in-process cold searches.
  double candidates = 0, simulations = 0, memo_hits = 0, bc_lookups = 0,
         bc_hits = 0, resumes = 0;
  for (const karma::core::SearchStats& st : plain.searches) {
    candidates += static_cast<double>(st.candidates);
    simulations += static_cast<double>(st.simulations);
    memo_hits += static_cast<double>(st.memo_hits);
    bc_lookups += static_cast<double>(st.block_cost_lookups);
    bc_hits += static_cast<double>(st.block_cost_hits);
    resumes += static_cast<double>(st.incremental_resumes);
  }
  const double search_cpu_ms = std::accumulate(
      plain.search_cpu_ms.begin(), plain.search_cpu_ms.end(), 0.0);
  const double replay_us = self_med("sim.replay");

  // In-process hot-set hit: residual = end-to-end - key - lookup, per
  // request.
  std::vector<double> residual, hit_e2e;
  for (const auto& a : tracer.attribution("hit.inproc")) {
    residual.push_back(a.e2e_us - a.layers_us);
    hit_e2e.push_back(a.e2e_us);
  }
  const auto unattributed = [&](const std::string& path) {
    double e2e = 0.0, layers = 0.0;
    for (const auto& a : tracer.attribution(path)) {
      e2e += a.e2e_us;
      layers += a.layers_us;
    }
    return e2e > 0.0 ? (e2e - layers) / e2e : 0.0;
  };

  double fingerprint_bytes = 0.0;
  for (const Template& t : in.hot)
    fingerprint_bytes += static_cast<double>(
        karma::cache::request_fingerprint(t.request).size());

  std::uint64_t pland_hits = 0;
  for (const auto& tenant : plain.stats.tenants) pland_hits += tenant.hits;
  // What the named layers explain of the median hit, each layer taken on
  // its own (not through the per-request residual, which adds up to the
  // whole by construction).
  const double hit_coverage =
      median(hit_e2e) > 0 ? (key_us + lookup_us) / median(hit_e2e) : 0.0;
  if (in.workload == Workload::kWarmHit && std::abs(hit_coverage - 1.0) > 0.1)
    std::fprintf(stderr,
                 "plannerbench: key + lookup explain %.3f of the median "
                 "in-process hit, outside 0.9-1.1\n",
                 hit_coverage);
  const double from_json_us = self_sum("api.request_from_json");
  const double plain_primary = median(primary(plain, in.workload));

  return {
      {"cache.request_key_us", key_us, "us"},
      {"cache.fingerprint_kb",
       fingerprint_bytes / 1024.0 / static_cast<double>(in.hot.size()), "KB"},
      {"cache.lookup_us", lookup_us, "us"},
      {"api.hit_residual_us", median(residual), "us"},
      {"api.request_to_json_us", self_med("api.request_to_json"), "us"},
      {"api.request_from_json_us", self_med("api.request_from_json"), "us"},
      {"api.request_parse_mb_per_s",
       from_json_us > 0 ? static_cast<double>(traced.parsed_request_bytes) /
                              from_json_us
                        : 0.0,
       "MB/s"},
      {"api.plan_to_json_us", self_med("api.plan_to_json"), "us"},
      {"api.plan_from_json_us", self_med("api.plan_from_json"), "us"},
      {"api.response_parse_us", self_med("api.response_parse"), "us"},
      {"cache.insert_us", self_med("cache.insert"), "us"},
      {"cache.memory_hits", static_cast<double>(plain.stats.cache.memory_hits),
       "count"},
      {"cache.disk_hits", static_cast<double>(plain.stats.cache.disk_hits),
       "count"},
      {"cache.misses", static_cast<double>(plain.stats.cache.misses), "count"},
      {"cache.evictions", static_cast<double>(plain.stats.cache.evictions),
       "count"},
      {"cache.disk_writes", static_cast<double>(plain.stats.cache.disk_writes),
       "count"},
      {"pland.ping_rtt_us", self_med("pland.ping"), "us"},
      {"pland.frame_rw_us", self_med("pland.frame_rw"), "us"},
      {"util.json.scan_member_us", self_med("util.json.scan_member"), "us"},
      {"util.digest128_us", self_med("util.digest128"), "us"},
      {"pland.queue_wait_ms", plain.queue_wait_ms, "ms"},
      {"pland.hits", static_cast<double>(pland_hits), "count"},
      {"pland.shed", static_cast<double>(plain.stats.shed), "count"},
      {"core.search_cpu_ms", median(plain.search_cpu_ms), "ms"},
      {"core.search_wall_ms", self_med("core.search") / 1e3, "ms"},
      {"core.candidates", candidates, "count"},
      {"core.simulations", simulations, "count"},
      {"solver.memo_hit_ratio", candidates > 0 ? memo_hits / candidates : 0.0,
       "ratio"},
      {"core.block_cost_hit_ratio", bc_lookups > 0 ? bc_hits / bc_lookups : 0.0,
       "ratio"},
      {"core.us_per_candidate",
       candidates > 0 ? 1e3 * search_cpu_ms / candidates : 0.0, "us"},
      {"core.evaluate_us", self_med("core.evaluate"), "us"},
      {"core.build_plan_us", self_med("core.build_plan"), "us"},
      {"sim.replay_us", replay_us, "us"},
      {"sim.plan_ops", median(plain.plan_ops), "count"},
      {"core.replay_share",
       search_cpu_ms > 0 ? simulations * replay_us / (1e3 * search_cpu_ms)
                         : 0.0,
       "ratio"},
      {"core.incremental_resumes", resumes, "count"},
      {"core.distributed_plan_ms", self_med("core.distributed_plan") / 1e3,
       "ms"},
      {"calib.repair_ms", self_med("calib.repair") / 1e3, "ms"},
      {"place.place_blocks_ms", self_med("place.place_blocks") / 1e3, "ms"},
      {"place.plan_fleet_ms", self_med("place.plan_fleet") / 1e3, "ms"},
      {"api.engine.searches", static_cast<double>(plain.stats.engine.searches),
       "count"},
      {"api.engine.flights_joined",
       static_cast<double>(plain.stats.engine.flights_joined), "count"},
      {"trace.unattributed_share", unattributed(""), "ratio"},
      {"trace.socket_hit_unattributed_share", unattributed("hit.socket"),
       "ratio"},
      {"trace.hit_layer_coverage", hit_coverage, "ratio"},
      {"trace.overhead_share",
       plain_primary > 0
           ? median(primary(traced, in.workload)) / plain_primary - 1.0
           : 0.0,
       "ratio"},
      {"trace.spans", static_cast<double>(tracer.size()), "count"},
  };
}

void print_result(std::FILE* out_file, const Samples& s,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += s.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(s.attempted);
  out += ", \"failed\": " + std::to_string(s.failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::fprintf(out_file, "%s\n", out.c_str());
}

void report(const Samples& s) {
  std::fprintf(stderr,
               "plannerbench: samples hit=%zu socket=%zu busy=%zu cold=%zu "
               "miss=%zu repair=%zu fleet=%zu quality_keys=%zu; searches=%llu "
               "expected=%llu attempted=%llu failed=%llu\n",
               s.hit_us.raw.size(), s.socket_hit_us.raw.size(),
               s.busy_hit_us.raw.size(), s.cold_ms.raw.size(),
               s.miss_ms.raw.size(), s.repair_ms.raw.size(),
               s.fleet_ms.raw.size(), s.samples_per_s.size(),
               static_cast<unsigned long long>(s.stats.engine.searches),
               static_cast<unsigned long long>(s.expected_searches),
               static_cast<unsigned long long>(s.attempted),
               static_cast<unsigned long long>(s.failed));
}

int run(const Args& args) {
  const Recipe recipe = recipe_for(args.workload);
  const std::string dir = std::string(kRunDir) + "/" +
                          workload_name(args.workload) + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  Inputs inputs;
  Series setup_s;
  std::unique_ptr<Service> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    service = set_up(args, recipe, dir, &inputs, &setup_s);
  }
  if (!args.trace) {
    const auto set_up_again = [&] {
      Inputs discarded;
      set_up(args, recipe, dir, &discarded, &setup_s);
    };
    Samples s = run_workload(inputs, recipe, args.seconds, *service, dir,
                             nullptr, set_up_again);
    service.reset();
    report(s);
    std::filesystem::remove_all(dir);
    std::fprintf(stderr, "plannerbench: as measured (not at reference speed): ");
    print_result(stderr, s, end_to_end(s, setup_s, as_measured));
    print_result(stdout, s, end_to_end(s, setup_s, at_reference));
    return 0;
  }

  // Per-layer run: untraced quarter, traced half, untraced quarter, each on
  // a fresh service, so drift over the process's life (allocator warm-up)
  // cancels out of trace.overhead_share.
  const double quarter = args.seconds / 4.0;
  Samples plain = run_workload(inputs, recipe, quarter, *service, dir, nullptr);
  const auto fresh_run = [&](const std::string& sub, double seconds,
                             Tracer* tracer) {
    service = std::make_unique<Service>(recipe, dir + "/" + sub);
    Samples s = run_workload(inputs, recipe, seconds, *service,
                             dir + "/" + sub, tracer);
    service.reset();
    return s;
  };
  Tracer tracer;
  Samples traced = fresh_run("traced", 2.0 * quarter, &tracer);
  plain.merge(fresh_run("after", quarter, nullptr));
  report(plain);
  report(traced);

  const std::string trace_dir = std::string(kRunDir) + "/traces";
  std::filesystem::create_directories(trace_dir);
  const std::string trace_path = trace_dir + "/" +
                                 workload_name(args.workload) + "-seed" +
                                 std::to_string(args.seed) + ".trace.json";
  std::ofstream(trace_path) << tracer.chrome_json();
  std::fprintf(stderr, "plannerbench: wrote %s (%zu spans)\n",
               trace_path.c_str(), tracer.size());

  const std::vector<Metric> metrics = per_layer(inputs, plain, traced, tracer);
  std::filesystem::remove_all(dir);
  plain.attempted += traced.attempted;
  plain.failed += traced.failed;
  print_result(stdout, plain, metrics);
  return 0;
}

}  // namespace
}  // namespace plannerbench

int main(int argc, char** argv) {
  // The daemon's cache and calibration must be exactly what the workload
  // configures, whatever the environment says.
  ::unsetenv("KARMA_CACHE_DIR");
  ::unsetenv("KARMA_CALIB_DIR");
  plannerbench::Args args;
  if (!plannerbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: plannerbench --workload "
                 "<warm_hit|cold_search|replan_mixed> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  int code = 1;
  try {
    code = plannerbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plannerbench: %s\n", e.what());
  }
  // Idle daemons are still running (see Service::~Service): leave without
  // static destructors racing their threads.
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(code);
}
