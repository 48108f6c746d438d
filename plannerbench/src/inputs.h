// Seeded input generation for the planner-service benchmark.
//
// Everything a run issues — the request templates, every planner seed, the
// hit-replay order, the Zipf draws of the interactive client, the batch
// client's stream of cold and fleet requests, and the calibration table of
// each epoch — is generated here from the workload seed before any timing
// starts. The service under test only ever sees these values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/api/session.h"

namespace plannerbench {

enum class Workload { kWarmHit, kColdSearch, kReplanMixed };

const char* workload_name(Workload w);
bool parse_workload(const std::string& name, Workload* out);

/// How a plan request is planned; decides how its simulated iteration is
/// checked and how many samples one iteration trains.
enum class Kind { kSingle, kDistributed, kFleet };

struct Template {
  std::string label;              ///< e.g. "ResNet-50/b512"
  Kind kind = Kind::kSingle;
  karma::api::PlanRequest request;  ///< planner.seed is overwritten per issue
  /// Samples one training iteration processes: batch x ranks.
  std::int64_t samples_per_iteration = 0;
};

/// One request to issue: a template plus the planner seed that makes its
/// cache key distinct.
struct Issue {
  bool fleet = false;       ///< index into Inputs::fleet instead of ::cold
  std::size_t index = 0;
  std::uint64_t planner_seed = 0;
};

/// The traffic a workload is made of.
enum class Traffic {
  kHits,    ///< in-process hits, then idle socket hits, over the hot set
  kCold,    ///< in-process cold searches on a fresh memory-only engine
  kReplan,  ///< calibrate, repair the hot set, then interactive + batch
};

/// Run shape of a workload. A run is a sequence of epochs of about
/// kEpochSeconds each, so every phase's samples spread over the whole run
/// (the host's speed drifts over seconds; a phase confined to one stretch
/// of the run would measure that stretch). Each epoch runs these phases:
///   cold    in-process cold searches from the cold stream, each followed
///           by one in-process re-request, checked but not timed as a hit;
///   hit     in-process Engine::plan hits over the hot set;
///   socket  idle RemoteSession hits over the hot set;
///   calibrate a fresh seeded table, then the hot set again: each
///           request repairs its superseded plan;
///   busy    the interactive client's Zipf-skewed hits beside the batch
///           client's cold misses and fleet plans.
/// The workload's own traffic (`main`) fills each epoch. The other phases
/// first issue a small fixed number of requests each, so that every
/// workload reports every metric: kOffCold cold searches, kOffHitCycles
/// hot-set cycles of in-process and of socket hits, the calibrate with its
/// hot-set repairs, and a busy phase of kBatchMin batch requests. The
/// counts are chosen, not derived from measured traffic: large enough that
/// each metric repeats across seeds.
struct Recipe {
  Traffic main = Traffic::kHits;
  std::int64_t memory_bytes = 256ll << 20;  ///< daemon memory LRU
  bool disk_store = false;    ///< daemon persists plans under the run dir
};

/// Cold searches per epoch when they are not the workload's traffic.
inline constexpr std::size_t kOffCold = 20;
/// Hot-set cycles of each hit kind per epoch when hits are not the
/// workload's traffic.
inline constexpr std::size_t kOffHitCycles = 3;
/// Batch requests every busy phase issues at least; the first kBatchMin of
/// each epoch belong to the seed-determined set of plan_samples_per_s.
inline constexpr std::size_t kBatchMin = 24;

inline constexpr double kEpochSeconds = 2.5;
/// Upper bound on epochs in one run (inputs are generated for all).
inline constexpr int kMaxEpochs = 32;
int epochs_for(double seconds);

Recipe recipe_for(Workload w);

struct Inputs {
  Workload workload = Workload::kWarmHit;
  /// The prewarmed set served on the hit paths, planner seeds applied.
  /// Every hot request is single-GPU, so each takes the repair path after
  /// a calibrate.
  std::vector<Template> hot;
  std::vector<Template> cold;   ///< cold-search templates
  std::vector<Template> fleet;  ///< heterogeneous-fleet templates
  /// The in-process cold pass: fresh planner seed per issue, so every one
  /// is a distinct key. Long enough for any run length; a run that drains
  /// it stops the phase.
  std::vector<Issue> cold_stream;
  /// The batch client's stream of each epoch: kBatchMin requests that,
  /// epoch after epoch, run through back-to-back permutations of every
  /// cold and fleet template (so a run of ten epochs plans each of them at
  /// least once), then blocks of three cold misses and one fleet plan.
  std::vector<std::vector<Issue>> batch_streams;
  std::vector<std::size_t> hit_order;     ///< permutation cycles over hot
  std::vector<std::size_t> zipf_order;    ///< Zipf draws over hot
  std::vector<std::string> tables;        ///< calibration JSON per epoch
};

Inputs generate(Workload w, std::uint64_t seed);

/// `t.request` with `planner_seed` installed.
karma::api::PlanRequest materialize(const Template& t,
                                    std::uint64_t planner_seed);

}  // namespace plannerbench
