// Shared test assertion: a plan artifact is the search result it was built
// from. Used by the Engine tests of the single-GPU, data-parallel and
// fleet paths.
#pragma once

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/core/planner.h"

/// Expects the core::PlanResult base of `artifact` to equal `direct`, a
/// search result planned without the Engine. The schedule and exchange
/// compare as artifact JSON (neither has a serializer of its own); the
/// trace compares by its makespan and peaks. search_stats holds
/// wall-clock time, so it is not compared.
inline void expect_artifact_of(const karma::api::Plan& artifact,
                               const karma::core::PlanResult& direct) {
  const auto json_of = [](const karma::core::PlanResult& r) {
    karma::api::Plan only;
    only.schedule = r.schedule;
    only.exchange = r.exchange;
    return only.to_json();
  };
  EXPECT_EQ(json_of(artifact), json_of(direct));
  EXPECT_EQ(artifact.policies, direct.policies);
  EXPECT_EQ(artifact.trace.makespan, direct.trace.makespan);
  EXPECT_EQ(artifact.trace.peak_resident, direct.trace.peak_resident);
  EXPECT_EQ(artifact.trace.peak_host_resident,
            direct.trace.peak_host_resident);
  EXPECT_EQ(artifact.trace.peak_nvme_resident,
            direct.trace.peak_nvme_resident);
  EXPECT_EQ(artifact.iteration_time, direct.iteration_time);
  EXPECT_EQ(artifact.first_iteration_time, direct.first_iteration_time);
  EXPECT_EQ(artifact.occupancy, direct.occupancy);
  EXPECT_EQ(artifact.weights_resident, direct.weights_resident);
  EXPECT_EQ(artifact.distributed(), direct.exchange.has_value());
}
