#pragma once

#include <string>
#include <vector>

#include "apps/common/metadata.hpp"
#include "component/deployment.hpp"
#include "core/placement/algorithms.hpp"
#include "core/testbed.hpp"

namespace mutsvc::core::placement {

/// The §5 vision made concrete: an automatically derived "extended
/// deployment descriptor" — which components to replicate to the edges,
/// which entities get read-only replicas, which query classes get edge
/// caches — plus the predicted benefit.
struct Advice {
  Assignment assignment;
  std::vector<std::string> replicate_components;  // web/session/stateless
  std::vector<std::string> read_only_entities;
  std::vector<std::string> cached_query_classes;
  double optimized_cost = 0.0;    // expected WAN-delay ms per second
  double centralized_cost = 0.0;
  std::string algorithm;

  [[nodiscard]] double improvement_factor() const {
    return optimized_cost > 0.0 ? centralized_cost / optimized_cost : 0.0;
  }

  [[nodiscard]] std::string describe(const InteractionGraph& graph) const;
};

enum class Algorithm { kExhaustive, kBranchAndBound, kGreedy };

[[nodiscard]] const char* to_string(Algorithm a);

/// Solves the placement problem and interprets the assignment back into
/// component-level deployment advice.
[[nodiscard]] Advice advise(const PlacementProblem& problem, Algorithm algorithm);

/// Synthesizes a runnable DeploymentPlan from the advice: the centralized
/// baseline plus the advised replication, with the matching design-rule
/// features enabled.
[[nodiscard]] comp::DeploymentPlan to_deployment_plan(const Advice& advice,
                                                      const comp::Application& app,
                                                      const apps::AppMetadata& meta,
                                                      const TestbedNodes& nodes,
                                                      bool async_updates = true);

}  // namespace mutsvc::core::placement
