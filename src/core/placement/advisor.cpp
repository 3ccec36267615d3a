#include "core/placement/advisor.hpp"

#include <sstream>

namespace mutsvc::core::placement {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kExhaustive: return "exhaustive";
    case Algorithm::kBranchAndBound: return "branch-and-bound";
    case Algorithm::kGreedy: return "greedy";
  }
  return "?";
}

std::string Advice::describe(const InteractionGraph& graph) const {
  std::ostringstream os;
  os << "placement advice (" << algorithm << "):\n";
  os << "  expected WAN delay: " << centralized_cost << " -> " << optimized_cost
     << " ms/s (x" << improvement_factor() << " better)\n";
  os << "  replicate to edges:";
  for (const auto& c : replicate_components) os << " " << c;
  os << "\n  read-only entity replicas:";
  for (const auto& e : read_only_entities) os << " " << e;
  os << "\n  edge-cached query classes:";
  for (const auto& q : cached_query_classes) os << " " << q;
  os << "\n";
  (void)graph;
  return os.str();
}

Advice advise(const PlacementProblem& problem, Algorithm algorithm) {
  SolveResult solved;
  switch (algorithm) {
    case Algorithm::kExhaustive: solved = solve_exhaustive(problem); break;
    case Algorithm::kBranchAndBound: solved = solve_branch_and_bound(problem); break;
    case Algorithm::kGreedy: solved = solve_greedy(problem); break;
  }

  const CostModel model{problem};
  Advice advice;
  advice.assignment = solved.assignment;
  advice.optimized_cost = solved.cost;
  advice.centralized_cost = model.centralized_cost();
  advice.algorithm = solved.algorithm;

  for (std::size_t i = 0; i < problem.graph.vertex_count(); ++i) {
    if (i >= solved.assignment.size() || !solved.assignment[i]) continue;
    const Vertex& v = problem.graph.vertex(i);
    switch (v.kind) {
      case VertexKind::kWebComponent:
      case VertexKind::kSessionState:
      case VertexKind::kStatelessService:
        advice.replicate_components.push_back(v.name);
        break;
      case VertexKind::kSharedEntity:
        advice.read_only_entities.push_back(v.name);
        break;
      case VertexKind::kQueryResults:
        advice.cached_query_classes.push_back(v.name);
        break;
      default:
        break;
    }
  }
  return advice;
}

comp::DeploymentPlan to_deployment_plan(const Advice& advice, const comp::Application& app,
                                        const apps::AppMetadata& meta, const TestbedNodes& nodes,
                                        bool async_updates) {
  comp::DeploymentPlan plan;
  plan.set_main_server(nodes.main_server);
  for (net::NodeId edge : nodes.edge_servers) plan.add_edge_server(edge);
  for (const auto& name : app.component_names()) plan.place(name, nodes.main_server);
  plan.set_query_refresh(meta.query_refresh);

  plan.set_entry_point(nodes.local_clients, nodes.main_server);

  const bool any_replication = !advice.replicate_components.empty();
  for (std::size_t i = 0; i < nodes.remote_clients.size(); ++i) {
    plan.set_entry_point(nodes.remote_clients[i],
                         any_replication ? nodes.edge_servers[i % nodes.edge_servers.size()]
                                         : nodes.main_server);
  }

  if (any_replication) {
    plan.enable(comp::Feature::kRemoteFacade);
    plan.enable(comp::Feature::kStubCaching);
    for (net::NodeId edge : nodes.edge_servers) {
      for (const auto& c : advice.replicate_components) {
        if (app.has_component(c)) plan.place(c, edge);
      }
    }
  }
  if (!advice.read_only_entities.empty()) {
    plan.enable(comp::Feature::kStatefulComponentCaching);
    for (net::NodeId edge : nodes.edge_servers) {
      for (const auto& e : advice.read_only_entities) plan.replicate_read_only(e, edge);
    }
  }
  if (!advice.cached_query_classes.empty()) {
    plan.enable(comp::Feature::kQueryCaching);
    for (net::NodeId edge : nodes.edge_servers) plan.add_query_cache(edge);
  }
  if (async_updates &&
      (!advice.read_only_entities.empty() || !advice.cached_query_classes.empty())) {
    plan.enable(comp::Feature::kAsyncUpdates);
  }
  return plan;
}

}  // namespace mutsvc::core::placement
