#include "core/placement/algorithms.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mutsvc::core::placement {

SolveResult solve_exhaustive(const PlacementProblem& problem, std::size_t max_free) {
  const CostModel model{problem};
  const std::vector<std::size_t> free = free_vertices(problem);
  if (free.size() > max_free) {
    throw std::invalid_argument("solve_exhaustive: too many free vertices (" +
                                std::to_string(free.size()) + ")");
  }

  SolveResult best;
  best.algorithm = "exhaustive";
  best.assignment.assign(problem.graph.vertex_count(), false);
  best.cost = model.cost(best.assignment);
  best.evaluations = 1;

  Assignment candidate(problem.graph.vertex_count(), false);
  const std::uint64_t combinations = 1ULL << free.size();
  for (std::uint64_t mask = 1; mask < combinations; ++mask) {
    for (std::size_t b = 0; b < free.size(); ++b) {
      candidate[free[b]] = (mask >> b) & 1ULL;
    }
    const double c = model.cost(candidate);
    ++best.evaluations;
    if (c < best.cost) {
      best.cost = c;
      best.assignment = candidate;
    }
  }
  return best;
}

namespace {

/// Branch-and-bound search state over the free vertices in `order`.
class BranchAndBound {
 public:
  BranchAndBound(const PlacementProblem& p, const CostModel& model,
                 std::vector<std::size_t> order)
      : p_(p), model_(model), order_(std::move(order)) {}

  void run(Assignment& incumbent, double& incumbent_cost, std::uint64_t& evaluations) {
    Assignment partial(p_.graph.vertex_count(), false);
    std::vector<char> decided(p_.graph.vertex_count(), 0);
    for (std::size_t i = 0; i < p_.graph.vertex_count(); ++i) {
      if (!is_replicable(p_.graph.vertex(i).kind)) decided[i] = 1;  // pinned
    }
    evaluations_ = 0;
    dfs(0, partial, decided, incumbent, incumbent_cost);
    evaluations += evaluations_;
  }

 private:
  void dfs(std::size_t depth, Assignment& partial, std::vector<char>& decided,
           Assignment& incumbent, double& incumbent_cost) {
    if (depth == order_.size()) {
      const double c = model_.cost(partial);
      ++evaluations_;
      if (c < incumbent_cost) {
        incumbent_cost = c;
        incumbent = partial;
      }
      return;
    }
    if (lower_bound(partial, decided) >= incumbent_cost) return;  // prune

    const std::size_t v = order_[depth];
    decided[v] = 1;
    // Explore "replicated" first: on read-heavy graphs it reaches good
    // incumbents early, tightening the bound.
    for (bool value : {true, false}) {
      partial[v] = value;
      dfs(depth + 1, partial, decided, incumbent, incumbent_cost);
    }
    partial[v] = false;
    decided[v] = 0;
  }

  /// Admissible bound: each edge contributes the minimum crossing cost
  /// over every completion consistent with the decided variables; update
  /// and overhead costs count only for vertices already decided
  /// replicated. Never exceeds the true cost of any completion.
  [[nodiscard]] double lower_bound(const Assignment& partial,
                                   const std::vector<char>& decided) const {
    ++evaluations_;
    double bound = 0.0;
    for (const Edge& e : p_.graph.edges()) {
      double best = std::numeric_limits<double>::infinity();
      for (bool u_rep : candidate_states(e.from, partial, decided)) {
        for (bool v_rep : candidate_states(e.to, partial, decided)) {
          best = std::min(best, edge_cost(e, u_rep, v_rep));
        }
      }
      bound += best;
    }
    for (std::size_t i = 0; i < p_.graph.vertex_count(); ++i) {
      if (decided[i] == 0 || !partial[i]) continue;
      const Vertex& v = p_.graph.vertex(i);
      if (!is_replicable(v.kind)) continue;
      if (carries_shared_state(v.kind) && v.write_rate > 0.0) {
        const double per_update = p_.async_updates
                                      ? p_.async_publish_ms
                                      : static_cast<double>(p_.edge_count) * p_.wan_rtt_ms;
        bound += v.write_rate * per_update;
      }
      bound += p_.replica_overhead_ms_per_s * static_cast<double>(p_.edge_count);
    }
    return bound;
  }

  [[nodiscard]] std::vector<bool> candidate_states(std::size_t vertex,
                                                   const Assignment& partial,
                                                   const std::vector<char>& decided) const {
    const Vertex& v = p_.graph.vertex(vertex);
    if (v.kind == VertexKind::kClientRemote) return {true};
    if (is_pinned(v.kind)) return {false};
    if (decided[vertex] != 0) return {partial[vertex]};
    return {false, true};
  }

  /// One edge's cost contribution for given endpoint replication states —
  /// kept in sync with CostModel::cost.
  [[nodiscard]] double edge_cost(const Edge& e, bool u_rep, bool v_rep) const {
    const Vertex& caller = p_.graph.vertex(e.from);
    const Vertex& callee = p_.graph.vertex(e.to);
    double f_edge = 0.0;
    switch (caller.kind) {
      case VertexKind::kClientRemote: f_edge = 1.0; break;
      case VertexKind::kClientLocal:
      case VertexKind::kDatabase:
      case VertexKind::kSharedEntity:
      case VertexKind::kQueryResults: f_edge = 0.0; break;
      default: f_edge = u_rep ? model_.remote_share() : 0.0; break;
    }
    if (f_edge <= 0.0) return 0.0;
    double crossing_rate = v_rep ? 0.0 : e.rate - e.write_rate;
    if (carries_shared_state(callee.kind) || callee.kind == VertexKind::kDatabase || !v_rep) {
      crossing_rate += e.write_rate;
    }
    return crossing_rate * f_edge * e.round_trips * p_.wan_rtt_ms;
  }

  const PlacementProblem& p_;
  const CostModel& model_;
  std::vector<std::size_t> order_;
  mutable std::uint64_t evaluations_ = 0;
};

}  // namespace

SolveResult solve_branch_and_bound(const PlacementProblem& problem) {
  const CostModel model{problem};
  std::vector<std::size_t> free = free_vertices(problem);

  // Decide high-traffic vertices first: they drive the bound.
  std::vector<double> weight(problem.graph.vertex_count(), 0.0);
  for (const Edge& e : problem.graph.edges()) {
    weight[e.from] += e.rate * e.round_trips;
    weight[e.to] += e.rate * e.round_trips;
  }
  std::sort(free.begin(), free.end(),
            [&](std::size_t a, std::size_t b) { return weight[a] > weight[b]; });

  // Greedy incumbent to start pruning immediately.
  SolveResult result = solve_greedy(problem);
  result.algorithm = "branch-and-bound";

  BranchAndBound bb{problem, model, std::move(free)};
  bb.run(result.assignment, result.cost, result.evaluations);
  return result;
}

SolveResult solve_greedy(const PlacementProblem& problem) {
  const CostModel model{problem};
  const std::vector<std::size_t> free = free_vertices(problem);

  SolveResult result;
  result.algorithm = "greedy";
  result.assignment.assign(problem.graph.vertex_count(), false);
  result.cost = model.cost(result.assignment);
  result.evaluations = 1;

  bool improved = true;
  while (improved) {
    improved = false;
    std::size_t best_vertex = 0;
    double best_cost = result.cost;
    for (std::size_t v : free) {
      if (result.assignment[v]) continue;
      result.assignment[v] = true;
      const double c = model.cost(result.assignment);
      ++result.evaluations;
      result.assignment[v] = false;
      if (c < best_cost) {
        best_cost = c;
        best_vertex = v;
        improved = true;
      }
    }
    if (improved) {
      result.assignment[best_vertex] = true;
      result.cost = best_cost;
    }
  }
  return result;
}

}  // namespace mutsvc::core::placement
