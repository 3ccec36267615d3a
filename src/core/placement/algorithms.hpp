#pragma once

#include <cstdint>
#include <string>

#include "core/placement/model.hpp"

namespace mutsvc::core::placement {

struct SolveResult {
  Assignment assignment;
  double cost = 0.0;
  std::uint64_t evaluations = 0;
  std::string algorithm;
};

/// Enumerates every subset of replicable vertices. Exact; throws when the
/// free-vertex count exceeds `max_free` (2^n blow-up).
[[nodiscard]] SolveResult solve_exhaustive(const PlacementProblem& problem,
                                           std::size_t max_free = 24);

/// Exact branch-and-bound: depth-first over replicate/don't decisions in
/// descending incident-weight order, pruned by an admissible per-edge
/// lower bound and a greedy incumbent. Same optimum as exhaustive with far
/// fewer evaluations; practical well beyond exhaustive's ~24-vertex limit.
[[nodiscard]] SolveResult solve_branch_and_bound(const PlacementProblem& problem);

/// Marginal-gain greedy: starting centralized, repeatedly replicate the
/// vertex with the largest cost reduction until none improves. Kept as the
/// myopic counterexample (`bench_placement`): replicating one component
/// alone rarely helps until its whole call chain moves.
[[nodiscard]] SolveResult solve_greedy(const PlacementProblem& problem);

}  // namespace mutsvc::core::placement
