#include <gtest/gtest.h>

#include "core/placement/advisor.hpp"
#include "core/placement/algorithms.hpp"
#include "core/placement/graph.hpp"
#include "core/placement/model.hpp"
#include "sim/random.hpp"

namespace mutsvc::core::placement {
namespace {

/// client_remote -> web -> facade -> entity -> database, plus a query
/// class — the canonical shape of both paper applications.
PlacementProblem chain_problem(double entity_write_rate = 0.0) {
  PlacementProblem p;
  p.graph.add_vertex(Vertex{"__client_local__", VertexKind::kClientLocal});
  p.graph.add_vertex(Vertex{"__client_remote__", VertexKind::kClientRemote});
  p.graph.add_vertex(Vertex{"__database__", VertexKind::kDatabase});
  p.graph.add_vertex(Vertex{"Web", VertexKind::kWebComponent});
  p.graph.add_vertex(Vertex{"Facade", VertexKind::kStatelessService});
  p.graph.add_vertex(Vertex{"Item", VertexKind::kSharedEntity, entity_write_rate});
  p.graph.add_vertex(Vertex{"query:item", VertexKind::kQueryResults});
  p.graph.add_edge("__client_remote__", "Web", 20.0, 2.0);
  p.graph.add_edge("__client_local__", "Web", 10.0, 2.0);
  p.graph.add_edge("Web", "Facade", 30.0, 1.5);
  p.graph.add_edge("Facade", "Item", 25.0, 1.5);
  p.graph.add_edge("Facade", "query:item", 5.0, 1.5);
  p.graph.add_edge("Item", "__database__", 25.0, 1.0);
  return p;
}

// --- graph ---------------------------------------------------------------------

TEST(InteractionGraphTest, VertexIndexAndDuplicates) {
  InteractionGraph g;
  g.add_vertex(Vertex{"A", VertexKind::kWebComponent});
  EXPECT_EQ(g.index_of("A"), 0u);
  EXPECT_TRUE(g.has_vertex("A"));
  EXPECT_FALSE(g.has_vertex("B"));
  EXPECT_THROW(g.add_vertex(Vertex{"A", VertexKind::kWebComponent}), std::invalid_argument);
  EXPECT_THROW((void)g.index_of("B"), std::invalid_argument);
}

TEST(InteractionGraphTest, EdgeAccumulation) {
  InteractionGraph g;
  g.add_vertex(Vertex{"A", VertexKind::kWebComponent});
  g.add_vertex(Vertex{"B", VertexKind::kStatelessService});
  g.add_edge("A", "B", 10.0, 2.0, 100.0);
  g.add_edge("A", "B", 10.0, 1.0, 300.0);
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_DOUBLE_EQ(g.edges()[0].rate, 20.0);
  EXPECT_DOUBLE_EQ(g.edges()[0].round_trips, 1.5);  // rate-weighted mean
  EXPECT_DOUBLE_EQ(g.edges()[0].bytes, 200.0);
}

TEST(InteractionGraphTest, FreeVertexCountExcludesPinned) {
  PlacementProblem p = chain_problem();
  EXPECT_EQ(p.graph.vertex_count(), 7u);
  EXPECT_EQ(p.graph.free_vertex_count(), 4u);
}

TEST(InteractionGraphTest, DescribeListsVerticesAndEdges) {
  PlacementProblem p = chain_problem();
  std::string desc = p.graph.describe();
  EXPECT_NE(desc.find("Facade"), std::string::npos);
  EXPECT_NE(desc.find("->"), std::string::npos);
}

TEST(BuildGraphTest, ProfileSplitsClientTrafficAndKinds) {
  comp::Application app{"t"};
  app.define("Web", comp::ComponentKind::kServlet);
  app.define("Facade", comp::ComponentKind::kStatelessSessionBean);
  app.define("Cart", comp::ComponentKind::kStatefulSessionBean);

  comp::Runtime::InteractionProfile profile;
  profile[{"__client__", "Web"}] = {.calls = 3600, .writes = 0, .bytes = 360000};
  profile[{"Web", "Facade"}] = {.calls = 3600, .writes = 0, .bytes = 360000};
  profile[{"Web", "Cart"}] = {.calls = 1800, .writes = 0, .bytes = 180000};
  profile[{"Facade", "Item"}] = {.calls = 3600, .writes = 360, .bytes = 360000};
  profile[{"Facade", "query:item"}] = {.calls = 900, .writes = 0, .bytes = 90000};

  GraphBuildOptions opts;
  opts.window = sim::sec(3600);
  InteractionGraph g = build_graph(profile, app, opts);

  EXPECT_EQ(g.vertex(g.index_of("Web")).kind, VertexKind::kWebComponent);
  EXPECT_EQ(g.vertex(g.index_of("Cart")).kind, VertexKind::kSessionState);
  EXPECT_EQ(g.vertex(g.index_of("Item")).kind, VertexKind::kSharedEntity);
  EXPECT_EQ(g.vertex(g.index_of("query:item")).kind, VertexKind::kQueryResults);
  EXPECT_NEAR(g.vertex(g.index_of("Item")).write_rate, 0.1, 1e-9);

  // Client traffic split 2/3 remote, 1/3 local at 1 call/s total.
  double remote_rate = 0.0;
  double local_rate = 0.0;
  for (const auto& e : g.edges()) {
    if (e.from == g.index_of("__client_remote__")) remote_rate += e.rate;
    if (e.from == g.index_of("__client_local__")) local_rate += e.rate;
  }
  EXPECT_NEAR(remote_rate, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(local_rate, 1.0 / 3.0, 1e-9);
}

TEST(BuildGraphTest, ShardedBuildSplitsDatabaseTrafficAcrossPinnedVertices) {
  comp::Application app{"t"};
  app.define("Facade", comp::ComponentKind::kStatelessSessionBean);
  comp::Runtime::InteractionProfile profile;
  profile[{"Facade", "__database__"}] = {.calls = 3600, .writes = 720, .bytes = 1440000};

  GraphBuildOptions opts;
  opts.window = sim::sec(3600);
  opts.db_shards = 3;
  InteractionGraph g = build_graph(profile, app, opts);

  // One pinned vertex per shard; the multi-main edges conserve the total
  // 1 call/s (0.2 writes/s) of DB traffic, split uniformly.
  double rate = 0.0;
  double write_rate = 0.0;
  for (std::size_t s = 0; s < 3; ++s) {
    const std::size_t v = g.index_of(database_vertex_name(s));
    EXPECT_EQ(g.vertex(v).kind, VertexKind::kDatabase);
    for (const auto& e : g.edges()) {
      if (e.to != v) continue;
      EXPECT_NEAR(e.rate, 1.0 / 3.0, 1e-9);
      rate += e.rate;
      write_rate += e.write_rate;
    }
  }
  EXPECT_NEAR(rate, 1.0, 1e-9);
  EXPECT_NEAR(write_rate, 0.2, 1e-9);
  EXPECT_THROW((void)g.index_of("__database_s3__"), std::invalid_argument);
  EXPECT_THROW((void)build_graph(profile, app, GraphBuildOptions{.db_shards = 0}),
               std::invalid_argument);
}

TEST(BuildGraphTest, SingleShardBuildKeepsTheLegacyDatabaseVertex) {
  comp::Application app{"t"};
  app.define("Facade", comp::ComponentKind::kStatelessSessionBean);
  comp::Runtime::InteractionProfile profile;
  profile[{"Facade", "__database__"}] = {.calls = 3600, .writes = 0, .bytes = 1440000};
  InteractionGraph g = build_graph(profile, app, GraphBuildOptions{});
  EXPECT_TRUE(g.has_vertex("__database__"));
  EXPECT_FALSE(g.has_vertex("__database_s1__"));
  EXPECT_EQ(database_vertex_name(0), "__database__");
}

// --- cost model -------------------------------------------------------------------

TEST(CostModelTest, CentralizedCostCountsRemoteHttp) {
  PlacementProblem p = chain_problem();
  CostModel model{p};
  // Only the remote-client edge crosses: 20/s x 2 RTT x 200ms = 8000 ms/s.
  EXPECT_NEAR(model.centralized_cost(), 8000.0, 1e-6);
}

TEST(CostModelTest, ReplicatingWholeChainRemovesWanCost) {
  PlacementProblem p = chain_problem();
  CostModel model{p};
  Assignment a(p.graph.vertex_count(), false);
  a[p.graph.index_of("Web")] = true;
  a[p.graph.index_of("Facade")] = true;
  a[p.graph.index_of("Item")] = true;
  a[p.graph.index_of("query:item")] = true;
  // Remaining cost: replica overhead only (4 replicated vertices x 2 edges
  // x 0.05) — the Item->DB edge no longer matters because reads are served
  // by the replica... but the model keeps DB traffic from main-located
  // execution free anyway.
  EXPECT_LT(model.cost(a), 1.0);
}

TEST(CostModelTest, PartialChainStillCrosses) {
  PlacementProblem p = chain_problem();
  CostModel model{p};
  Assignment a(p.graph.vertex_count(), false);
  a[p.graph.index_of("Web")] = true;
  // Web at edges but Facade central: Web->Facade crossing for 2/3 of 30/s.
  const double expected = 30.0 * (2.0 / 3.0) * 1.5 * 200.0 + 2 * 0.05;
  EXPECT_NEAR(model.cost(a), expected, 1e-6);
}

TEST(CostModelTest, WritesAlwaysCrossFromEdges) {
  // Writer at the edge, write-only entity: replicating the entity must not
  // remove the WAN cost, because replicas are read-only.
  PlacementProblem p;
  p.graph.add_vertex(Vertex{"__client_remote__", VertexKind::kClientRemote});
  p.graph.add_vertex(Vertex{"Writer", VertexKind::kStatelessService});
  p.graph.add_vertex(Vertex{"Order", VertexKind::kSharedEntity, /*write_rate=*/4.0});
  p.graph.add_edge("__client_remote__", "Writer", 4.0, 2.0);
  p.graph.add_edge("Writer", "Order", 4.0, 1.5, 512.0, /*write_rate=*/4.0);
  CostModel model{p};

  Assignment writer_only(p.graph.vertex_count(), false);
  writer_only[p.graph.index_of("Writer")] = true;
  Assignment both = writer_only;
  both[p.graph.index_of("Order")] = true;

  // With the writer at the edge, the 4/s writes cross regardless of the
  // entity's replication — replicating Order only adds update/overhead
  // cost, so the model must score it strictly worse.
  EXPECT_GT(model.cost(both), model.cost(writer_only));
}

TEST(CostModelTest, UpdateModeFlipsTheReplicationDecision) {
  // Entity with 5 writes/s and 6 reads/s via the chain: read benefit
  // (6 x 2/3 x 1.5 x 200 = 1200 ms/s) is below the blocking-push cost
  // (5 x 2 x 200 = 2000 ms/s) but far above the async cost (5 x 5 = 25).
  auto make = [](bool async) {
    PlacementProblem p;
    p.graph.add_vertex(Vertex{"__client_remote__", VertexKind::kClientRemote});
    p.graph.add_vertex(Vertex{"__database__", VertexKind::kDatabase});
    p.graph.add_vertex(Vertex{"Web", VertexKind::kWebComponent});
    p.graph.add_vertex(Vertex{"Item", VertexKind::kSharedEntity, /*write_rate=*/5.0});
    p.graph.add_edge("__client_remote__", "Web", 9.0, 2.0);
    p.graph.add_edge("Web", "Item", 11.0, 1.5, 512.0, /*write_rate=*/5.0);
    p.async_updates = async;
    return p;
  };

  PlacementProblem blocking = make(false);
  PlacementProblem async = make(true);
  SolveResult blocking_best = solve_exhaustive(blocking);
  SolveResult async_best = solve_exhaustive(async);
  EXPECT_FALSE(blocking_best.assignment[blocking.graph.index_of("Item")]);
  EXPECT_TRUE(async_best.assignment[async.graph.index_of("Item")]);
}

TEST(CostModelTest, AsyncMakesReplicationOfWriteHotStateCheap) {
  PlacementProblem p = chain_problem(/*entity_write_rate=*/5.0);
  CostModel async_model{p};
  PlacementProblem blocking = chain_problem(5.0);
  blocking.async_updates = false;
  CostModel blocking_model{blocking};
  Assignment a(p.graph.vertex_count(), true);
  EXPECT_LT(async_model.cost(a), blocking_model.cost(a));
}

/// chain_problem with its DB edge split across `shards` pinned vertices
/// and the data-tier service term enabled.
PlacementProblem sharded_problem(int shards, double service_ms = 2.0) {
  PlacementProblem p;
  p.graph.add_vertex(Vertex{"__client_local__", VertexKind::kClientLocal});
  p.graph.add_vertex(Vertex{"__client_remote__", VertexKind::kClientRemote});
  for (int s = 0; s < shards; ++s) {
    p.graph.add_vertex(Vertex{database_vertex_name(static_cast<std::size_t>(s)),
                              VertexKind::kDatabase});
  }
  p.graph.add_vertex(Vertex{"Web", VertexKind::kWebComponent});
  p.graph.add_vertex(Vertex{"Item", VertexKind::kSharedEntity});
  p.graph.add_edge("__client_remote__", "Web", 20.0, 2.0);
  p.graph.add_edge("Web", "Item", 25.0, 1.5);
  for (int s = 0; s < shards; ++s) {
    p.graph.add_edge("Item", database_vertex_name(static_cast<std::size_t>(s)),
                     25.0 / shards, 1.0);
  }
  p.db_shards = shards;
  p.db_service_ms = service_ms;
  return p;
}

TEST(CostModelTest, DataTierTermIsOffByDefault) {
  // db_service_ms defaults to 0: a sharded graph costs exactly what its
  // WAN terms say, and the paper's single-shard problems are untouched.
  PlacementProblem p = sharded_problem(4, /*service_ms=*/0.0);
  EXPECT_DOUBLE_EQ(CostModel{p}.data_tier_cost(), 0.0);
  PlacementProblem legacy = chain_problem();
  EXPECT_NEAR(CostModel{legacy}.centralized_cost(), 8000.0, 1e-6);
}

TEST(CostModelTest, ShardingTradesServiceTimeAgainstFanout) {
  // 25 stmts/s at 2ms: the per-statement service share falls as 1/S while
  // the scatter-gather overhead grows as (S-1) — costs drop through the
  // sweet spot, and an absurdly wide fleet costs more than a modest one.
  const double c1 = CostModel{sharded_problem(1)}.data_tier_cost();
  const double c2 = CostModel{sharded_problem(2)}.data_tier_cost();
  const double c4 = CostModel{sharded_problem(4)}.data_tier_cost();
  EXPECT_NEAR(c1, 25.0 * 2.0, 1e-9);  // no overhead at one shard
  EXPECT_LT(c2, c1);
  EXPECT_LT(c4, c2);
  const double c64 = CostModel{sharded_problem(64)}.data_tier_cost();
  EXPECT_GT(c64, c4);  // overhead eventually dominates
}

TEST(CostModelTest, MultiMainEdgesPreserveWanCrossingTotals) {
  // Splitting the DB edge across shard vertices must not change the WAN
  // part of the cost: every shard vertex is pinned at the main site, so an
  // edge-replicated caller pays the same total crossing rate.
  PlacementProblem one = sharded_problem(1, 0.0);
  PlacementProblem four = sharded_problem(4, 0.0);
  CostModel m1{one};
  CostModel m4{four};
  Assignment a1(one.graph.vertex_count(), true);
  Assignment a4(four.graph.vertex_count(), true);
  EXPECT_NEAR(m1.cost(a1), m4.cost(a4), 1e-9);
  EXPECT_NEAR(m1.centralized_cost(), m4.centralized_cost(), 1e-9);
}

// --- algorithms --------------------------------------------------------------------

TEST(AlgorithmsTest, ExhaustiveFindsFullReplicationForReadOnlyChain) {
  PlacementProblem p = chain_problem();
  SolveResult r = solve_exhaustive(p);
  EXPECT_TRUE(r.assignment[p.graph.index_of("Web")]);
  EXPECT_TRUE(r.assignment[p.graph.index_of("Facade")]);
  EXPECT_TRUE(r.assignment[p.graph.index_of("Item")]);
  EXPECT_LT(r.cost, CostModel{p}.centralized_cost());
}

TEST(AlgorithmsTest, ExhaustiveThrowsOnHugeSearchSpace) {
  PlacementProblem p;
  p.graph.add_vertex(Vertex{"__client_remote__", VertexKind::kClientRemote});
  for (int i = 0; i < 30; ++i) {
    p.graph.add_vertex(Vertex{"c" + std::to_string(i), VertexKind::kStatelessService});
  }
  EXPECT_THROW((void)solve_exhaustive(p), std::invalid_argument);
}

TEST(AlgorithmsTest, BranchAndBoundMatchesExhaustiveOnChain) {
  PlacementProblem p = chain_problem();
  SolveResult exact = solve_exhaustive(p);
  SolveResult bb = solve_branch_and_bound(p);
  EXPECT_NEAR(bb.cost, exact.cost, 1e-9);
  EXPECT_EQ(bb.assignment, exact.assignment);
}

TEST(AlgorithmsTest, BranchAndBoundMatchesExhaustiveWithFewerEvaluations) {
  // 16 free vertices: exhaustive pays 2^16 evaluations; pruning should cut
  // that by orders of magnitude while staying exact.
  PlacementProblem p;
  p.graph.add_vertex(Vertex{"__client_local__", VertexKind::kClientLocal});
  p.graph.add_vertex(Vertex{"__client_remote__", VertexKind::kClientRemote});
  p.graph.add_vertex(Vertex{"__database__", VertexKind::kDatabase});
  sim::Rng rng{13};
  for (int i = 0; i < 16; ++i) {
    VertexKind kind = i % 3 == 0   ? VertexKind::kWebComponent
                      : i % 3 == 1 ? VertexKind::kStatelessService
                                   : VertexKind::kSharedEntity;
    Vertex v{"c" + std::to_string(i), kind};
    if (kind == VertexKind::kSharedEntity) v.write_rate = rng.uniform(0.0, 2.0);
    p.graph.add_vertex(std::move(v));
    std::string from = i % 4 == 0 ? "__client_remote__" : "c" + std::to_string(i - 1);
    p.graph.add_edge(from, "c" + std::to_string(i), rng.uniform(1.0, 10.0),
                     i % 4 == 0 ? 2.0 : 1.5);
  }
  SolveResult exact = solve_exhaustive(p);
  SolveResult bb = solve_branch_and_bound(p);
  EXPECT_NEAR(bb.cost, exact.cost, 1e-9);
  EXPECT_LT(bb.evaluations, exact.evaluations / 4);
}

TEST(AlgorithmsTest, BranchAndBoundScalesPastExhaustiveLimit) {
  // 30 free vertices: exhaustive would need 2^30 evaluations and throws;
  // branch-and-bound solves it exactly.
  PlacementProblem p;
  p.graph.add_vertex(Vertex{"__client_local__", VertexKind::kClientLocal});
  p.graph.add_vertex(Vertex{"__client_remote__", VertexKind::kClientRemote});
  p.graph.add_vertex(Vertex{"__database__", VertexKind::kDatabase});
  sim::Rng rng{77};
  for (int c = 0; c < 10; ++c) {  // ten independent 3-component chains
    std::string web = "web" + std::to_string(c);
    std::string svc = "svc" + std::to_string(c);
    std::string ent = "ent" + std::to_string(c);
    p.graph.add_vertex(Vertex{web, VertexKind::kWebComponent});
    p.graph.add_vertex(Vertex{svc, VertexKind::kStatelessService});
    p.graph.add_vertex(Vertex{ent, VertexKind::kSharedEntity, rng.uniform(0.0, 1.0)});
    p.graph.add_edge("__client_remote__", web, rng.uniform(1.0, 5.0), 2.0);
    p.graph.add_edge(web, svc, rng.uniform(1.0, 5.0), 1.5);
    p.graph.add_edge(svc, ent, rng.uniform(1.0, 5.0), 1.5);
    p.graph.add_edge(ent, "__database__", 1.0, 1.0);
  }
  EXPECT_THROW((void)solve_exhaustive(p), std::invalid_argument);
  SolveResult bb = solve_branch_and_bound(p);
  EXPECT_LE(bb.cost, solve_greedy(p).cost + 1e-9);  // exact is never beaten
  EXPECT_LT(bb.cost, CostModel{p}.centralized_cost() / 5.0);
}

TEST(AlgorithmsTest, GreedyNeverWorseThanCentralized) {
  PlacementProblem p = chain_problem();
  SolveResult g = solve_greedy(p);
  EXPECT_LE(g.cost, CostModel{p}.centralized_cost() + 1e-9);
}

/// Property sweep over random layered graphs: branch-and-bound matches the
/// exhaustive optimum, and greedy never beats it nor loses to centralized.
class RandomGraphSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphSweep, HeuristicBounds) {
  sim::Rng rng{GetParam()};
  PlacementProblem p;
  p.graph.add_vertex(Vertex{"__client_local__", VertexKind::kClientLocal});
  p.graph.add_vertex(Vertex{"__client_remote__", VertexKind::kClientRemote});
  p.graph.add_vertex(Vertex{"__database__", VertexKind::kDatabase});
  const int n = 3 + static_cast<int>(rng.uniform_int(2, 9));  // 5..12 free
  for (int i = 0; i < n; ++i) {
    VertexKind kind = i % 3 == 0   ? VertexKind::kWebComponent
                      : i % 3 == 1 ? VertexKind::kStatelessService
                                   : VertexKind::kSharedEntity;
    Vertex v{"c" + std::to_string(i), kind};
    if (kind == VertexKind::kSharedEntity) v.write_rate = rng.uniform(0.0, 3.0);
    p.graph.add_vertex(std::move(v));
    std::string from = i == 0 ? "__client_remote__" : "c" + std::to_string(i - 1);
    p.graph.add_edge(from, "c" + std::to_string(i), rng.uniform(1.0, 20.0),
                     i == 0 ? 2.0 : 1.5);
    if (kind == VertexKind::kSharedEntity) {
      p.graph.add_edge("c" + std::to_string(i), "__database__", rng.uniform(0.5, 5.0), 1.0);
    }
  }
  p.async_updates = rng.bernoulli(0.5);

  const CostModel model{p};
  const double centralized = model.centralized_cost();
  SolveResult exact = solve_exhaustive(p);
  SolveResult bb = solve_branch_and_bound(p);
  SolveResult greedy = solve_greedy(p);

  EXPECT_NEAR(bb.cost, exact.cost, 1e-9);  // branch-and-bound is exact
  EXPECT_LE(exact.cost, greedy.cost + 1e-9);
  EXPECT_LE(greedy.cost, centralized + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

// --- advisor -----------------------------------------------------------------------

TEST(AdvisorTest, ClassifiesAdviceByKind) {
  PlacementProblem p = chain_problem();
  Advice advice = advise(p, Algorithm::kExhaustive);
  EXPECT_EQ(advice.replicate_components.size(), 2u);  // Web + Facade
  ASSERT_EQ(advice.read_only_entities.size(), 1u);
  EXPECT_EQ(advice.read_only_entities[0], "Item");
  ASSERT_EQ(advice.cached_query_classes.size(), 1u);
  EXPECT_EQ(advice.cached_query_classes[0], "query:item");
  EXPECT_GT(advice.improvement_factor(), 10.0);
}

TEST(AdvisorTest, DescribeMentionsEverything) {
  PlacementProblem p = chain_problem();
  Advice advice = advise(p, Algorithm::kGreedy);
  std::string desc = advice.describe(p.graph);
  EXPECT_NE(desc.find("greedy"), std::string::npos);
  EXPECT_NE(desc.find("replicate to edges"), std::string::npos);
}

}  // namespace
}  // namespace mutsvc::core::placement
