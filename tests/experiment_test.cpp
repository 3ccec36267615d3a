// Integration tests: the full testbed + application + workload stack, run
// at reduced (but statistically meaningful) scale. These encode the
// paper's qualitative claims as assertions.
#include <gtest/gtest.h>

#include <memory>

#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "core/placement/advisor.hpp"
#include "core/placement/graph.hpp"

namespace mutsvc::core {
namespace {

using stats::ClientGroup;

ExperimentSpec short_spec(ConfigLevel level, double seconds = 400.0, double warmup = 60.0) {
  ExperimentSpec spec;
  spec.level = level;
  spec.duration = sim::Duration::seconds(seconds);
  spec.warmup = sim::Duration::seconds(warmup);
  return spec;
}

std::unique_ptr<Experiment> run_petstore(ConfigLevel level, double seconds = 400.0) {
  static apps::petstore::PetStoreApp app;  // component defs are immutable
  auto exp = std::make_unique<Experiment>(app.driver(), short_spec(level, seconds),
                                          petstore_calibration());
  exp->run();
  return exp;
}

std::unique_ptr<Experiment> run_rubis(ConfigLevel level, double seconds = 400.0) {
  static apps::rubis::RubisApp app;
  auto exp =
      std::make_unique<Experiment>(app.driver(), short_spec(level, seconds), rubis_calibration());
  exp->run();
  return exp;
}

// --- testbed ----------------------------------------------------------------------

TEST(TestbedTest, Figure2TopologyDistances) {
  sim::Simulator sim;
  net::Topology topo{sim};
  TestbedNodes n = build_testbed(topo);
  // Main <-> edge: 100 ms one way through the router.
  EXPECT_NEAR(topo.path_latency(n.main_server, n.edge_servers[0]).as_millis(), 100.0, 0.1);
  EXPECT_NEAR(topo.path_latency(n.edge_servers[0], n.edge_servers[1]).as_millis(), 100.0, 0.1);
  // Clients sit on their server's LAN.
  EXPECT_LT(topo.path_latency(n.local_clients, n.main_server).as_millis(), 1.0);
  EXPECT_LT(topo.path_latency(n.remote_clients[0], n.edge_servers[0]).as_millis(), 1.0);
  // The database is one LAN hop from the main server.
  EXPECT_LT(topo.path_latency(n.main_server, n.db_node).as_millis(), 1.0);
}

TEST(TestbedTest, ColocatedDatabaseSharesTheMainNode) {
  sim::Simulator sim;
  net::Topology topo{sim};
  TestbedConfig cfg;
  cfg.db_colocated = true;
  TestbedNodes n = build_testbed(topo, cfg);
  EXPECT_EQ(n.db_node, n.main_server);
}

// --- design-rule ladder -------------------------------------------------------------

TEST(LadderTest, CentralizedPlacesEverythingAtMain) {
  apps::petstore::PetStoreApp app;
  sim::Simulator sim;
  net::Topology topo{sim};
  TestbedNodes n = build_testbed(topo);
  auto plan = build_plan(app.application(), app.metadata(), n, ConfigLevel::kCentralized);
  for (const auto& name : app.application().component_names()) {
    EXPECT_EQ(plan.nodes_of(name).size(), 1u) << name;
    EXPECT_EQ(plan.primary(name), n.main_server) << name;
  }
  EXPECT_FALSE(plan.has(comp::Feature::kRemoteFacade));
  EXPECT_EQ(plan.entry_point(n.remote_clients[0]), n.main_server);
  EXPECT_EQ(plan.update_mode(), comp::UpdateMode::kNone);
}

TEST(LadderTest, RemoteFacadeDeploysWebTierToEdges) {
  apps::petstore::PetStoreApp app;
  sim::Simulator sim;
  net::Topology topo{sim};
  TestbedNodes n = build_testbed(topo);
  auto plan = build_plan(app.application(), app.metadata(), n, ConfigLevel::kRemoteFacade);
  EXPECT_EQ(plan.nodes_of("PetStoreWeb").size(), 3u);
  EXPECT_EQ(plan.nodes_of("ShoppingCart").size(), 3u);
  EXPECT_EQ(plan.nodes_of("Catalog").size(), 1u);  // façade still central
  EXPECT_TRUE(plan.has(comp::Feature::kRemoteFacade));
  EXPECT_TRUE(plan.has(comp::Feature::kStubCaching));
  EXPECT_EQ(plan.entry_point(n.remote_clients[0]), n.edge_servers[0]);
  EXPECT_EQ(plan.entry_point(n.local_clients), n.main_server);
}

TEST(LadderTest, StatefulComponentCachingAddsRoReplicasAndEdgeFacades) {
  apps::petstore::PetStoreApp app;
  sim::Simulator sim;
  net::Topology topo{sim};
  TestbedNodes n = build_testbed(topo);
  auto plan =
      build_plan(app.application(), app.metadata(), n, ConfigLevel::kStatefulComponentCaching);
  EXPECT_EQ(plan.nodes_of("Catalog").size(), 3u);  // edge Catalog (§4.3)
  for (const char* e : {"Category", "Product", "Item", "Inventory"}) {
    EXPECT_EQ(plan.ro_replica_nodes(e).size(), 2u) << e;
  }
  EXPECT_EQ(plan.update_mode(), comp::UpdateMode::kBlockingPush);
  EXPECT_FALSE(plan.has_query_cache(n.edge_servers[0]));
}

TEST(LadderTest, QueryCachingAddsEdgeCachesWithAppRefreshMode) {
  apps::rubis::RubisApp app;
  sim::Simulator sim;
  net::Topology topo{sim};
  TestbedNodes n = build_testbed(topo);
  auto plan = build_plan(app.application(), app.metadata(), n, ConfigLevel::kQueryCaching);
  EXPECT_TRUE(plan.has_query_cache(n.edge_servers[0]));
  EXPECT_TRUE(plan.has_query_cache(n.edge_servers[1]));
  EXPECT_EQ(plan.query_refresh(), comp::QueryRefreshMode::kPush);  // RUBiS pushes
  EXPECT_EQ(plan.nodes_of("SB_Auth").size(), 3u);  // query façades at edges
  EXPECT_EQ(plan.update_mode(), comp::UpdateMode::kBlockingPush);
}

TEST(LadderTest, AsyncUpdatesSwitchesUpdateMode) {
  apps::rubis::RubisApp app;
  sim::Simulator sim;
  net::Topology topo{sim};
  TestbedNodes n = build_testbed(topo);
  auto plan = build_plan(app.application(), app.metadata(), n, ConfigLevel::kAsyncUpdates);
  EXPECT_EQ(plan.update_mode(), comp::UpdateMode::kAsyncPush);
}

TEST(LadderTest, RulesForIsCumulative) {
  EXPECT_EQ(rules_for(ConfigLevel::kCentralized).size(), 0u);
  EXPECT_EQ(rules_for(ConfigLevel::kRemoteFacade).size(), 1u);
  EXPECT_EQ(rules_for(ConfigLevel::kAsyncUpdates).size(), 4u);
}

// --- the paper's qualitative claims ----------------------------------------------------

TEST(PetStoreExperimentTest, CentralizedRemotePaysTwoWanRoundTrips) {
  auto exp = run_petstore(ConfigLevel::kCentralized);
  const auto& r = exp->results();
  for (const char* page : {"Main", "Category", "Product", "Item"}) {
    const double local = r.page_mean_ms("Browser", page, ClientGroup::kLocal);
    const double remote = r.page_mean_ms("Browser", page, ClientGroup::kRemote);
    EXPECT_NEAR(remote - local, 400.0, 25.0) << page;  // §4.1
  }
}

TEST(PetStoreExperimentTest, FacadeMakesSessionPagesEdgeLocal) {
  auto exp = run_petstore(ConfigLevel::kRemoteFacade);
  const auto& r = exp->results();
  // §4.2: "six out of nine page requests can be served locally".
  for (const char* page : {"Main", "Signin", "Checkout", "Place Order", "Billing", "Signout"}) {
    const double local = r.page_mean_ms("Buyer", page, ClientGroup::kLocal);
    const double remote = r.page_mean_ms("Buyer", page, ClientGroup::kRemote);
    EXPECT_LT(std::abs(remote - local), 30.0) << page;
  }
  // Data pages still cross once (~1 RMI, not 2 HTTP RTTs).
  const double item_remote = r.page_mean_ms("Browser", "Item", ClientGroup::kRemote);
  EXPECT_GT(item_remote, 200.0);
  EXPECT_LT(item_remote, 480.0);
}

TEST(PetStoreExperimentTest, ComponentCachingMakesItemLocalButCommitBlocks) {
  auto exp = run_petstore(ConfigLevel::kStatefulComponentCaching, 900.0);
  const auto& r = exp->results();
  const double item_remote = r.page_mean_ms("Browser", "Item", ClientGroup::kRemote);
  EXPECT_LT(item_remote, 200.0);  // served by RO replicas (cold misses allowed)
  // §4.3: "the response time for this page is significantly higher ... for
  // both local and remote buyers".
  const double commit_local = r.page_mean_ms("Buyer", "Commit Order", ClientGroup::kLocal);
  EXPECT_GT(commit_local, 400.0);
}

TEST(PetStoreExperimentTest, AsyncRestoresCommitLatency) {
  auto blocking = run_petstore(ConfigLevel::kStatefulComponentCaching);
  auto async = run_petstore(ConfigLevel::kAsyncUpdates);
  const double commit_blocking =
      blocking->results().page_mean_ms("Buyer", "Commit Order", ClientGroup::kLocal);
  const double commit_async =
      async->results().page_mean_ms("Buyer", "Commit Order", ClientGroup::kLocal);
  EXPECT_LT(commit_async, commit_blocking / 2.0);  // §4.5
  // run() stops at the load end, and writes may issue up to it: let the
  // last commits' propagation land before checking convergence.
  (void)async->simulator().run_until(async->simulator().now() + sim::sec(60));
  EXPECT_TRUE(async->runtime().updates_quiescent());
}

TEST(PetStoreExperimentTest, BlockingPushIsZeroStalenessGlobally) {
  // §4.3: "a read operation that arrives after a previous write has
  // committed will always read the correct value" — across the entire
  // concurrent workload, not just a controlled sequence.
  auto exp = run_petstore(ConfigLevel::kQueryCaching, 600.0);
  EXPECT_GT(exp->runtime().consistency().reads(), 0u);
  EXPECT_EQ(exp->runtime().consistency().stale_reads(), 0u);
}

TEST(PetStoreExperimentTest, AsyncAllowsBoundedStaleness) {
  auto exp = run_petstore(ConfigLevel::kAsyncUpdates, 600.0);
  const auto& tracker = exp->runtime().consistency();
  // Stale reads are possible but rare (propagation windows are ~100ms out
  // of ~7s think times).
  EXPECT_LT(tracker.stale_fraction(), 0.05);
}

TEST(PetStoreExperimentTest, ServerUtilizationInPaperBands) {
  auto exp = run_petstore(ConfigLevel::kCentralized);
  const auto& n = exp->nodes();
  EXPECT_LT(exp->cpu_utilization(n.main_server), 0.40);  // §3.4
  EXPECT_LT(exp->cpu_utilization(n.db_node), 0.05);      // §3.1
}

TEST(PetStoreExperimentTest, DeterministicForSameSeed) {
  auto a = run_petstore(ConfigLevel::kRemoteFacade, 200.0);
  auto b = run_petstore(ConfigLevel::kRemoteFacade, 200.0);
  EXPECT_DOUBLE_EQ(a->results().pattern_mean_ms("Browser", ClientGroup::kRemote),
                   b->results().pattern_mean_ms("Browser", ClientGroup::kRemote));
  EXPECT_EQ(a->network().messages_sent(), b->network().messages_sent());
}

TEST(RubisExperimentTest, QueryCachingMakesRemoteBrowserNearLocal) {
  // Longer warm-up so the edge caches are filled when measurement starts,
  // matching the paper's one-hour runs.
  static apps::rubis::RubisApp app;
  ExperimentSpec spec = short_spec(ConfigLevel::kQueryCaching, 1500.0, 600.0);
  auto exp = std::make_unique<Experiment>(app.driver(), spec, rubis_calibration());
  exp->run();
  const auto& r = exp->results();
  const double local = r.pattern_mean_ms("Browser", ClientGroup::kLocal);
  const double remote = r.pattern_mean_ms("Browser", ClientGroup::kRemote);
  // §4.4: "the triumphal performance of RUBiS remote browser, now
  // indistinguishable from the local browser" (cold misses allowed).
  EXPECT_LT(remote, local + 40.0);
}

TEST(RubisExperimentTest, BlockingPushPenalizesBidders) {
  auto facade = run_rubis(ConfigLevel::kRemoteFacade);
  auto blocking = run_rubis(ConfigLevel::kStatefulComponentCaching);
  const double bidder_facade =
      facade->results().pattern_mean_ms("Bidder", ClientGroup::kLocal);
  const double bidder_blocking =
      blocking->results().pattern_mean_ms("Bidder", ClientGroup::kLocal);
  // §4.3: "the RUBiS bidder average response time increased".
  EXPECT_GT(bidder_blocking, bidder_facade * 1.5);
}

TEST(RubisExperimentTest, FinalConfigurationBeatsCentralizedEverywhere) {
  auto centralized = run_rubis(ConfigLevel::kCentralized);
  auto final_cfg = run_rubis(ConfigLevel::kAsyncUpdates);
  for (ClientGroup g : {ClientGroup::kLocal, ClientGroup::kRemote}) {
    for (const char* pattern : {"Browser", "Bidder"}) {
      EXPECT_LE(final_cfg->results().pattern_mean_ms(pattern, g),
                centralized->results().pattern_mean_ms(pattern, g) + 5.0)
          << pattern << "/" << to_string(g);
    }
  }
}

TEST(RubisExperimentTest, CustomPlanOverridesLadder) {
  apps::rubis::RubisApp app;
  ExperimentSpec spec = short_spec(ConfigLevel::kCentralized, 200.0);
  spec.custom_plan = [&](const TestbedNodes& nodes) {
    return build_plan(app.application(), app.metadata(), nodes, ConfigLevel::kAsyncUpdates);
  };
  Experiment exp{app.driver(), spec, rubis_calibration()};
  EXPECT_TRUE(exp.runtime().plan().has(comp::Feature::kAsyncUpdates));
}

TEST(RubisExperimentTest, ThreeHundredEdgeSitesRunAndConserveRequests) {
  // The testbed size has no cap: 300 edge sites give 301 WAN islands, and
  // the run must still account for every request it issues.
  static apps::rubis::RubisApp app;
  HarnessCalibration cal = rubis_calibration();
  cal.testbed.edge_count = 300;
  ExperimentSpec spec = short_spec(ConfigLevel::kRemoteFacade, 20.0, 5.0);
  spec.total_request_rate = 301.0;  // 1 req/s per client group
  Experiment exp{app.driver(), spec, cal};
  ASSERT_EQ(exp.nodes().edge_servers.size(), 300u);
  exp.run();

  const auto& r = exp.results();
  EXPECT_GT(r.total_samples(), 0u);
  EXPECT_EQ(exp.requests_issued(), r.total_samples() + r.failures() + r.rejections() +
                                       r.discarded_samples() + exp.requests_in_flight());
  EXPECT_EQ(exp.requests_issued(), exp.pages_started());
}

TEST(PlacementIntegrationTest, AdvisorRediscoversThePaperConfiguration) {
  auto exp = run_petstore(ConfigLevel::kRemoteFacade, 300.0);
  placement::GraphBuildOptions opts;
  opts.window = sim::Duration::seconds(300.0);
  placement::PlacementProblem problem;
  problem.graph = placement::build_graph(exp->runtime().interaction_profile(),
                                         exp->runtime().app(), opts);
  placement::Advice advice = placement::advise(problem, placement::Algorithm::kBranchAndBound);

  auto contains = [](const std::vector<std::string>& v, const char* s) {
    for (const auto& x : v) {
      if (x == s) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains(advice.replicate_components, "PetStoreWeb"));
  EXPECT_TRUE(contains(advice.replicate_components, "Catalog"));
  EXPECT_TRUE(contains(advice.read_only_entities, "Item"));
  EXPECT_TRUE(contains(advice.read_only_entities, "Inventory"));
  EXPECT_FALSE(contains(advice.replicate_components, "OrderProcessor"));
  EXPECT_GT(advice.improvement_factor(), 5.0);
}

}  // namespace
}  // namespace mutsvc::core
