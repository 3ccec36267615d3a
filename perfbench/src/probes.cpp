#include "probes.hpp"

#include <random>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "db/database.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/session_fsm.hpp"

namespace perfbench {

namespace core = mutsvc::core;
namespace comp = mutsvc::comp;
namespace db = mutsvc::db;
namespace net = mutsvc::net;
namespace sim = mutsvc::sim;
namespace stats = mutsvc::stats;
namespace workload = mutsvc::workload;

namespace {

using Rng = std::mt19937_64;

std::int64_t pick(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
}

db::Value int_value(std::int64_t v) { return db::Value{v}; }

/// One request for a table page, with arguments drawn inside the
/// application's catalog (the same entry component and method the
/// application's session scripts use for that page).
workload::PageRequest page_request(const std::string& app, const std::string& pattern,
                                   const std::string& page, Rng& rng) {
  workload::PageRequest req;
  req.page = page;
  req.pattern = pattern;
  std::vector<db::Value> args;
  if (app == "RUBiS") {
    const mutsvc::apps::rubis::Shape shape;
    req.component = "RubisWeb";
    req.response_bytes = 4 * 1024;
    const std::int64_t item = pick(rng, 1, shape.items);
    const std::int64_t user = pick(rng, 1, shape.users);
    const std::int64_t region = pick(rng, 1, shape.regions);
    const std::int64_t category = pick(rng, 1, shape.categories);
    const std::string nick = "user" + std::to_string(user);
    const std::int64_t seller = shape.item_seller(item);
    static const std::vector<std::pair<std::string, std::string>> kMethods = {
        {"Main", "main"},
        {"Browse", "browse"},
        {"All Categories", "allcategories"},
        {"All Regions", "allregions"},
        {"Region", "region"},
        {"Category", "category"},
        {"Category & Region", "categoryregion"},
        {"Item", "item"},
        {"Bids", "bids"},
        {"User Info", "userinfo"},
        {"Put Bid Auth", "putbidauth"},
        {"Put Bid Form", "putbidform"},
        {"Store Bid", "storebid"},
        {"Put Comment Auth", "putcommentauth"},
        {"Put Comment Form", "putcommentform"},
        {"Store Comment", "storecomment"}};
    for (const auto& [name, method] : kMethods) {
      if (name == page) req.method = method;
    }
    if (page == "Region") args = {int_value(region)};
    if (page == "Category") args = {int_value(category)};
    if (page == "Category & Region") args = {int_value(category), int_value(region)};
    if (page == "Item" || page == "Bids") args = {int_value(item)};
    if (page == "User Info") args = {int_value(seller)};
    if (page == "Put Bid Form") args = {db::Value{nick}, int_value(item)};
    if (page == "Store Bid") {
      args = {int_value(user), int_value(item),
              db::Value{std::uniform_real_distribution<double>(20.0, 200.0)(rng)}};
    }
    if (page == "Put Comment Form") args = {db::Value{nick}, int_value(seller)};
    if (page == "Store Comment") args = {int_value(user), int_value(seller), int_value(item)};
  } else {
    const mutsvc::apps::petstore::Shape shape;
    req.component = "PetStoreWeb";
    const std::int64_t category = pick(rng, 1, shape.categories);
    const std::int64_t product = shape.product_id(
        category, static_cast<int>(pick(rng, 0, shape.products_per_category - 1)));
    const std::int64_t item =
        shape.item_id(product, static_cast<int>(pick(rng, 0, shape.items_per_product - 1)));
    const std::int64_t account = pick(rng, 1, shape.accounts);
    static const std::vector<std::pair<std::string, std::string>> kMethods = {
        {"Main", "main"},           {"Category", "category"},
        {"Product", "product"},     {"Item", "item"},
        {"Search", "search"},       {"Signin", "signin"},
        {"Verify Signin", "verifysignin"}, {"Shopping Cart", "cart"},
        {"Checkout", "checkout"},   {"Place Order", "placeorder"},
        {"Billing", "billing"},     {"Commit Order", "commitorder"},
        {"Signout", "signout"}};
    for (const auto& [name, method] : kMethods) {
      if (name == page) req.method = method;
    }
    if (page == "Category") args = {int_value(category)};
    if (page == "Product") args = {int_value(product)};
    if (page == "Item" || page == "Shopping Cart") args = {int_value(item)};
    if (page == "Search") args = {db::Value{std::string{"dog"}}};
    if (page == "Verify Signin") args = {int_value(account)};
    if (page == "Commit Order") args = {int_value(account), int_value(item)};
  }
  req.args = std::move(args);
  return req;
}

std::vector<std::string> table_names(const std::string& app) {
  if (app == "RUBiS") return {"regions", "categories", "users", "items", "bids", "comments"};
  return {"category", "product", "item", "inventory", "account", "orders", "lineitem"};
}

core::TestbedConfig testbed_config(const Apps& apps, const Trial& trial) {
  core::TestbedConfig cfg = trial.cal.testbed;
  cfg.db_colocated = apps.driver(trial.app).db_colocated;
  cfg.db_shards = trial.spec.shard.shards;
  return cfg;
}

sim::Task<void> traced_page(core::Experiment& exp, net::NodeId client,
                            const workload::PageRequest& req, comp::TraceSink& sink,
                            sim::Duration& elapsed) {
  const sim::SimTime t0 = exp.simulator().now();
  co_await exp.execute_traced(client, req, sink);
  elapsed = exp.simulator().now() - t0;
}

sim::Task<void> deliver_one(net::Network& network, net::NodeId from, net::NodeId to,
                            net::Bytes size) {
  co_await network.deliver(from, to, size);
}

/// Completes every page immediately: the engine probe measures the session
/// engine and its timers, not a system under test.
class InstantExecutor final : public workload::RequestExecutor {
 public:
  sim::Task<workload::RequestOutcome> execute(net::NodeId,
                                              const workload::PageRequest&) override {
    co_return workload::RequestOutcome::kOk;
  }
};

/// Times `calls` invocations of `fn(i)` as one probe sample.
template <class Fn>
void time_calls(ProbeTime& probe, std::uint64_t calls, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < calls; ++i) fn(i);
  probe.add(seconds_since(t0), calls);
}

}  // namespace

void read_counts(const Trial& trial, core::Experiment& exp, LayerCounts& out) {
  comp::Runtime& rt = exp.runtime();
  const comp::DeploymentPlan& plan = rt.plan();
  const stats::ResponseTimeCollector& r = exp.results();
  out.events += exp.simulator().executed_events();
  out.pages += exp.requests_completed();
  out.messages += exp.network().messages_sent();
  out.net_bytes += static_cast<std::uint64_t>(exp.network().bytes_sent());
  out.wan_bytes += static_cast<std::uint64_t>(exp.network().wan_bytes_sent());
  out.rmi_calls += exp.rmi().calls();
  out.rmi_remote_calls += exp.rmi().remote_calls();
  out.stub_exchanges += exp.rmi().stub_exchanges();
  for (const auto& [edge, stat] : rt.interaction_profile()) out.component_calls += stat.calls;
  out.blocking_pushes += rt.blocking_pushes();
  out.async_publishes += rt.async_publishes();
  std::vector<net::NodeId> servers = plan.edge_servers();
  servers.push_back(plan.main_server());
  for (net::NodeId n : servers) {
    out.jdbc_statements += rt.jdbc_for(n).statements();
    out.fetch_round_trips += rt.jdbc_for(n).fetch_round_trips();
  }
  out.db_queries += exp.database().queries_executed();
  for (const std::string& t : table_names(trial.app)) {
    out.db_rows += exp.database().table(t).row_count();
  }
  for (const auto& [entity, nodes] : plan.ro_replicas()) {
    for (net::NodeId n : nodes) {
      out.ro_hits += rt.ro_cache(n, entity).hits();
      out.ro_misses += rt.ro_cache(n, entity).misses();
    }
  }
  for (net::NodeId n : plan.query_cache_nodes()) {
    out.query_hits += rt.query_cache(n).hits();
    out.query_misses += rt.query_cache(n).misses();
  }
  for (std::size_t s = 0; s < rt.update_topic_count(); ++s) {
    out.published += rt.update_topic(s)->published();
    out.delivered += rt.update_topic(s)->delivered();
  }
  out.requests_issued += exp.requests_issued();
  out.sessions_started += exp.sessions_started();
  out.fsm_sessions += exp.fsm_peak_live_sessions();
  out.fsm_arena_bytes += exp.fsm_arena_bytes();
  out.samples += r.total_samples();
  out.failures += r.failures();
  out.rejections += r.rejections();
}

void probe_trial(const Apps& apps, const Trial& trial, core::Experiment& exp,
                 std::uint64_t seed, int repeat, SpanLog& spans, std::uint64_t parent,
                 LayerProbes& out, CheckLog& log) {
  Rng rng(seed);
  const auto reps = static_cast<std::uint64_t>(repeat);
  const mutsvc::apps::AppDriver& driver = apps.driver(trial.app);
  const core::TestbedConfig tb = testbed_config(apps, trial);

  // Fresh testbeds and databases. One untimed build comes first, so the
  // timed ones see the warm allocator the trial's own construction saw.
  auto build = [&](ProbeTime* testbed, ProbeTime* install) {
    sim::Simulator fresh(seed);
    net::Topology topo(fresh);
    auto t0 = Clock::now();
    const core::TestbedNodes nodes = core::build_testbed(topo, tb);
    if (testbed != nullptr) testbed->add(seconds_since(t0), 1);
    db::Database database(topo, nodes.db_nodes, trial.cal.db_cost);
    t0 = Clock::now();
    driver.install_database(database);
    if (install != nullptr) install->add(seconds_since(t0), 1);
  };
  {
    ScopedSpan s(spans, "core.testbed+apps.install_db", parent);
    build(nullptr, nullptr);
    for (std::uint64_t i = 0; i < reps; ++i) build(&out.testbed, &out.install_db);
  }

  // Let in-flight work finish so the probes below run on an idle simulator.
  sim::Simulator& simulator = exp.simulator();
  simulator.run_until(simulator.now() + sim::sec(86400));
  log.expect(simulator.idle(), trial.app + ": simulator did not drain after the run");
  if (!simulator.idle()) return;

  net::Topology& topo = exp.runtime().topology();
  {
    ScopedSpan s(spans, "net.path", parent);
    const auto n = static_cast<std::uint32_t>(topo.node_count());
    for (std::uint64_t r = 0; r < reps; ++r) {
      time_calls(out.path, static_cast<std::uint64_t>(n) * n, [&](std::uint64_t i) {
        (void)topo.path(net::NodeId{static_cast<std::uint32_t>(i / n)},
                        net::NodeId{static_cast<std::uint32_t>(i % n)});
      });
    }
  }

  const core::TestbedNodes& nodes = exp.nodes();
  const comp::DeploymentPlan& plan = exp.runtime().plan();
  {
    ScopedSpan s(spans, "net.deliver", parent);
    std::vector<std::pair<net::NodeId, net::NodeId>> routes;
    routes.emplace_back(nodes.local_clients, plan.entry_point(nodes.local_clients));
    for (net::NodeId c : nodes.remote_clients) routes.emplace_back(c, plan.entry_point(c));
    for (net::NodeId e : nodes.edge_servers) routes.emplace_back(nodes.main_server, e);
    // Batches of concurrent deliveries, so the per-call figure is not
    // dominated by starting the event loop.
    constexpr std::uint64_t kBatch = 100;
    for (std::uint64_t r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      for (std::uint64_t b = 0; b < kBatch; ++b) {
        for (const auto& [from, to] : routes) {
          simulator.spawn(deliver_one(exp.network(), from, to, 4 * 1024));
        }
      }
      simulator.run_until();
      out.deliver.add(seconds_since(t0), kBatch * routes.size());
    }
  }

  {
    const std::vector<net::NodeId> clients = {nodes.local_clients, nodes.remote_clients.front()};
    for (std::uint64_t r = 0; r < reps; ++r) {
      for (net::NodeId client : clients) {
        for (const auto& [pattern, page] : driver.table_pages) {
          const workload::PageRequest req = page_request(trial.app, pattern, page, rng);
          comp::TraceSink sink;
          sim::Duration elapsed = sim::Duration::zero();
          ++out.traced_pages;
          ScopedSpan s(spans, "component.page " + pattern + "|" + page, parent,
                       out.traced_pages);
          const auto t0 = Clock::now();
          simulator.spawn(traced_page(exp, client, req, sink, elapsed));
          simulator.run_until();
          out.page.add(seconds_since(t0), 1);
          log.expect(!req.method.empty(), trial.app + ": no probe request for " + page);
          log.expect(sink.conforms(elapsed) && sink.open_span_count() == 0,
                     trial.app + " " + pattern + "|" + page +
                         ": span totals do not sum to the response time");
          for (std::size_t k = 0; k < kSpanKinds; ++k) {
            out.trace_ms[k] += sink.total(static_cast<comp::SpanKind>(k)).as_millis();
          }
        }
      }
    }
  }

  db::Database& database = exp.database();
  const std::uint64_t db_calls = 200 * reps;
  const bool rubis = trial.app == "RUBiS";
  const mutsvc::apps::petstore::Shape ps;
  const mutsvc::apps::rubis::Shape rs;
  auto ps_product = [&] {
    return ps.product_id(pick(rng, 1, ps.categories),
                         static_cast<int>(pick(rng, 0, ps.products_per_category - 1)));
  };
  auto ps_item = [&] {
    return ps.item_id(ps_product(), static_cast<int>(pick(rng, 0, ps.items_per_product - 1)));
  };
  auto time_queries = [&](ProbeTime& probe, const char* name, auto&& make) {
    ScopedSpan s(spans, name, parent);
    std::vector<db::Query> qs;
    for (std::uint64_t i = 0; i < db_calls; ++i) qs.push_back(make());
    time_calls(probe, db_calls, [&](std::uint64_t i) { (void)database.execute_immediate(qs[i]); });
  };
  time_queries(out.pk, "db.pk_lookup", [&] {
    return rubis ? db::Query::pk_lookup("items", pick(rng, 1, rs.items))
                 : db::Query::pk_lookup("item", ps_item());
  });
  time_queries(out.finder, "db.finder", [&] {
    return rubis ? db::Query::finder("bids", "item_id", int_value(pick(rng, 1, rs.items)))
                 : db::Query::finder("item", "product_id", int_value(ps_product()));
  });
  // Pet Store registers no aggregate; its scan-class query is the keyword
  // search behind the Search page.
  time_queries(out.aggregate, "db.aggregate", [&] {
    return rubis ? db::Query::aggregate("items_in_category_region",
                                        {int_value(pick(rng, 1, rs.categories)),
                                         int_value(pick(rng, 1, rs.regions))})
                 : db::Query::keyword_search("product", "name", "dog");
  });

  comp::Runtime& rt = exp.runtime();
  {
    ScopedSpan s(spans, "cache.ro_get", parent);
    for (const auto& [entity, replica_nodes] : plan.ro_replicas()) {
      for (net::NodeId n : replica_nodes) {
        mutsvc::cache::ReadOnlyCache& cache = rt.ro_cache(n, entity);
        std::vector<std::int64_t> keys;
        for (const auto& [pk, entry] : cache.snapshot()) keys.push_back(pk);
        if (keys.empty()) continue;
        time_calls(out.ro_get, keys.size() * reps,
                   [&](std::uint64_t i) { (void)cache.get(keys[i % keys.size()]); });
      }
    }
  }
  {
    ScopedSpan s(spans, "cache.query_get", parent);
    for (net::NodeId n : plan.query_cache_nodes()) {
      mutsvc::cache::QueryCache& cache = rt.query_cache(n);
      std::vector<std::string> keys;
      for (const auto& [key, entry] : cache.snapshot()) keys.push_back(key);
      if (keys.empty()) continue;
      time_calls(out.query_get, keys.size() * reps,
                 [&](std::uint64_t i) { (void)cache.get(keys[i % keys.size()]); });
    }
  }
}

void probe_engine(const Apps& apps, const Workload& wl, std::uint64_t seed, SpanLog& spans,
                  LayerProbes& out) {
  const mutsvc::apps::AppDriver& driver = apps.driver(wl.trials.front().app);
  if (!driver.fsm_browser_model || !driver.fsm_writer_model) return;
  ScopedSpan s(spans, "workload.fire");
  sim::Simulator simulator(seed);
  InstantExecutor executor;
  stats::ResponseTimeCollector collector;
  workload::SessionFsmEngine engine(simulator, executor, collector);
  const std::uint8_t b = engine.add_kind(driver.fsm_browser_model(0.0), net::NodeId{0},
                                         stats::ClientGroup::kLocal);
  const std::uint8_t w = engine.add_kind(driver.fsm_writer_model(0.0), net::NodeId{0},
                                         stats::ClientGroup::kLocal);
  const sim::SimTime end = sim::SimTime::origin() + sim::sec(300);
  engine.start_population(b, 8000, end, seed);
  engine.start_population(w, 2000, end, seed + 1);
  const auto t0 = Clock::now();
  simulator.run_until(end);
  out.fire.add(seconds_since(t0), engine.requests_issued());
}

}  // namespace perfbench
