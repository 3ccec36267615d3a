// Runtime-placement diurnal bench (ISSUE 10): antiphase day/night session
// envelopes on the two remote sites, so the *optimal* static placement of the
// catalog replica set flips every half period. Four cells:
//   - static_e0 / static_e1: the replica set pinned at one edge — each is
//     optimal for half the day and pays WAN reads for the other half;
//   - static_both: the full ladder rung (replicas at every edge) — the
//     provisioning upper bound the controller is *not* expected to beat;
//   - dynamic: replica set starts at edge0 and the PlacementController
//     (EdgeShiftPolicy over entry-page shares, staged canary rollout)
//     migrates it to follow the sun.
// Self-checking:
//   - the controller follows the envelope: >= 2 completed migrations and
//     >= 2 binding flips over two diurnal periods;
//   - dynamic SLO attainment beats the best single-site static placement;
//   - every cell conserves requests under the end-of-run rule;
//   - determinism: a repeated dynamic cell produces a bit-identical digest
//     (samples, events, response stream, and the controller action log).
// Cells fan out across the core::sweep pool and merge in submission order,
// so stdout and the JSON are bit-identical at any MUTSVC_JOBS value. With
// MUTSVC_BENCH_JSON set, writes per-cell metrics (BENCH_placement.json);
// every non-wall metric is deterministic.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "component/controller.hpp"
#include "component/deployment.hpp"
#include "core/calibration.hpp"
#include "core/design_rules.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "tools/perf/perfjson.hpp"
#include "workload/arrivals.hpp"

namespace {

using mutsvc::core::ConfigLevel;
using mutsvc::core::Experiment;
using mutsvc::core::ExperimentSpec;
using mutsvc::workload::RateEnvelope;

// A page slower than this is not within the SLO. Sits between the
// local-replica page cost and the WAN-read page cost at the async rung, so
// attainment directly measures "was the replica set where the traffic was".
constexpr double kSloMs = 250.0;

struct Scenario {
  mutsvc::sim::Duration duration;
  mutsvc::sim::Duration warmup;
  mutsvc::sim::Duration period;  // diurnal period (two full cycles per run)
};

struct Cell {
  std::string name;
  int holder = -1;      // replica-set edge (-1 = full ladder, every edge)
  bool dynamic = false;  // install the placement controller
};

struct CellResult {
  Cell cell;
  std::uint64_t samples = 0;
  std::uint64_t failures = 0;
  std::uint64_t events = 0;
  std::uint64_t good = 0;  // samples within the SLO
  double slo_fraction = 0.0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t flips = 0;
  bool conserved = false;
  double wall_seconds = 0.0;
  std::uint64_t digest = 0;  // FNV-1a over the deterministic outcome
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

CellResult run_cell(const Cell& cell, const Scenario& sc) {
  mutsvc::apps::petstore::PetStoreApp app;
  mutsvc::apps::AppDriver driver = app.driver();

  ExperimentSpec spec;
  spec.level = ConfigLevel::kAsyncUpdates;
  spec.duration = sc.duration;
  spec.warmup = sc.warmup;
  spec.seed = 0xD1;

  // Antiphase diurnal session envelopes: remote site 0 peaks at the start
  // of each period (so every cell begins with the replica set where the
  // traffic is), remote site 1 half a period later; the local group is
  // flat background.
  const RateEnvelope day = RateEnvelope::diurnal(0.05, 1.2, sc.period);
  spec.fsm_load.group_arrivals = {RateEnvelope::constant(0.1),
                                  day.shifted(sc.period * 0.5), day};

  const int start_holder = cell.holder < 0 ? 0 : cell.holder;
  if (cell.holder >= 0 || cell.dynamic) {
    // The ladder rung with the migratable replica set (read-mostly entities
    // + edge query cache) stripped down to a single holder edge; the other
    // edge keeps its facades but pays WAN reads.
    spec.custom_plan = [&driver, start_holder](const mutsvc::core::TestbedNodes& nodes) {
      mutsvc::comp::DeploymentPlan plan = mutsvc::core::build_plan(
          *driver.app, *driver.meta, nodes, ConfigLevel::kAsyncUpdates);
      const mutsvc::net::NodeId other = nodes.edge_servers[1 - start_holder];
      for (const std::string& entity : driver.meta->read_mostly) {
        plan.remove_ro_replica(entity, other);
      }
      plan.remove_query_cache(other);
      return plan;
    };
  }
  if (cell.dynamic) {
    spec.placement.enabled = true;
    spec.placement.quantum = mutsvc::sim::sec(10);
    spec.placement.policy = [] {
      mutsvc::comp::EdgeShiftPolicy::Config cfg;
      cfg.high_share = 0.55;
      cfg.low_share = 0.45;
      cfg.confirm_quanta = 2;
      return std::make_unique<mutsvc::comp::EdgeShiftPolicy>(cfg);
    };
    spec.placement.canary_fraction = 0.25;  // staged rollout by session share
    spec.placement.components = driver.meta->edge_facades;
    spec.placement.entities = driver.meta->read_mostly;
    spec.placement.move_query_cache = true;
  }

  mutsvc::perf::WallTimer timer;
  Experiment exp{driver, spec, mutsvc::core::petstore_calibration()};
  std::vector<double> responses_ms;
  exp.set_response_observer([&responses_ms](double ms) { responses_ms.push_back(ms); });
  exp.run();

  CellResult r;
  r.cell = cell;
  r.wall_seconds = timer.seconds();
  const auto& res = exp.results();
  r.samples = res.total_samples();
  r.failures = res.failures();
  r.events = exp.simulator().executed_events();
  double sum_ms = 0.0;
  for (double ms : responses_ms) {
    sum_ms += ms;
    if (ms <= kSloMs) ++r.good;
  }
  if (!responses_ms.empty()) {
    r.slo_fraction = static_cast<double>(r.good) / static_cast<double>(responses_ms.size());
    r.mean_ms = sum_ms / static_cast<double>(responses_ms.size());
    std::vector<double> sorted = responses_ms;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(0.99 * static_cast<double>(sorted.size()));
    r.p99_ms = sorted[std::min(rank, sorted.size() - 1)];
  }
  if (const mutsvc::comp::PlacementController* pc = exp.placement_controller()) {
    r.migrations = pc->migrations_completed();
  }
  if (exp.bindings() != nullptr) r.flips = exp.bindings()->flips();
  r.conserved = exp.requests_issued() == res.total_samples() + res.failures() +
                                             res.discarded_samples() + exp.requests_in_flight();

  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, r.samples);
  h = fnv1a(h, r.failures);
  h = fnv1a(h, r.events);
  h = fnv1a(h, r.good);
  h = fnv1a(h, r.migrations);
  h = fnv1a(h, r.flips);
  for (double ms : responses_ms) {
    h = fnv1a(h, static_cast<std::uint64_t>(ms * 1000.0));
  }
  if (const mutsvc::comp::PlacementController* pc = exp.placement_controller()) {
    for (const auto& rec : pc->actions()) {
      h = fnv1a(h, static_cast<std::uint64_t>(rec.at.count_micros()));
      h = fnv1a(h, rec.action.from.value());
      h = fnv1a(h, rec.action.to.value());
      h = fnv1a(h, rec.completed ? 1 : 0);
      h = fnv1a(h, rec.binding_version);
    }
  }
  r.digest = h;
  return r;
}

}  // namespace

int main() {
  // The quiesce/canary/forward-epoch cycle needs tens of seconds of sim
  // time per flip, so the run covers two diurnal periods plus warm-up; a
  // shorter run leaves the controller too few half-periods to clear its
  // migration gate by more than one flip. The cells are cheap: the whole
  // sweep is well under a second of wall time.
  Scenario sc;
  sc.period = mutsvc::sim::sec(300);
  sc.duration = mutsvc::sim::sec(660);
  sc.warmup = mutsvc::sim::sec(60);

  const std::vector<Cell> cells{
      {"static_e0", 0, false},      {"static_e1", 1, false}, {"static_both", -1, false},
      {"dynamic", 0, true},         {"dynamic_repeat", 0, true},
  };
  std::vector<std::function<CellResult()>> trials;
  trials.reserve(cells.size());
  for (const Cell& c : cells) {
    trials.push_back([c, &sc] { return run_cell(c, sc); });
  }
  std::cerr << "placement-runtime sweep: " << trials.size()
            << " cells, jobs=" << mutsvc::core::sweep::configured_jobs() << std::endl;
  std::vector<CellResult> results = mutsvc::core::sweep::run_trials(std::move(trials));

  auto find = [&results](const std::string& name) -> const CellResult& {
    for (const CellResult& r : results) {
      if (r.cell.name == name) return r;
    }
    throw std::logic_error("missing cell " + name);
  };

  std::cout << "Runtime placement, antiphase diurnal envelopes (PetStore async rung, SLO "
            << kSloMs << "ms):\n";
  for (const CellResult& r : results) {
    std::cout << "  " << r.cell.name << ": slo " << r.slo_fraction << " mean " << r.mean_ms
              << "ms p99 " << r.p99_ms << "ms samples " << r.samples << " failures "
              << r.failures << " migrations " << r.migrations << " flips " << r.flips << " ["
              << r.wall_seconds << "s wall]\n";
  }

  int rc = 0;
  auto check = [&rc](bool ok, const std::string& what) {
    if (!ok) {
      std::cout << "FAIL: " << what << "\n";
      rc = 1;
    } else {
      std::cout << "ok: " << what << "\n";
    }
  };

  const CellResult& dyn = find("dynamic");
  const CellResult& e0 = find("static_e0");
  const CellResult& e1 = find("static_e1");
  check(dyn.migrations >= 2 && dyn.flips >= 2,
        "controller follows the sun: >= 2 completed migrations (" +
            std::to_string(dyn.migrations) + ") and flips (" + std::to_string(dyn.flips) + ")");
  check(e0.migrations == 0 && e1.migrations == 0 && find("static_both").migrations == 0,
        "static cells never migrate");
  check(dyn.slo_fraction > std::max(e0.slo_fraction, e1.slo_fraction),
        "dynamic SLO attainment (" + std::to_string(dyn.slo_fraction) +
            ") beats the best single-site static placement (" +
            std::to_string(std::max(e0.slo_fraction, e1.slo_fraction)) + ")");
  for (const CellResult& r : results) {
    check(r.conserved, r.cell.name + ": request conservation under the end-of-run rule");
  }
  check(find("dynamic_repeat").digest == dyn.digest,
        "repeated dynamic cell is bit-identical (determinism)");

  const char* path = std::getenv("MUTSVC_BENCH_JSON");
  if (path != nullptr && *path != '\0') {
    std::vector<mutsvc::perf::Benchmark> out;
    for (const CellResult& r : results) {
      mutsvc::perf::Benchmark b{"placement." + r.cell.name, {}};
      b.add("events", static_cast<double>(r.events));
      b.add("samples", static_cast<double>(r.samples));
      b.add("failures", static_cast<double>(r.failures));
      b.add("good_samples", static_cast<double>(r.good));
      b.add("slo_fraction", r.slo_fraction);
      b.add("mean_ms", r.mean_ms);
      b.add("p99_ms", r.p99_ms);
      b.add("migrations", static_cast<double>(r.migrations));
      b.add("flips", static_cast<double>(r.flips));
      b.add("wall_seconds", r.wall_seconds);
      out.push_back(std::move(b));
    }
    mutsvc::perf::write_bench_json(path, "placement_runtime", out);
    std::cerr << "wrote " << path << "\n";
  }
  return rc;
}
