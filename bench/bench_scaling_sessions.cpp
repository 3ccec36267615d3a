// Session-count scaling ladder for the FSM load engine (ISSUE 9).
//
// Part one climbs a standalone-engine ladder (10k -> 100k -> 1M concurrent
// sessions against a fixed-latency executor) and holds every rung to the
// memory budget: the whole fleet resident at once, under 96 bytes of arena
// per session, issuing on the think-time contract. Part two runs the three
// arrival/popularity scenarios through the full experiment harness:
//   - diurnal: session arrivals follow a day-shaped rate envelope and the
//     started-session count tracks the envelope integral;
//   - flash10x: a 10x flash-crowd step in the arrival envelope;
//   - zipf_hot: Zipf-skewed item popularity concentrates data-tier load on
//     the shard holding the hot key (vs a uniform control run).
// Every cell is self-checking (non-zero exit on violation). The scenario
// list runs twice — once inline and once fanned out across the core::sweep
// worker pool — and the per-cell fingerprints must match bit-for-bit, which
// pins "identical across repeat runs and MUTSVC_JOBS values" directly.
//
// MUTSVC_FAST=1 drops the 1M rung (the 100k rung stays, so the CI smoke
// still covers a six-figure fleet). With MUTSVC_BENCH_JSON set, per-cell
// metrics are written benchstat-style; all non-wall metrics deterministic.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/petstore/petstore.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "stats/collector.hpp"
#include "tools/perf/perfjson.hpp"
#include "workload/arrivals.hpp"
#include "workload/session.hpp"
#include "workload/session_fsm.hpp"

namespace {

using mutsvc::core::ConfigLevel;
using mutsvc::core::Experiment;
using mutsvc::core::ExperimentSpec;

constexpr double kBytesPerSessionCeiling = 96.0;

bool fast_mode() { return std::getenv("MUTSVC_FAST") != nullptr; }

int g_failures = 0;
void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cout << "FAIL: " << what << "\n";
    ++g_failures;
  } else {
    std::cout << "ok: " << what << "\n";
  }
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  return h;
}

// ---------------------------------------------------------------------------
// Part one: the standalone-engine rung ladder.

class FixedLatencyExecutor final : public mutsvc::workload::RequestExecutor {
 public:
  FixedLatencyExecutor(mutsvc::sim::Simulator& sim, mutsvc::sim::Duration latency)
      : sim_(sim), latency_(latency) {}
  [[nodiscard]] mutsvc::sim::Task<mutsvc::workload::RequestOutcome> execute(
      mutsvc::net::NodeId, const mutsvc::workload::PageRequest&) override {
    co_await sim_.wait(latency_);
    co_return mutsvc::workload::RequestOutcome::kOk;
  }

 private:
  mutsvc::sim::Simulator& sim_;
  mutsvc::sim::Duration latency_;
};

/// Random-walk script (2–4 pages over a 5-page site): enough state to keep
/// the per-record rng stream and scratch words honest at every rung.
class LadderModel final : public mutsvc::workload::FsmScriptModel {
 public:
  std::optional<mutsvc::workload::PageRequest> next(std::uint32_t step,
                                                    mutsvc::workload::FsmScratch& scratch,
                                                    mutsvc::sim::Rng& rng) const override {
    if (step == 0) scratch.w0 = static_cast<std::uint64_t>(rng.uniform_int(2, 4));
    if (step >= scratch.w0) return std::nullopt;
    mutsvc::workload::PageRequest req;
    req.page = "Page" + std::to_string(rng.uniform_int(0, 4));
    req.pattern = pattern();
    req.component = "Web";
    req.method = "serve";
    return req;
  }
  [[nodiscard]] const char* pattern() const override { return "Ladder"; }
};

struct RungResult {
  std::size_t sessions = 0;
  std::uint64_t requests = 0;
  std::uint64_t samples = 0;
  std::uint64_t events = 0;
  double bytes_per_session = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t digest = 0;
};

RungResult run_rung(std::size_t sessions) {
  mutsvc::sim::Simulator s(1);
  mutsvc::stats::ResponseTimeCollector collector;
  FixedLatencyExecutor exec{s, mutsvc::sim::ms(5)};
  mutsvc::workload::SessionFsmEngine engine{s, exec, collector};
  const std::uint8_t kind = engine.add_kind(std::make_shared<LadderModel>(),
                                            mutsvc::net::NodeId{0},
                                            mutsvc::stats::ClientGroup::kLocal);
  const mutsvc::sim::SimTime end = mutsvc::sim::SimTime::origin() + mutsvc::sim::sec(10);
  mutsvc::perf::WallTimer timer;
  engine.start_population(kind, sessions, end, /*seed=*/77);
  RungResult r;
  r.bytes_per_session =
      static_cast<double>(engine.arena_bytes()) / static_cast<double>(sessions);
  s.run_until(end);
  r.wall_seconds = timer.seconds();
  r.sessions = sessions;
  r.requests = engine.requests_issued();
  r.samples = collector.total_samples();
  r.events = s.executed_events();

  const std::string tag = "rung " + std::to_string(sessions);
  check(engine.peak_live_sessions() == sessions, tag + ": whole fleet resident at once");
  check(r.bytes_per_session <= kBytesPerSessionCeiling,
        tag + ": " + std::to_string(r.bytes_per_session) + " bytes/session within the " +
            std::to_string(static_cast<int>(kBytesPerSessionCeiling)) + "-byte ceiling");
  // 10s window, 7s think, stagger across [0, 7s): every session issues at
  // least once and none can have issued more than twice.
  check(r.requests >= sessions && r.requests <= 2 * sessions,
        tag + ": issue count on the think-time contract");
  check(engine.requests_issued() ==
            engine.requests_completed() + engine.requests_in_flight(),
        tag + ": issued == completed + in-flight");

  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, r.requests);
  h = fnv1a(h, r.samples);
  h = fnv1a(h, r.events);
  h = fnv1a(h, engine.sessions_started());
  r.digest = h;
  return r;
}

// ---------------------------------------------------------------------------
// Part two: arrival/popularity scenarios through the experiment harness.

struct CellResult {
  std::string name;
  std::uint64_t fingerprint = 0;
  double headline = 0.0;  // scenario-specific: sessions started or hot share
  std::uint64_t samples = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  /// Checks are *collected* here, not reported in place: cells run on sweep
  /// worker threads, so they must not touch the global failure counter or
  /// interleave stdout. main() reports the inline pass's checks.
  std::vector<std::pair<bool, std::string>> checks;
};

ExperimentSpec scenario_spec() {
  ExperimentSpec spec;
  spec.level = ConfigLevel::kRemoteFacade;
  spec.duration = mutsvc::sim::sec(240);
  spec.warmup = mutsvc::sim::sec(30);
  spec.seed = 11;
  spec.total_request_rate = 30.0;
  return spec;
}

std::uint64_t fold_experiment(std::uint64_t h, Experiment& exp) {
  const auto& r = exp.results();
  h = fnv1a(h, exp.requests_issued());
  h = fnv1a(h, exp.sessions_started());
  h = fnv1a(h, r.total_samples());
  h = fnv1a(h, r.failures());
  h = fnv1a(h, r.rejections());
  h = fnv1a(h, exp.simulator().executed_events());
  h = fnv1a(h, static_cast<std::uint64_t>(
                   r.pattern_mean_ms("Browser", mutsvc::stats::ClientGroup::kLocal) * 1e6));
  return h;
}

/// Arrival-envelope cell shared by diurnal and flash10x: runs the envelope,
/// checks the started-session count against its integral, and checks the
/// end-of-run identities.
CellResult run_envelope_cell(const std::string& name, const mutsvc::workload::RateEnvelope& env,
                             mutsvc::sim::Duration duration) {
  mutsvc::apps::petstore::PetStoreApp app;
  ExperimentSpec spec = scenario_spec();
  spec.duration = duration;
  spec.fsm_load.arrivals = env;
  Experiment exp{app.driver(), spec, mutsvc::core::petstore_calibration()};
  mutsvc::perf::WallTimer timer;
  exp.run();

  CellResult c;
  c.name = name;
  c.wall_seconds = timer.seconds();
  const double expected = env.expected_count(mutsvc::sim::Duration::zero(), duration);
  const auto started = static_cast<double>(exp.sessions_started());
  c.checks.emplace_back(started > expected * 0.85 && started < expected * 1.15,
                        name + ": sessions started (" + std::to_string(exp.sessions_started()) +
                            ") track the envelope integral (" + std::to_string(expected) + ")");
  const auto& r = exp.results();
  c.checks.emplace_back(exp.requests_issued() == r.total_samples() + r.failures() +
                                                     r.rejections() + r.discarded_samples() +
                                                     exp.requests_in_flight(),
                        name + ": request conservation under the end-of-run rule");
  c.checks.emplace_back(exp.fsm_live_sessions() == exp.requests_in_flight(),
                        name + ": truncated run leaves exactly the in-flight tail resident");
  c.headline = started;
  c.samples = r.total_samples();
  c.events = exp.simulator().executed_events();
  c.fingerprint = fold_experiment(0xcbf29ce484222325ULL, exp);
  return c;
}

CellResult run_diurnal_cell() {
  return run_envelope_cell(
      "diurnal", mutsvc::workload::RateEnvelope::diurnal(1.0, 9.0, mutsvc::sim::sec(120)),
      mutsvc::sim::sec(240));
}

CellResult run_flash_cell() {
  return run_envelope_cell("flash10x",
                           mutsvc::workload::RateEnvelope::flash_crowd(
                               1.0, 10.0, mutsvc::sim::sec(60), mutsvc::sim::sec(30)),
                           mutsvc::sim::sec(180));
}

CellResult run_zipf_cell() {
  // Closed-loop all-browser load at the cache-free facade level over four
  // shards; the control run (zipf_s = 0) pins the uniform spread, the
  // skewed run (zipf_s = 2) must make the hot key's shard the clear max.
  struct ShardView {
    double hot_share = 0.0;
    bool hot_is_max = false;
    std::uint64_t samples = 0;
    std::uint64_t events = 0;
    std::uint64_t fold = 0;
  };
  auto run_one = [](double zipf_s) {
    mutsvc::apps::petstore::PetStoreApp app;
    ExperimentSpec spec = scenario_spec();
    spec.duration = mutsvc::sim::sec(120);
    spec.shard.shards = 4;
    spec.browser_fraction = 1.0;
    spec.fsm_load.zipf_s = zipf_s;
    Experiment exp{app.driver(), spec, mutsvc::core::petstore_calibration()};
    exp.run();
    const std::size_t hot = exp.database().router().shard_of(1001001);
    double hot_util = 0.0;
    double total_util = 0.0;
    double max_other = 0.0;
    const auto& db_nodes = exp.nodes().db_nodes;
    for (std::size_t s = 0; s < db_nodes.size(); ++s) {
      const double u = exp.cpu_utilization(db_nodes[s]);
      total_util += u;
      if (s == hot) {
        hot_util = u;
      } else {
        max_other = std::max(max_other, u);
      }
    }
    ShardView v;
    v.hot_share = total_util > 0.0 ? hot_util / total_util : 0.0;
    v.hot_is_max = hot_util > max_other;
    v.samples = exp.results().total_samples();
    v.events = exp.simulator().executed_events();
    v.fold = fold_experiment(fnv1a(0xcbf29ce484222325ULL,
                                   static_cast<std::uint64_t>(v.hot_share * 1e9)),
                             exp);
    return v;
  };

  mutsvc::perf::WallTimer timer;
  const ShardView uniform = run_one(0.0);
  const ShardView skewed = run_one(2.0);
  CellResult c;
  c.checks.emplace_back(uniform.hot_share > 0.24 && uniform.hot_share < 0.26,
                        "zipf_hot: uniform control spreads ~25% per shard (" +
                            std::to_string(uniform.hot_share) + ")");
  c.checks.emplace_back(skewed.hot_share > uniform.hot_share + 0.03,
                        "zipf_hot: skew lifts the hot shard's share (" +
                            std::to_string(uniform.hot_share) + " -> " +
                            std::to_string(skewed.hot_share) + ")");
  c.checks.emplace_back(skewed.hot_is_max,
                        "zipf_hot: the hot key's shard carries the most load");
  c.name = "zipf_hot";
  c.wall_seconds = timer.seconds();
  c.headline = skewed.hot_share;
  c.samples = uniform.samples + skewed.samples;
  c.events = uniform.events + skewed.events;
  c.fingerprint = fnv1a(uniform.fold, skewed.fold);
  return c;
}

}  // namespace

int main() {
  std::cout << "=== bench_scaling_sessions: FSM engine session-count ladder ===\n"
            << (fast_mode() ? "(MUTSVC_FAST smoke run)\n" : "") << "\n";

  std::vector<std::size_t> rungs{10000, 100000};
  if (!fast_mode()) rungs.push_back(1000000);

  std::vector<RungResult> ladder;
  ladder.reserve(rungs.size());
  for (std::size_t n : rungs) {
    ladder.push_back(run_rung(n));
    const RungResult& r = ladder.back();
    std::cout << "  " << n << " sessions: " << r.requests << " requests, " << r.events
              << " events, " << r.bytes_per_session << " bytes/session [" << r.wall_seconds
              << "s wall]\n";
  }
  // Repeat-run determinism on the smallest rung (cheap, same code path).
  check(run_rung(rungs.front()).digest == ladder.front().digest,
        "repeated rung is bit-identical");

  // Scenario cells run twice: inline, then fanned out across the sweep
  // worker pool. Matching fingerprints pin bit-identical results across
  // repeat runs and MUTSVC_JOBS values in one shot.
  const std::vector<std::function<CellResult()>> cells{run_diurnal_cell, run_flash_cell,
                                                       run_zipf_cell};
  std::vector<CellResult> inline_pass;
  inline_pass.reserve(cells.size());
  for (const auto& cell : cells) inline_pass.push_back(cell());

  std::cerr << "scenario re-run: " << cells.size()
            << " cells, jobs=" << mutsvc::core::sweep::configured_jobs() << std::endl;
  std::vector<CellResult> sweep_pass = mutsvc::core::sweep::run_trials(
      std::vector<std::function<CellResult()>>(cells.begin(), cells.end()));

  for (std::size_t i = 0; i < inline_pass.size(); ++i) {
    const CellResult& a = inline_pass[i];
    const CellResult& b = sweep_pass[i];
    std::cout << "  " << a.name << ": headline " << a.headline << ", samples " << a.samples
              << " [" << a.wall_seconds << "s wall]\n";
    for (const auto& [ok, what] : a.checks) check(ok, what);
    check(a.fingerprint == b.fingerprint,
          a.name + ": bit-identical between inline and worker-pool runs");
  }

  const char* path = std::getenv("MUTSVC_BENCH_JSON");
  if (path != nullptr && *path != '\0') {
    std::vector<mutsvc::perf::Benchmark> out;
    for (const RungResult& r : ladder) {
      mutsvc::perf::Benchmark b{"sessions." + std::to_string(r.sessions), {}};
      b.add("sessions", static_cast<double>(r.sessions));
      b.add("requests", static_cast<double>(r.requests));
      b.add("samples", static_cast<double>(r.samples));
      b.add("events", static_cast<double>(r.events));
      b.add("bytes_per_session", r.bytes_per_session);
      b.add("wall_seconds", r.wall_seconds);
      b.add("wall_sessions_per_sec",
            r.wall_seconds > 0.0 ? static_cast<double>(r.sessions) / r.wall_seconds : 0.0);
      out.push_back(std::move(b));
    }
    for (const CellResult& c : inline_pass) {
      mutsvc::perf::Benchmark b{"scenario." + c.name, {}};
      b.add("headline", c.headline);
      b.add("samples", static_cast<double>(c.samples));
      b.add("events", static_cast<double>(c.events));
      b.add("wall_seconds", c.wall_seconds);
      out.push_back(std::move(b));
    }
    mutsvc::perf::write_bench_json(path, "scaling_sessions", out);
    std::cerr << "wrote " << path << "\n";
  }

  if (g_failures != 0) {
    std::cout << "\n" << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "\nall checks passed\n";
  return 0;
}
