#pragma once

// The benchmark's workloads and the serial study pass that runs them.
//
// A pass constructs, runs and reads back every trial of a workload, one
// after the other on the calling thread; nothing here touches core::sweep
// or the windowed executor. Host time is taken with the benchmark's own
// clock around the library's public calls.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/common/driver.hpp"
#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "paper.hpp"
#include "spans.hpp"

namespace perfbench {

/// Run-size overrides. Zero keeps the workload's own size; the
/// dose-response tests use them to scale one dimension at a time.
struct Sizing {
  double sim_seconds = 0.0;  // simulated run length per trial
  std::size_t edges = 0;     // wide_fanout edge sites
};

/// The two applications of the paper, built once per process.
struct Apps {
  mutsvc::apps::petstore::PetStoreApp petstore;
  mutsvc::apps::rubis::RubisApp rubis;
  mutsvc::apps::AppDriver petstore_driver = petstore.driver();
  mutsvc::apps::AppDriver rubis_driver = rubis.driver();

  [[nodiscard]] const mutsvc::apps::AppDriver& driver(const std::string& app) const {
    return app == rubis_driver.name ? rubis_driver : petstore_driver;
  }
};

struct Trial {
  std::string app;  // AppDriver::name
  mutsvc::core::ExperimentSpec spec;
  mutsvc::core::HarnessCalibration cal;
};

struct Workload {
  std::string name;
  std::vector<Trial> trials;
};

[[nodiscard]] bool is_workload(const std::string& name);
/// Builds the named workload's trials for `seed` (throws on an unknown name).
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     const Sizing& sizing);

/// What a study reads back from one trial: simulated outputs only, so two
/// builds of the same model produce identical values.
struct TrialOutput {
  std::string app;
  int level = 0;
  std::vector<paper::Cell> means;                        // per table page, ms (-1 = no sample)
  std::vector<std::pair<std::size_t, std::size_t>> counts;  // samples per table page (L, R)
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t samples = 0;
  std::uint64_t failures = 0;
  std::uint64_t rejections = 0;
  std::uint64_t discarded = 0;
  std::uint64_t sessions_started = 0;
  std::uint64_t events = 0;
  std::uint64_t fsm_peak = 0;  // peak resident FSM sessions
};

struct TrialTimes {
  double construct_s = 0.0;
  double run_s = 0.0;
  double collect_s = 0.0;
  double teardown_s = 0.0;
};

struct PassResult {
  std::uint64_t seed = 0;
  std::vector<TrialOutput> outputs;
  std::vector<TrialTimes> times;

  /// Host seconds the study took: construction, run, result read and
  /// teardown of every trial. Hook time is not included.
  [[nodiscard]] double wall_s() const;
  [[nodiscard]] double setup_s() const;
  [[nodiscard]] double run_s() const;
  [[nodiscard]] double collect_s() const;
  [[nodiscard]] std::uint64_t pages_completed() const;
  [[nodiscard]] std::uint64_t pages_issued() const;
  [[nodiscard]] std::uint64_t pages_failed() const;
};

/// Runs after a trial's results are read, with its experiment still alive
/// (the traced run's probes), inside a span with id `parent`. Its time is
/// outside every timed segment.
using PostTrialHook = std::function<void(std::size_t trial, const Trial&,
                                         mutsvc::core::Experiment&, std::uint64_t parent)>;

/// One serial pass over every trial of `wl`. `spans` records construction,
/// run and collection spans when enabled.
[[nodiscard]] PassResult run_pass(const Apps& apps, const Workload& wl, SpanLog& spans,
                                  const PostTrialHook& hook = {});

/// Mean host seconds one construction of `trial`'s experiment takes over
/// `count` constructions, each timed alone (one set-up-only sample behind
/// setup_s); the teardowns are not timed.
[[nodiscard]] double time_setup(const Apps& apps, const Trial& trial, int count);

/// Correctness findings; empty means every check held.
struct CheckLog {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// The transcribed paper tables list the same pages, in the same order, as
/// each application's AppDriver::table_pages.
void check_paper_tables(const Apps& apps, CheckLog& log);

/// Conservation identity and zero failures/rejections on every trial, plus
/// the workload's own shape checks.
void check_pass(const Workload& wl, const PassResult& pass, CheckLog& log);

/// FNV-1a over every simulated output of the pass (page means, counts,
/// events): equal digests mean equal simulated results.
[[nodiscard]] std::uint64_t digest(const PassResult& pass);

/// Mean absolute error against the paper's Tables 6/7 (see paper.hpp).
[[nodiscard]] double paper_mae_ms(const PassResult& pass);

}  // namespace perfbench
