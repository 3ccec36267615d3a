#include "study.hpp"

#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace perfbench {

namespace core = mutsvc::core;
namespace sim = mutsvc::sim;
namespace stats = mutsvc::stats;

namespace {

constexpr core::ConfigLevel kLadder[] = {
    core::ConfigLevel::kCentralized, core::ConfigLevel::kRemoteFacade,
    core::ConfigLevel::kStatefulComponentCaching, core::ConfigLevel::kQueryCaching,
    core::ConfigLevel::kAsyncUpdates};

const char* const kPetStore = "Pet Store";
const char* const kRubis = "RUBiS";

double or_default(double v, double fallback) { return v > 0.0 ? v : fallback; }

core::HarnessCalibration calibration_for(const std::string& app) {
  return app == kRubis ? core::rubis_calibration() : core::petstore_calibration();
}

Trial make_trial(const std::string& app, core::ConfigLevel level, std::uint64_t seed,
                 double sim_seconds) {
  Trial t;
  t.app = app;
  t.cal = calibration_for(app);
  t.spec.level = level;
  t.spec.duration = sim::sec(sim_seconds);
  t.spec.warmup = sim::sec(60);
  t.spec.seed = seed;
  return t;
}

TrialOutput collect(const Apps& apps, const Trial& trial, core::Experiment& exp) {
  TrialOutput o;
  o.app = trial.app;
  o.level = static_cast<int>(trial.spec.level);
  const stats::ResponseTimeCollector& r = exp.results();
  for (const auto& [pattern, page] : apps.driver(trial.app).table_pages) {
    const stats::Summary* l = r.page_summary(pattern, page, stats::ClientGroup::kLocal);
    const stats::Summary* m = r.page_summary(pattern, page, stats::ClientGroup::kRemote);
    o.means.push_back({r.page_mean_ms(pattern, page, stats::ClientGroup::kLocal),
                       r.page_mean_ms(pattern, page, stats::ClientGroup::kRemote)});
    o.counts.emplace_back(l == nullptr ? 0 : l->count(), m == nullptr ? 0 : m->count());
  }
  o.issued = exp.requests_issued();
  o.completed = exp.requests_completed();
  o.in_flight = exp.requests_in_flight();
  o.samples = r.total_samples();
  o.failures = r.failures();
  o.rejections = r.rejections();
  o.discarded = r.discarded_samples();
  o.sessions_started = exp.sessions_started();
  o.events = exp.simulator().executed_events();
  o.fsm_peak = exp.fsm_peak_live_sessions();
  return o;
}

std::size_t page_index(const TrialOutput& o, const std::string& pattern,
                       const std::string& page) {
  const auto& pages = paper::table_for(o.app).pages;
  for (std::size_t k = 0; k < pages.size(); ++k) {
    if (pages[k].first == pattern && pages[k].second == page) return k;
  }
  throw std::logic_error("perfbench: no table page " + pattern + "|" + page);
}

const TrialOutput* find_output(const PassResult& pass, const std::string& app, int level) {
  for (const TrialOutput& o : pass.outputs) {
    if (o.app == app && o.level == level) return &o;
  }
  return nullptr;
}

std::string cell_name(const TrialOutput& o, std::size_t k) {
  const auto& p = paper::table_for(o.app).pages[k];
  return o.app + " L" + std::to_string(o.level) + " " + p.first + "|" + p.second;
}

void check_every_cell_sampled(const TrialOutput& o, CheckLog& log) {
  for (std::size_t k = 0; k < o.counts.size(); ++k) {
    log.expect(o.counts[k].first > 0 && o.counts[k].second > 0,
               cell_name(o, k) + ": a table cell has no samples");
  }
}

void check_ladder_shape(const PassResult& pass, CheckLog& log) {
  // EXPERIMENTS.md shape checks. Centralized: every remote page pays two
  // WAN round trips over local (§4.1).
  for (const char* app : {kPetStore, kRubis}) {
    const TrialOutput* central = find_output(pass, app, 1);
    const TrialOutput* blocking = find_output(pass, app, 4);
    const TrialOutput* async = find_output(pass, app, 5);
    log.expect(central != nullptr && blocking != nullptr && async != nullptr,
               std::string(app) + ": ladder rungs missing");
    if (central == nullptr || blocking == nullptr || async == nullptr) continue;
    for (std::size_t k = 0; k < central->means.size(); ++k) {
      const paper::Cell& c = central->means[k];
      log.expect(std::abs(c.remote - c.local - 400.0) <= 75.0,
                 cell_name(*central, k) + ": centralized remote is not local + ~400 ms");
    }
    // Asynchronous updates: the commit page drops below its blocking-push
    // cost for both client groups (§4.5).
    const std::vector<std::pair<std::string, std::string>> commits =
        std::string(app) == kRubis
            ? std::vector<std::pair<std::string, std::string>>{{"Bidder", "Store Bid"},
                                                               {"Bidder", "Store Comment"}}
            : std::vector<std::pair<std::string, std::string>>{{"Buyer", "Commit Order"}};
    for (const auto& [pattern, page] : commits) {
      const std::size_t k = page_index(*async, pattern, page);
      log.expect(async->means[k].local < blocking->means[k].local &&
                     async->means[k].remote < blocking->means[k].remote,
                 cell_name(*async, k) + ": async commit is not below blocking commit");
    }
  }
}

void check_fanout_shape(const TrialOutput& o, CheckLog& log) {
  // Reads are served from edge replicas and caches: no remote read page
  // pays the centralized two WAN round trips, and the remote browser mix
  // stays far below them (~430 ms when centralized). The writer no longer waits for the 16-way
  // propagation.
  const auto& pages = paper::table_for(o.app).pages;
  double weighted = 0.0;
  std::size_t samples = 0;
  for (std::size_t k = 0; k < pages.size(); ++k) {
    if (pages[k].first != "Browser") continue;
    log.expect(o.means[k].remote - o.means[k].local < 350.0,
               cell_name(o, k) + ": remote read pays the centralized WAN cost");
    weighted += o.means[k].remote * static_cast<double>(o.counts[k].second);
    samples += o.counts[k].second;
  }
  const double browser_remote = weighted / static_cast<double>(samples);
  log.expect(browser_remote < 200.0, o.app + ": remote browsing is not edge-local");
  const std::size_t bid = page_index(o, "Bidder", "Store Bid");
  log.expect(o.means[bid].local < 100.0, cell_name(o, bid) + ": writer waits for propagation");
}

void check_sessions_shape(const Trial& t, const TrialOutput& o, CheckLog& log) {
  const std::uint64_t groups = 1 + t.cal.testbed.edge_count;
  const std::uint64_t resident = groups * t.spec.fsm_load.sessions_per_group;
  log.expect(o.fsm_peak == resident, "million_sessions: peak resident sessions " +
                                         std::to_string(o.fsm_peak) + " != " +
                                         std::to_string(resident));
  // Sessions start staggered over one think interval, so the run covers a
  // run/think share of first pages; well under capacity, pages stay fast.
  const double expected = static_cast<double>(resident) * t.spec.duration.as_seconds() /
                          t.spec.loadgen.think_time.as_seconds();
  log.expect(std::abs(static_cast<double>(o.issued) - expected) <= 0.05 * expected,
             "million_sessions: issued pages " + std::to_string(o.issued) +
                 " far from the expected " + std::to_string(expected));
  const std::size_t main = page_index(o, "Browser", "Main");
  log.expect(o.means[main].local > 0.0 && o.means[main].local < 200.0,
             "million_sessions: Browser|Main is not under capacity");
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "paper_ladder" || name == "wide_fanout" || name == "million_sessions";
}

Workload make_workload(const std::string& name, std::uint64_t seed, const Sizing& sizing) {
  Workload wl{name, {}};
  if (name == "paper_ladder") {
    // §3.3 load: 30 req/s, 80/20 browser/writer, three client groups, 7 s
    // think time (the ExperimentSpec defaults), through all five rungs.
    for (const char* app : {kPetStore, kRubis}) {
      for (core::ConfigLevel level : kLadder) {
        wl.trials.push_back(make_trial(app, level, seed, or_default(sizing.sim_seconds, 600)));
      }
    }
  } else if (name == "wide_fanout") {
    const std::size_t edges = sizing.edges > 0 ? sizing.edges : 16;
    Trial t = make_trial(kRubis, core::ConfigLevel::kAsyncUpdates, seed,
                         or_default(sizing.sim_seconds, 300));
    t.cal.testbed.edge_count = edges;
    t.spec.total_request_rate = 10.0 * static_cast<double>(edges + 1);  // 10 req/s per site
    t.spec.browser_fraction = 0.5;
    wl.trials.push_back(std::move(t));
  } else if (name == "million_sessions") {
    Trial t = make_trial(kPetStore, core::ConfigLevel::kQueryCaching, seed,
                         or_default(sizing.sim_seconds, 600));
    t.spec.fsm_load.enabled = true;
    t.spec.fsm_load.sessions_per_group = 330000;
    t.spec.loadgen.think_time = sim::sec(1800);
    wl.trials.push_back(std::move(t));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return wl;
}

PassResult run_pass(const Apps& apps, const Workload& wl, SpanLog& spans,
                    const PostTrialHook& hook) {
  PassResult out;
  out.seed = wl.trials.empty() ? 0 : wl.trials.front().spec.seed;
  for (std::size_t i = 0; i < wl.trials.size(); ++i) {
    const Trial& trial = wl.trials[i];
    const std::string tag =
        spans.enabled() ? trial.app + " / " + core::to_string(trial.spec.level) : std::string();
    ScopedSpan trial_span(spans, "trial " + tag);
    TrialTimes tt;
    std::unique_ptr<core::Experiment> exp;

    const auto t0 = Clock::now();
    {
      ScopedSpan s(spans, "core.experiment", trial_span.id());
      exp = std::make_unique<core::Experiment>(apps.driver(trial.app), trial.spec, trial.cal);
    }
    const auto t1 = Clock::now();
    {
      ScopedSpan s(spans, "core.run", trial_span.id());
      exp->run();
    }
    const auto t2 = Clock::now();
    {
      ScopedSpan s(spans, "core.collect", trial_span.id());
      out.outputs.push_back(collect(apps, trial, *exp));
    }
    const auto t3 = Clock::now();
    if (hook) {
      ScopedSpan s(spans, "probes", trial_span.id());
      hook(i, trial, *exp, s.id());
    }
    const auto t4 = Clock::now();
    {
      ScopedSpan s(spans, "core.teardown", trial_span.id());
      exp.reset();
    }
    const auto t5 = Clock::now();
    tt.construct_s = seconds_between(t0, t1);
    tt.run_s = seconds_between(t1, t2);
    tt.collect_s = seconds_between(t2, t3);
    tt.teardown_s = seconds_between(t4, t5);
    out.times.push_back(tt);
  }
  return out;
}

double time_setup(const Apps& apps, const Trial& trial, int count) {
  double total = 0.0;
  for (int i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    const core::Experiment exp(apps.driver(trial.app), trial.spec, trial.cal);
    total += seconds_since(t0);
  }
  return total / count;
}

double PassResult::wall_s() const {
  double s = 0.0;
  for (const TrialTimes& t : times) s += t.construct_s + t.run_s + t.collect_s + t.teardown_s;
  return s;
}

double PassResult::setup_s() const {
  double s = 0.0;
  for (const TrialTimes& t : times) s += t.construct_s;
  return s;
}

double PassResult::run_s() const {
  double s = 0.0;
  for (const TrialTimes& t : times) s += t.run_s;
  return s;
}

double PassResult::collect_s() const {
  double s = 0.0;
  for (const TrialTimes& t : times) s += t.collect_s;
  return s;
}

std::uint64_t PassResult::pages_completed() const {
  std::uint64_t n = 0;
  for (const TrialOutput& o : outputs) n += o.completed;
  return n;
}

std::uint64_t PassResult::pages_issued() const {
  std::uint64_t n = 0;
  for (const TrialOutput& o : outputs) n += o.issued;
  return n;
}

std::uint64_t PassResult::pages_failed() const {
  std::uint64_t n = 0;
  for (const TrialOutput& o : outputs) n += o.failures + o.rejections;
  return n;
}

void check_paper_tables(const Apps& apps, CheckLog& log) {
  for (const paper::Table* t : {&paper::petstore(), &paper::rubis()}) {
    log.expect(apps.driver(t->app).name == t->app, t->app + ": no such application driver");
    log.expect(apps.driver(t->app).table_pages == t->pages,
               t->app + ": paper table pages differ from AppDriver::table_pages");
    for (const auto& row : t->rows) {
      log.expect(row.size() == t->pages.size(), t->app + ": paper table row has the wrong width");
    }
  }
}

void check_pass(const Workload& wl, const PassResult& pass, CheckLog& log) {
  const std::string seed = " (seed " + std::to_string(pass.seed) + ")";
  for (const TrialOutput& o : pass.outputs) {
    const std::string name = o.app + " L" + std::to_string(o.level) + seed;
    log.expect(o.issued == o.samples + o.failures + o.rejections + o.discarded + o.in_flight,
               name + ": issued != samples + failures + rejections + discarded + in_flight");
    log.expect(o.failures == 0, name + ": " + std::to_string(o.failures) + " failed pages");
    log.expect(o.rejections == 0, name + ": " + std::to_string(o.rejections) + " refused pages");
    log.expect(o.completed > 0, name + ": no page completed");
  }
  if (wl.name == "paper_ladder") {
    for (const TrialOutput& o : pass.outputs) check_every_cell_sampled(o, log);
    check_ladder_shape(pass, log);
  } else if (wl.name == "wide_fanout") {
    check_every_cell_sampled(pass.outputs.front(), log);
    check_fanout_shape(pass.outputs.front(), log);
  } else if (wl.name == "million_sessions") {
    check_sessions_shape(wl.trials.front(), pass.outputs.front(), log);
  }
}

std::uint64_t digest(const PassResult& pass) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const TrialOutput& o : pass.outputs) {
    for (char c : o.app) fnv(h, static_cast<unsigned char>(c));
    fnv(h, static_cast<std::uint64_t>(o.level));
    for (const paper::Cell& c : o.means) {
      fnv(h, std::bit_cast<std::uint64_t>(c.local));
      fnv(h, std::bit_cast<std::uint64_t>(c.remote));
    }
    for (const auto& [l, r] : o.counts) {
      fnv(h, l);
      fnv(h, r);
    }
    for (std::uint64_t v : {o.issued, o.completed, o.in_flight, o.samples, o.failures,
                            o.rejections, o.discarded, o.sessions_started, o.events,
                            o.fsm_peak}) {
      fnv(h, v);
    }
  }
  return h;
}

double paper_mae_ms(const PassResult& pass) {
  double sum = 0.0;
  std::size_t cells = 0;
  for (const TrialOutput& o : pass.outputs) {
    const auto& row = paper::table_for(o.app).rows.at(static_cast<std::size_t>(o.level - 1));
    for (std::size_t k = 0; k < o.means.size(); ++k) {
      if (o.counts[k].first > 0 && !paper::excluded(o.level, row[k], false)) {
        sum += std::abs(o.means[k].local - row[k].local);
        ++cells;
      }
      if (o.counts[k].second > 0 && !paper::excluded(o.level, row[k], true)) {
        sum += std::abs(o.means[k].remote - row[k].remote);
        ++cells;
      }
    }
  }
  return cells == 0 ? 0.0 : sum / static_cast<double>(cells);
}

}  // namespace perfbench
