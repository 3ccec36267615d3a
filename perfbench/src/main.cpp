// perfbench: the repository benchmark.
//
//   perfbench --workload <paper_ladder|wide_fanout|million_sessions>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs one unrecorded warm-up pass, then repeats serial study
// passes of the workload for about --seconds real seconds and reports the
// end-to-end metrics (trimmed means over passes). Host times are CPU time
// of the study thread, scaled to the host reference's nominal speed by the
// reference runs made between the passes (reference.hpp).
// --trace 1 alternates untraced and traced passes after the warm-up,
// probes every layer on the first traced pass, and reports the per-layer
// metrics in unscaled CPU time; its spans are written out when the run
// ends. Both modes check the simulated outputs of every pass and of one
// held-out seed, print a digest of them, and end with one JSON line; any
// failed check makes the exit code 1.
//
// Spans go to .bench_out/spans-<workload>-<seed>.json. Test-only knobs:
// --sim-seconds, --edges, --probe-repeat. --seconds 0 runs one timed pass.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "probes.hpp"
#include "reference.hpp"
#include "study.hpp"

namespace {

using namespace perfbench;
namespace comp = mutsvc::comp;

/// The time budget of a run is real time.
using WallClock = std::chrono::steady_clock;

/// Library settings that change how (or how parallel) a run executes.
/// Timed runs refuse them rather than measure a different program.
constexpr const char* kRefusedEnv[] = {"MUTSVC_FAST", "MUTSVC_JOBS", "MUTSVC_PAR_DOMAINS",
                                       "MUTSVC_SIMCHECK", "MUTSVC_SIMRACE"};

/// Seed of the held-out pass, apart from the seeds the workloads were
/// sized with.
constexpr std::uint64_t kHeldOutSeed = 20030519;

/// Set-up-only samples per trial after every pass: setup_s sums each
/// trial's trimmed mean sample, taken across the whole run. A sample is the
/// mean of enough constructions to cover about kSetupSampleS host seconds,
/// so a sub-millisecond construction does not rest on one timing per
/// sample.
constexpr int kSetupPerPass = 10;
constexpr double kSetupSampleS = 0.002;
constexpr int kMaxSetupBatch = 64;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sizing sizing;
  int probe_repeat = 3;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <paper_ladder|wide_fanout|million_sessions> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument '" + key + "'");
    args[key.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [k, v] : args) {
      if (k == "workload") {
        o.workload = v;
      } else if (k == "seed") {
        o.seed = std::stoull(v);
      } else if (k == "seconds") {
        o.seconds = std::stod(v);
      } else if (k == "trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (k == "sim-seconds") {
        o.sizing.sim_seconds = std::stod(v);
      } else if (k == "edges") {
        o.sizing.edges = std::stoul(v);
      } else if (k == "probe-repeat") {
        o.probe_repeat = std::max(1, std::stoi(v));
      } else {
        usage("unknown option --" + k);
      }
    }
  } catch (const std::logic_error&) {
    usage("unparsable option value");
  }
  if (!is_workload(o.workload)) usage("unknown workload '" + o.workload + "'");
  return o;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of `v` without its lowest and highest fifth: steadier than the
/// median over the dozen passes of a run, and still proof against a stray
/// pass.
double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 5;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

template <class Fn>
double trimmed_mean_of(const std::vector<PassResult>& passes, Fn&& fn) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(fn(p));
  return trimmed_mean(std::move(v));
}

template <class Fn>
double median_of(const std::vector<PassResult>& passes, Fn&& fn) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(fn(p));
  return median(v);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Runs `one_pass` while the run (counted from `start`) still has room for
/// one more iteration plus the held-out pass, so a run lasts about
/// opt.seconds in all. Always runs at least once.
template <class PassFn>
void run_passes(const Options& opt, WallClock::time_point start, PassFn&& one_pass) {
  const auto since = [](WallClock::time_point t) {
    return std::chrono::duration<double>(WallClock::now() - t).count();
  };
  const auto first = WallClock::now();
  for (int n = 1;; ++n) {
    one_pass();
    const double per_iteration = since(first) / n;
    if (since(start) + 2.0 * per_iteration > opt.seconds) return;
  }
}

void check_passes(const Workload& wl, const std::vector<PassResult>& passes, CheckLog& log) {
  for (const PassResult& p : passes) {
    check_pass(wl, p, log);
    log.expect(digest(p) == digest(passes.front()),
               "passes with the same seed produced different simulated outputs");
  }
}

std::vector<Metric> layer_metrics(const Workload& wl, const LayerCounts& c,
                                  const LayerProbes& p, const std::vector<PassResult>& traced,
                                  const std::vector<PassResult>& plain, double setup_s) {
  const double run_s = median_of(traced, [](const PassResult& r) { return r.run_s(); });
  const double probed_run_s = traced.front().run_s();
  const double trials = static_cast<double>(wl.trials.size());
  const double events = static_cast<double>(c.events);
  const double bytes_per_session =
      ratio(static_cast<double>(c.fsm_arena_bytes), static_cast<double>(c.fsm_sessions));
  const double db_ns = (p.pk.ns() + p.finder.ns() + p.aggregate.ns()) / 3.0;

  // Probe ns x the run's public call counts: how much of core.run_s the
  // probed functions account for. The rest is printed as unexplained.
  const std::vector<std::pair<std::string, double>> explained = {
      {"net (deliver x messages)", p.deliver.ns() * static_cast<double>(c.messages) * 1e-9},
      {"db (mean probe x queries)", db_ns * static_cast<double>(c.db_queries) * 1e-9},
      {"cache (get x lookups)",
       (p.ro_get.ns() * static_cast<double>(c.ro_hits + c.ro_misses) +
        p.query_get.ns() * static_cast<double>(c.query_hits + c.query_misses)) *
           1e-9},
      {"workload (fire x requests)",
       c.fsm_sessions > 0 ? p.fire.ns() * static_cast<double>(c.requests_issued) * 1e-9 : 0.0},
  };
  double explained_s = 0.0;
  std::cout << "layer account of core.run_s = " << probed_run_s << " s (probed pass):\n";
  for (const auto& [name, s] : explained) {
    explained_s += s;
    std::cout << "  " << name << ": " << s << " s (" << 100.0 * ratio(s, probed_run_s)
              << "%)\n";
  }
  std::cout << "  unexplained: " << probed_run_s - explained_s << " s ("
            << 100.0 * ratio(probed_run_s - explained_s, probed_run_s) << "%)\n";

  std::vector<Metric> m = {
      {"sim.events", events, "count"},
      {"sim.events_per_page", ratio(events, static_cast<double>(c.pages)), "count"},
      {"sim.event_ns", ratio(probed_run_s * 1e9, events), "ns"},
      {"net.path_ns", p.path.ns(), "ns"},
      {"net.deliver_ns", p.deliver.ns(), "ns"},
      {"net.bytes", static_cast<double>(c.net_bytes), "B"},
      {"net.wan_bytes", static_cast<double>(c.wan_bytes), "B"},
      {"net.rmi_calls", static_cast<double>(c.rmi_calls), "count"},
      {"net.rmi_remote_calls", static_cast<double>(c.rmi_remote_calls), "count"},
      {"net.stub_exchanges", static_cast<double>(c.stub_exchanges), "count"},
      {"component.page_ns", p.page.ns(), "ns"},
      {"component.calls", static_cast<double>(c.component_calls), "count"},
      {"component.blocking_pushes", static_cast<double>(c.blocking_pushes), "count"},
      {"component.async_publishes", static_cast<double>(c.async_publishes), "count"},
      {"db.pk_lookup_ns", p.pk.ns(), "ns"},
      {"db.finder_ns", p.finder.ns(), "ns"},
      {"db.aggregate_ns", p.aggregate.ns(), "ns"},
      {"db.jdbc_statements", static_cast<double>(c.jdbc_statements), "count"},
      {"db.fetch_round_trips", static_cast<double>(c.fetch_round_trips), "count"},
      {"db.rows", static_cast<double>(c.db_rows), "count"},
      {"cache.ro_get_ns", p.ro_get.ns(), "ns"},
      {"cache.query_get_ns", p.query_get.ns(), "ns"},
      {"cache.ro_hit_ratio",
       ratio(static_cast<double>(c.ro_hits), static_cast<double>(c.ro_hits + c.ro_misses)),
       "ratio"},
      {"cache.query_hit_ratio",
       ratio(static_cast<double>(c.query_hits),
             static_cast<double>(c.query_hits + c.query_misses)),
       "ratio"},
      {"messaging.published", static_cast<double>(c.published), "count"},
      {"messaging.delivered", static_cast<double>(c.delivered), "count"},
      {"workload.fire_ns", p.fire.ns(), "ns"},
      {"workload.requests_issued", static_cast<double>(c.requests_issued), "count"},
      {"workload.sessions_started", static_cast<double>(c.sessions_started), "count"},
      {"workload.bytes_per_session", bytes_per_session, "B"},
      {"core.testbed_s", p.testbed.ns() * 1e-9 * trials, "s"},
      {"apps.install_db_s", p.install_db.ns() * 1e-9 * trials, "s"},
      {"core.experiment_s", setup_s, "s"},
      {"core.run_s", run_s, "s"},
      {"core.collect_s", median_of(traced, [](const PassResult& r) { return r.collect_s(); }),
       "s"},
      {"stats.samples", static_cast<double>(c.samples), "count"},
      {"stats.failures", static_cast<double>(c.failures), "count"},
      {"stats.rejections", static_cast<double>(c.rejections), "count"},
  };
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    m.push_back({std::string("trace.") + mutsvc::stats::to_string(static_cast<comp::SpanKind>(k)) +
                     "_ms",
                 ratio(p.trace_ms[k], static_cast<double>(p.traced_pages)), "ms"});
  }
  m.push_back({"trace.overhead_s",
               run_s - median_of(plain, [](const PassResult& r) { return r.run_s(); }), "s"});
  m.push_back({"trace.explained_s", explained_s, "s"});
  m.push_back({"trace.unexplained_s", probed_run_s - explained_s, "s"});
  return m;
}

int run(const Options& opt) {
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "perfbench: refusing to measure with " << var << " set\n";
      return 2;
    }
  }
  std::cout << "perfbench: workload " << opt.workload << ", seed " << opt.seed << ", build "
            << PERFBENCH_BUILD_TYPE << ", trace " << (opt.trace ? 1 : 0) << "\n";

  const auto start = WallClock::now();
  const Apps apps;
  CheckLog log;
  check_paper_tables(apps, log);
  const Workload wl = make_workload(opt.workload, opt.seed, opt.sizing);

  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  SpanLog no_spans(false);
  SpanLog spans(opt.trace);
  // An unrecorded first pass, so that no timed pass (nor either side of the
  // tracing-overhead comparison) pays the process's first-pass costs. Peak
  // RSS is read right after it, before the host reference first runs, so
  // it depends neither on the reference's few MiB of allocations nor on how
  // many passes fit in the time budget.
  const PassResult warm = run_pass(apps, wl, no_spans);
  const double rss_mb = peak_rss_mb();

  // The host reference runs once before the first timed pass and once
  // after every iteration (its passes and set-up samples). `scale` turns
  // the run's host seconds into seconds at the reference's nominal speed.
  HostReference reference;
  std::vector<double> ref_s = {reference.time_once()};
  std::vector<std::vector<double>> setup_samples(wl.trials.size());
  std::vector<int> setup_batch(wl.trials.size(), 0);
  for (std::size_t t = 0; t < wl.trials.size(); ++t) {
    const double once = time_setup(apps, wl.trials[t], 1);
    setup_batch[t] = static_cast<int>(
        std::clamp(std::ceil(kSetupSampleS / once), 1.0, double{kMaxSetupBatch}));
  }
  const auto sample_setup = [&] {
    for (int r = 0; r < kSetupPerPass; ++r) {
      for (std::size_t t = 0; t < wl.trials.size(); ++t) {
        setup_samples[t].push_back(time_setup(apps, wl.trials[t], setup_batch[t]));
      }
    }
  };
  LayerCounts counts;
  LayerProbes probes;
  if (opt.trace) {
    const PostTrialHook probe_hook = [&](std::size_t i, const Trial& t,
                                         mutsvc::core::Experiment& exp, std::uint64_t parent) {
      read_counts(t, exp, counts);
      probe_trial(apps, t, exp, opt.seed + i, opt.probe_repeat, spans, parent, probes, log);
    };
    run_passes(opt, start, [&] {
      plain.push_back(run_pass(apps, wl, no_spans));
      sample_setup();
      traced.push_back(run_pass(apps, wl, spans, traced.empty() ? probe_hook : PostTrialHook{}));
      ref_s.push_back(reference.time_once());
    });
    probe_engine(apps, wl, opt.seed, spans, probes);
  } else {
    run_passes(opt, start, [&] {
      plain.push_back(run_pass(apps, wl, no_spans));
      sample_setup();
      ref_s.push_back(reference.time_once());
    });
  }
  const double scale = HostReference::kNominalS / trimmed_mean(ref_s);
  double setup_s = 0.0;  // unscaled
  for (const std::vector<double>& samples : setup_samples) setup_s += trimmed_mean(samples);

  check_pass(wl, warm, log);
  check_passes(wl, plain, log);
  if (!traced.empty()) {
    check_passes(wl, traced, log);
    log.expect(digest(traced.front()) == digest(plain.front()),
               "tracing changed the simulated outputs");
  }
  const std::uint64_t held_out = kHeldOutSeed == opt.seed ? kHeldOutSeed + 1 : kHeldOutSeed;
  const PassResult held = run_pass(apps, make_workload(opt.workload, held_out, opt.sizing),
                                   no_spans);
  check_pass(wl, held, log);

  std::uint64_t attempted = held.pages_issued() + warm.pages_issued();
  std::uint64_t failed = held.pages_failed() + warm.pages_failed();
  for (const auto* set : {&plain, &traced}) {
    for (const PassResult& p : *set) {
      attempted += p.pages_issued();
      failed += p.pages_failed();
    }
  }

  const PassResult& first = plain.front();
  std::uint64_t events = 0;
  for (const TrialOutput& o : first.outputs) events += o.events;
  std::printf("digest %s seed %llu: %016llx (events %llu, pages %llu)\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(digest(first)),
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(first.pages_completed()));
  std::printf("digest %s held-out seed %llu: %016llx\n", opt.workload.c_str(),
              static_cast<unsigned long long>(held_out),
              static_cast<unsigned long long>(digest(held)));
  for (std::size_t i = 0; i < plain.size(); ++i) {
    std::printf(
        "pass %zu: wall %.4f s, setup %.4f s, run %.4f s, collect %.6f s; reference %.4f s\n",
        i, plain[i].wall_s(), plain[i].setup_s(), plain[i].run_s(), plain[i].collect_s(),
        ref_s[i + 1]);
  }
  std::printf("reference: %.4f s (trimmed mean of %zu runs), scale %.4f\n",
              trimmed_mean(ref_s), ref_s.size(), scale);
  for (const std::string& f : log.failures) std::cout << "CHECK FAILED: " << f << "\n";

  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = layer_metrics(wl, counts, probes, traced, plain, setup_s);
    const std::string path =
        ".bench_out/spans-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
    std::filesystem::create_directories(".bench_out");
    spans.write_chrome_json(path);
    std::cout << "spans: " << spans.spans().size() << " written to " << path << "\n";
  } else {
    metrics = {
        {"wall_s",
         trimmed_mean_of(plain, [](const PassResult& p) { return p.wall_s(); }) * scale, "s"},
        {"setup_s", setup_s * scale, "s"},
        {"pages_per_s",
         trimmed_mean_of(plain,
                         [](const PassResult& p) {
                           return ratio(static_cast<double>(p.pages_completed()), p.run_s());
                         }) /
             scale,
         "1/s"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"paper_mae_ms", paper_mae_ms(first), "ms"},
    };
  }
  print_result(log.ok(), attempted, failed, metrics);
  return log.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
