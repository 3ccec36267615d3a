#pragma once

// Per-layer measurement for the traced run: counts read from each layer's
// public accessors after a trial, and probes that time one public call of a
// layer on the trial's own post-run state and inputs.

#include <array>
#include <cstdint>

#include "component/trace.hpp"
#include "study.hpp"

namespace perfbench {

/// Host time spent in `calls` calls of one probed public function.
struct ProbeTime {
  double seconds = 0.0;
  std::uint64_t calls = 0;

  void add(double s, std::uint64_t n) {
    seconds += s;
    calls += n;
  }
  /// Mean host nanoseconds per call (0 when the probe never ran).
  [[nodiscard]] double ns() const {
    return calls == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(calls);
  }
};

/// Layer counters summed over a workload's trials.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t pages = 0;  // completed page requests
  std::uint64_t messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t wan_bytes = 0;
  std::uint64_t rmi_calls = 0;
  std::uint64_t rmi_remote_calls = 0;
  std::uint64_t stub_exchanges = 0;
  std::uint64_t component_calls = 0;
  std::uint64_t blocking_pushes = 0;
  std::uint64_t async_publishes = 0;
  std::uint64_t jdbc_statements = 0;
  std::uint64_t fetch_round_trips = 0;
  std::uint64_t db_queries = 0;
  std::uint64_t db_rows = 0;
  std::uint64_t ro_hits = 0;
  std::uint64_t ro_misses = 0;
  std::uint64_t query_hits = 0;
  std::uint64_t query_misses = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t requests_issued = 0;
  std::uint64_t sessions_started = 0;
  std::uint64_t fsm_sessions = 0;
  std::uint64_t fsm_arena_bytes = 0;
  std::uint64_t samples = 0;
  std::uint64_t failures = 0;
  std::uint64_t rejections = 0;
};

constexpr std::size_t kSpanKinds = static_cast<std::size_t>(mutsvc::comp::SpanKind::kCount_);

struct LayerProbes {
  ProbeTime testbed;     // core::build_testbed
  ProbeTime install_db;  // AppDriver::install_database
  ProbeTime path;        // net::Topology::path
  ProbeTime deliver;     // net::Network::deliver
  ProbeTime page;        // core::Experiment::execute_traced
  ProbeTime pk;          // db::Database::execute_immediate, primary-key lookup
  ProbeTime finder;      // ... finder
  ProbeTime aggregate;   // ... aggregate (Pet Store: its keyword search)
  ProbeTime ro_get;      // cache::ReadOnlyCache::get
  ProbeTime query_get;   // cache::QueryCache::get
  ProbeTime fire;        // workload::SessionFsmEngine, per issued request
  /// Simulated ms per span kind, summed over the traced probe pages.
  std::array<double, kSpanKinds> trace_ms{};
  std::uint64_t traced_pages = 0;
};

/// Reads every layer counter of a finished trial (before any probe runs).
void read_counts(const Trial& trial, mutsvc::core::Experiment& exp, LayerCounts& out);

/// Drains the trial's simulator and times each layer probe `repeat` times
/// on its post-run state, one span per probe under `parent`. Traced pages
/// get one span (and trace id) each; their span sums must equal their
/// response times exactly.
void probe_trial(const Apps& apps, const Trial& trial, mutsvc::core::Experiment& exp,
                 std::uint64_t seed, int repeat, SpanLog& spans, std::uint64_t parent,
                 LayerProbes& out, CheckLog& log);

/// Times the FSM session engine alone over the workload's first
/// application's script models, against an executor that completes every
/// request instantly. A no-op for applications without FSM models.
void probe_engine(const Apps& apps, const Workload& wl, std::uint64_t seed, SpanLog& spans,
                  LayerProbes& out);

}  // namespace perfbench
