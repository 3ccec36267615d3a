#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "db/value.hpp"
#include "net/types.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "stats/collector.hpp"

namespace mutsvc::workload {

/// One page request a simulated client issues (a row of Tables 2–5).
struct PageRequest {
  std::string page;       // display name used in the results tables
  std::string pattern;    // service usage pattern: "Browser", "Buyer", "Bidder"
  std::string component;  // entry web component
  std::string method;
  std::vector<db::Value> args;
  net::Bytes request_bytes = 350;
  net::Bytes response_bytes = 6 * 1024;
  /// Deterministic per-session routing key, sticky across every page of a
  /// session (canary binding flips route whole sessions, never single
  /// pages). 0 = unkeyed; stamped by the load engine without consuming any
  /// RNG draws, so pre-placement trajectories are untouched.
  std::uint64_t session_key = 0;
};

/// How one page request ended, as the client sees it.
enum class RequestOutcome {
  kOk,        // page served
  kFailed,    // dropped after the harness exhausted its recovery options
  kRejected,  // refused up front by admission control (overload shedding)
};

/// Records one finished page in `collector` under its outcome — the
/// completion path of the load engine.
void record_page_outcome(stats::ResponseTimeCollector& collector, sim::SimTime now,
                         const PageRequest& req, stats::ClientGroup group,
                         RequestOutcome outcome, sim::Duration response_time);

/// How a page request actually reaches the service; implemented by the
/// experiment harness (HTTP + container runtime). Implementations must not
/// leak exceptions — an escaping exception kills the client task.
class RequestExecutor {
 public:
  virtual ~RequestExecutor() = default;
  [[nodiscard]] virtual sim::Task<RequestOutcome> execute(net::NodeId client_node,
                                                          const PageRequest& request) = 0;
};

struct LoadGenConfig {
  /// Soft inter-request DELAY (§3.3): the interval between *sending*
  /// requests, independent of response time.
  sim::Duration think_time = sim::sec(7);
  /// Pause between consecutive sessions of one simulated client.
  sim::Duration between_sessions = sim::sec(2);
};

/// How a client group's closed-loop fleet splits between the two session
/// kinds (§3.3: three client groups, 80% browsers, 20% buyers/bidders).
/// The *total* is rounded first and the writer share is carved out of it
/// (writers = total - browsers): rounding the two shares independently can
/// drift from round(rate * think) and lets a low-rate group round to zero
/// clients and silently offer no load — any positive rate gets at least
/// one client.
struct ClientSplit {
  int browsers = 0;
  int writers = 0;
  [[nodiscard]] int total() const { return browsers + writers; }
};

/// Sizes a group offering `requests_per_second` with one request per
/// `think_time` per client: round(rate * think_time) clients in total.
[[nodiscard]] ClientSplit split_clients(double requests_per_second, double browser_fraction,
                                        sim::Duration think_time);

}  // namespace mutsvc::workload
