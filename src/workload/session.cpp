#include "workload/session.hpp"

#include <algorithm>
#include <cmath>

namespace mutsvc::workload {

void record_page_outcome(stats::ResponseTimeCollector& collector, sim::SimTime now,
                         const PageRequest& req, stats::ClientGroup group,
                         RequestOutcome outcome, sim::Duration response_time) {
  switch (outcome) {
    case RequestOutcome::kOk:
      collector.record(now, req.page, req.pattern, group, response_time);
      break;
    case RequestOutcome::kFailed:
      collector.record_failure(now, req.page, req.pattern, group);
      break;
    case RequestOutcome::kRejected:
      collector.record_rejection(now, req.page, req.pattern, group);
      break;
  }
}

ClientSplit split_clients(double requests_per_second, double browser_fraction,
                          sim::Duration think_time) {
  // Each client issues ~1/think_time requests per second, so the group
  // needs round(rate*think_time) concurrent clients in total. Round the
  // total first, then carve the browser share out of it — see ClientSplit
  // for why the shares are not rounded independently.
  const double think_s = think_time.as_seconds();
  ClientSplit split;
  int total = static_cast<int>(std::lround(requests_per_second * think_s));
  if (total < 1 && requests_per_second > 0.0) total = 1;
  if (total == 1) {
    // A single client goes to whichever kind holds the majority share.
    split.browsers = browser_fraction >= 0.5 ? 1 : 0;
  } else {
    split.browsers = static_cast<int>(
        std::lround(requests_per_second * browser_fraction * think_s));
    split.browsers = std::clamp(split.browsers, 0, total);
  }
  split.writers = total - split.browsers;
  return split;
}

}  // namespace mutsvc::workload
