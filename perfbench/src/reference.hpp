#pragma once

// Host-speed reference for the end-to-end host times.
//
// The benchmark runs on shared hosts whose speed drifts in regimes of tens
// of seconds to tens of minutes, by up to 2x, and the guest has neither
// hardware counters nor a way to subtract other tenants' load. So the
// timed passes are interleaved with runs of a fixed kernel that shares no
// code with the library, and host times are reported in units of it. The
// kernel is core-bound, as the simulator is: binary-heap event scheduling,
// hash-table updates and small allocations over a few MiB, then random
// dispatch over a thousand distinct small functions, which loads the
// instruction cache and branch predictors as a large program does. Its
// output is checked on every run.

#include <cstdint>

namespace perfbench {

class HostReference {
 public:
  /// Seconds one reference run is scaled to in the reported metrics: a
  /// scaled time reads as host seconds on a host that runs the reference
  /// in exactly this long.
  static constexpr double kNominalS = 0.1;

  HostReference();

  /// Host seconds of one full run of the kernel. Throws if its checksum
  /// differs from the first run's.
  double time_once();

 private:
  std::uint64_t run_kernel();

  std::uint64_t checksum_ = 0;
};

}  // namespace perfbench
