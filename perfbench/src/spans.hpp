#pragma once

// Host clock and the benchmark's own span recorder.
//
// Every host-time number the benchmark reports is read from this file's
// clock, around calls into the library's public API. Spans (name, start,
// end, parent, trace id) are kept in memory and written out once, after
// the measurement has finished.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

/// CPU time of the calling thread. A study runs on one thread and does no
/// I/O, so this is its wall time less the time the thread waited for a CPU,
/// whether behind other threads of the guest or, through the kernel's
/// steal-time accounting, behind other guests of the host.
struct ThreadCpuClock {
  using rep = std::int64_t;
  using period = std::nano;
  using duration = std::chrono::nanoseconds;
  using time_point = std::chrono::time_point<ThreadCpuClock>;
  static constexpr bool is_steady = true;

  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(duration(std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec));
  }
};

/// The clock of every host time the benchmark reports.
using Clock = ThreadCpuClock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct HostSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t trace = 0;   // one id per probed page (0 = not a page probe)
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span log. A disabled log records nothing and returns id 0, so
/// the untraced passes pay one branch per boundary.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  std::uint64_t begin(std::string name, std::uint64_t parent = 0, std::uint64_t trace = 0) {
    if (!enabled_) return 0;
    const auto now = Clock::now();
    spans_.push_back(HostSpan{spans_.size() + 1, parent, trace, std::move(name), now, now});
    return spans_.size();
  }

  void end(std::uint64_t id) {
    if (id != 0) spans_[id - 1].end = Clock::now();
  }

  [[nodiscard]] const std::vector<HostSpan>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds since the
  /// log was created); loads in chrome://tracing and Perfetto.
  void write_chrome_json(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const HostSpan& s = spans_[i];
      const double ts = seconds_between(origin_, s.start) * 1e6;
      const double dur = seconds_between(s.start, s.end) * 1e6;
      os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
         << "\"tid\":1,\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{\"id\":" << s.id
         << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace << "}}";
    }
    os << "\n]}\n";
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<HostSpan> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t parent = 0, std::uint64_t trace = 0)
      : log_(log), id_(log.begin(std::move(name), parent, trace)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

}  // namespace perfbench
