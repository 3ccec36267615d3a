#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace simlint {

/// One lint finding, anchored to a file/line.
struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string name;
  std::string summary;
};

/// The determinism / coroutine-hazard rules (token/heuristic based, no
/// compiler dependency):
///
///  wall-clock      wall-clock time sources (system_clock, gettimeofday, ...)
///                  outside sim/time.hpp — simulated time must come from the
///                  Simulator, or runs stop being reproducible.
///  raw-random      ad-hoc randomness (std::random_device, rand(), mt19937,
///                  std::*_distribution) outside sim/random.hpp — every
///                  draw must come from a named, seeded sim::Rng.
///  unordered-iter  iteration over a container declared as unordered_map /
///                  unordered_set — iteration order is unspecified and can
///                  leak into results.
///  lost-task       a sim::Task<...> variable that is never co_awaited,
///                  moved, released, or spawned — lazy tasks that are
///                  dropped silently never run.
///  lock-balance    a file with .acquire( calls and no release( at all —
///                  a lock taken on some path and released on none.
///  nodiscard-task  a Task-returning function declaration without
///                  [[nodiscard]] — discarding a lazy task is the lost-task
///                  bug at the call site.
///  sim-shared-across-threads
///                  std::thread / std::jthread in a file that also names
///                  sim::Simulator — the kernel is single-threaded; the only
///                  sanctioned crossing is core/sweep.cpp, which gives each
///                  worker thread a whole trial (its own Simulator).
///  cross-node-state
///                  direct subscript / member call on a node-keyed state
///                  container (identifiers ending caches_/clients_/queues_)
///                  in component/cache/db code — reaching another node's
///                  object must go through the node-checked accessors or a
///                  net::Network / msg::Topic edge, which charges the wire
///                  time a cross-node access costs in the model.
///  ambient-node-capture
///                  deferred work (spawn / schedule_at / schedule_after /
///                  subscribe) whose lambda default-captures by reference
///                  ([&]) in src/ — ambient references smuggled into events
///                  that may run on another node's timeline.
///  global-mutable  namespace-scope mutable state in src/ outside sim/ —
///                  shared across trials and sweep worker threads, breaking
///                  trial isolation (const/constexpr/types/functions are
///                  skipped; scoping uses a brace-kind stack).
///
/// Suppressions: `// simlint:allow(rule1,rule2)` on the finding's line or
/// the line directly above suppresses those rules there;
/// `// simlint:allow-file(rule)` anywhere suppresses a rule for the whole
/// file.
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// Lints one in-memory translation unit. `path` participates in path-based
/// exemptions (sim/random.hpp, sim/time.hpp) and is echoed in findings.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& path,
                                               const std::string& source);

/// Lints one file on disk.
[[nodiscard]] std::vector<Finding> lint_file(const std::string& path);

/// Lints files and directories (recursing into .hpp/.h/.cpp/.cc files).
[[nodiscard]] std::vector<Finding> lint_paths(const std::vector<std::string>& paths);

/// "file:line: [rule] message" per finding.
void print_text(std::ostream& os, const std::vector<Finding>& findings);

/// Machine-readable report (schema "simlint-v2"): an object
/// {"schema": "simlint-v2", "findings": [{file, line, rule, message}, ...]}.
void print_json(std::ostream& os, const std::vector<Finding>& findings);

/// Dry-run suppression helper: for each finding prints the source line (read
/// from disk) and the same line with the exact trailing
/// `// simlint:allow(rule, ...)` comment to paste, merging rules that hit
/// the same line. Nothing is modified.
void print_fix_suppressions(std::ostream& os, const std::vector<Finding>& findings);

}  // namespace simlint
