#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>

namespace mutsvc::cache {

/// Tracks the master version of every entity and query result, and counts
/// how often edge reads observed stale state.
///
/// §4.3's blocking push promises *zero staleness* ("a read operation that
/// arrives after a previous write has committed will always read the
/// correct value"); §4.5 deliberately gives that up. This tracker turns the
/// claim into a measurable invariant: tests assert stale_reads() == 0 under
/// blocking push, and the staleness ablation bench quantifies the async
/// trade-off.
class ConsistencyTracker {
 public:
  /// Bumps and returns the master version for `key`
  /// (e.g. "Item:42" or a query cache key).
  std::uint64_t bump(const std::string& key) {
    const std::uint64_t v = allocate(key);
    advance_to(key, v);
    return v;
  }

  /// Reserves the next version for `key` without advancing the readable
  /// master. Concurrent transactions affecting the same key each get a
  /// distinct, monotonically increasing version — the propagation protocol
  /// installs them at replicas first and only then advances the master
  /// (advance_to), which is what makes blocking push zero-staleness even
  /// under write-write concurrency on a shared query key.
  std::uint64_t allocate(const std::string& key) {
    std::uint64_t& a = allocated_[key];
    a = std::max(a, master_version(key)) + 1;
    return a;
  }

  /// Advances the readable master version to at least `v`.
  void advance_to(const std::string& key, std::uint64_t v) {
    std::uint64_t& m = versions_[key];
    m = std::max(m, v);
    // Reclaim the allocation entry once the master has caught up with every
    // version handed out for this key: allocate() re-derives from the master,
    // so the entry only needs to outlive in-flight transactions.
    auto it = allocated_.find(key);
    if (it != allocated_.end() && it->second <= m) allocated_.erase(it);
  }

  /// Keys with a version allocated but not yet advanced to (in-flight
  /// transactions). Bounded by concurrency, not by keys ever written.
  [[nodiscard]] std::size_t pending_allocations() const { return allocated_.size(); }

  [[nodiscard]] std::uint64_t master_version(const std::string& key) const {
    auto it = versions_.find(key);
    return it == versions_.end() ? 0 : it->second;
  }

  /// Records that a read observed `seen_version` for `key`, judged against
  /// the current master version.
  void observe_read(const std::string& key, std::uint64_t seen_version) {
    observe_read_against(seen_version, master_version(key));
  }

  /// Records a read judged against `master`, the master version when the
  /// read was served. A read the primary serves is judged there: a write
  /// that commits while its reply is still on the wire is concurrent with
  /// the read, and §4.3 only promises that a read arriving *after* a
  /// commit sees it.
  void observe_read_against(std::uint64_t seen_version, std::uint64_t master) {
    ++reads_;
    if (seen_version < master) {
      ++stale_reads_;
      lag_sum_ += master - seen_version;
    }
  }

  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t stale_reads() const { return stale_reads_; }

  [[nodiscard]] double stale_fraction() const {
    return reads_ == 0 ? 0.0 : static_cast<double>(stale_reads_) / static_cast<double>(reads_);
  }

  /// Mean number of versions a stale read lagged behind the master.
  [[nodiscard]] double mean_version_lag() const {
    return stale_reads_ == 0 ? 0.0
                             : static_cast<double>(lag_sum_) / static_cast<double>(stale_reads_);
  }

  void reset_read_stats() {
    reads_ = 0;
    stale_reads_ = 0;
    lag_sum_ = 0;
  }

 private:
  std::unordered_map<std::string, std::uint64_t> versions_;
  std::unordered_map<std::string, std::uint64_t> allocated_;
  std::uint64_t reads_ = 0;
  std::uint64_t stale_reads_ = 0;
  std::uint64_t lag_sum_ = 0;
};

}  // namespace mutsvc::cache
