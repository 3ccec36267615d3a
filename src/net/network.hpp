#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "net/flowcontrol.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace mutsvc::net {

class FaultInjector;

/// Moves messages across the topology.
///
/// Per directed link a message first queues at the link's FIFO serializer
/// (transmission time = size / bandwidth) and then experiences the link's
/// propagation latency; consecutive hops are traversed store-and-forward,
/// with a small per-hop router overhead (the Click router of Figure 2).
class Network {
 public:
  Network(sim::Simulator& sim, Topology& topo, sim::Duration per_hop_overhead = sim::us(50))
      : sim_(sim), topo_(topo), per_hop_overhead_(per_hop_overhead) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Delivers one message; completes when the last byte arrives at `to`.
  /// Throws NoRouteError before any traffic is generated when no live route
  /// exists, and DeliveryError (after the time spent up to the losing hop)
  /// when the fault injector drops the message.
  [[nodiscard]] sim::Task<void> deliver(NodeId from, NodeId to, Bytes size);

  /// Installs a fault injector consulted per hop for message loss and
  /// latency jitter. Null detaches it. The injector must outlive all
  /// in-flight deliveries.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  [[nodiscard]] FaultInjector* fault_injector() const { return faults_; }

  /// Round-trip propagation latency between two nodes (no queueing).
  [[nodiscard]] sim::Duration rtt(NodeId a, NodeId b) { return topo_.rtt(a, b); }

  [[nodiscard]] Topology& topology() { return topo_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  // --- accounting ---------------------------------------------------------
  // A message counts as "sent" only once a live route was resolved (a send
  // that throws NoRouteError generated no traffic). Lost messages DID
  // occupy the wire up to the losing hop, so they stay in messages_sent and
  // are additionally counted in messages_lost.
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t wan_messages_sent() const { return wan_messages_; }
  [[nodiscard]] Bytes bytes_sent() const { return bytes_; }
  [[nodiscard]] Bytes wan_bytes_sent() const { return wan_bytes_; }
  [[nodiscard]] std::uint64_t messages_lost() const { return messages_lost_; }
  [[nodiscard]] Bytes bytes_lost() const { return bytes_lost_; }
  void reset_counters() {
    messages_ = wan_messages_ = messages_lost_ = 0;
    bytes_ = wan_bytes_ = bytes_lost_ = 0;
  }

  /// A link is "WAN" if its propagation latency passes this threshold;
  /// used for accounting (tests assert WAN-crossing counts per page) and for
  /// selecting which links the WAN rate limit applies to.
  void set_wan_threshold(sim::Duration d) { wan_threshold_ = d; }
  [[nodiscard]] sim::Duration wan_threshold() const { return wan_threshold_; }

  /// Installs a per-directed-WAN-link byte shaper (flow control §3):
  /// messages entering a WAN link beyond `rate_bps` (burst allowance
  /// `burst_bytes`) are delayed to the conforming rate before they reach
  /// the link serializer. Limiters are created lazily per link, keyed by
  /// (from, to).
  void set_wan_rate_limit(double rate_bps, Bytes burst_bytes);

  [[nodiscard]] std::uint64_t wan_throttled() const { return wan_throttled_; }
  [[nodiscard]] sim::Duration wan_throttle_time() const { return wan_throttle_; }

 private:
  [[nodiscard]] RateLimiter& wan_limiter(const Link& link);

  sim::Simulator& sim_;
  Topology& topo_;
  sim::Duration per_hop_overhead_;
  sim::Duration wan_threshold_ = sim::ms(10);
  FaultInjector* faults_ = nullptr;
  double wan_rate_bps_ = 0.0;  // 0 = no WAN shaping (the default)
  Bytes wan_burst_bytes_ = 0;
  std::map<std::pair<std::uint32_t, std::uint32_t>, RateLimiter> wan_limiters_;
  std::uint64_t wan_throttled_ = 0;
  sim::Duration wan_throttle_;
  std::uint64_t messages_ = 0;
  std::uint64_t wan_messages_ = 0;
  std::uint64_t messages_lost_ = 0;
  Bytes bytes_ = 0;
  Bytes wan_bytes_ = 0;
  Bytes bytes_lost_ = 0;
};

}  // namespace mutsvc::net
