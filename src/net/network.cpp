#include "net/network.hpp"

#include "net/faults.hpp"

namespace mutsvc::net {

sim::Task<void> Network::deliver(NodeId from, NodeId to, Bytes size) {
  if (from == to) {  // loopback is free (and lossless: no link traversed)
    ++messages_;
    bytes_ += size;
    co_return;
  }
  // Resolve the route before touching any counter: a send with no live
  // route (NoRouteError) never put a byte on the wire.
  std::vector<Link*> route = topo_.path(from, to);
  ++messages_;
  bytes_ += size;

  bool crossed_wan = false;
  for (Link* link : route) {
    const bool is_wan = link->latency >= wan_threshold_;
    if (is_wan) crossed_wan = true;
    // WAN shaping (flow control §3): hold the message at the link ingress
    // until its bytes conform to the configured rate. The shaper commits
    // state up front, so concurrent senders serialize deterministically;
    // it draws no randomness, so the fault injector's stream is untouched.
    if (wan_rate_bps_ > 0.0 && is_wan) {
      const sim::Duration hold = wan_limiter(*link).reserve(sim_.now(), size);
      if (hold > sim::Duration::zero()) {
        ++wan_throttled_;
        wan_throttle_ += hold;
        co_await sim_.wait(hold);
      }
    }
    // Decide loss up front so the draw order is independent of queueing,
    // but surface it only after the would-be transmission time has passed:
    // a lost message still occupied the serializer and the pipe.
    const bool lost = faults_ != nullptr && faults_->lose_message(*link);
    co_await link->serializer->consume(link->transmission_time(size));
    sim::Duration hop_latency = link->latency + per_hop_overhead_;
    if (faults_ != nullptr) hop_latency += faults_->jitter(*link);
    co_await sim_.wait(hop_latency);
    if (lost) {
      ++messages_lost_;
      bytes_lost_ += size;
      throw DeliveryError("Network::deliver: message lost on link " +
                          topo_.node(link->from).name + "->" + topo_.node(link->to).name);
    }
  }
  if (crossed_wan) {
    ++wan_messages_;
    wan_bytes_ += size;
  }
}

void Network::set_wan_rate_limit(double rate_bps, Bytes burst_bytes) {
  wan_rate_bps_ = rate_bps;
  wan_burst_bytes_ = burst_bytes;
  wan_limiters_.clear();
}

RateLimiter& Network::wan_limiter(const Link& link) {
  const auto key = std::make_pair(link.from.value(), link.to.value());
  auto it = wan_limiters_.find(key);
  if (it == wan_limiters_.end()) {
    it = wan_limiters_.emplace(key, RateLimiter{wan_rate_bps_, wan_burst_bytes_}).first;
  }
  return it->second;
}

}  // namespace mutsvc::net
