#include "net/faults.hpp"

#include <algorithm>

namespace mutsvc::net {

FaultInjector::FaultInjector(sim::Simulator& sim, Topology& topo, FaultPlan plan)
    : sim_(sim),
      topo_(topo),
      plan_(std::move(plan)),
      loss_rng_(sim::Rng::named_seed(sim.seed(), "fault-loss")),
      jitter_rng_(sim::Rng::named_seed(sim.seed(), "fault-jitter")),
      flap_rng_(sim::Rng::named_seed(sim.seed(), "fault-flap")) {}

double FaultInjector::loss_prob_for(const Link& link) const {
  for (const auto& o : plan_.link_loss) {
    if ((o.a == link.from && o.b == link.to) || (o.a == link.to && o.b == link.from)) {
      return o.prob;
    }
  }
  return plan_.loss_prob;
}

bool FaultInjector::lose_message(const Link& link) {
  const double p = loss_prob_for(link);
  return p > 0.0 && loss_rng_.bernoulli(p);
}

sim::Duration FaultInjector::jitter(const Link& link) {
  (void)link;
  if (plan_.jitter == JitterKind::kNone || plan_.jitter_mean <= sim::Duration::zero()) {
    return sim::Duration::zero();
  }
  if (plan_.jitter == JitterKind::kUniform) {
    return sim::Duration::seconds(
        jitter_rng_.uniform(0.0, 2.0 * plan_.jitter_mean.as_seconds()));
  }
  return jitter_rng_.exponential(plan_.jitter_mean);
}

void FaultInjector::set_partition(const std::vector<NodeId>& members, bool cut) {
  auto inside = [&](NodeId n) {
    return std::find(members.begin(), members.end(), n) != members.end();
  };
  for (Link* l : topo_.all_links()) {
    if (inside(l->from) != inside(l->to)) l->up = !cut;
  }
  topo_.invalidate_routes();
}

sim::Task<void> FaultInjector::random_flapper() {
  const sim::SimTime until = sim::SimTime::origin() + plan_.random_flap_until;
  const double mean_gap = 1.0 / plan_.random_flap_rate_per_sec;
  while (true) {
    co_await sim_.wait(sim::Duration::seconds(flap_rng_.exponential(mean_gap)));
    if (sim_.now() >= until) co_return;
    // Pick a duplex pair: directed links are created in adjacent pairs.
    std::vector<Link*> links = topo_.all_links();
    if (links.empty()) co_return;
    const auto pair_count = static_cast<std::int64_t>(links.size() / 2);
    Link* l = links[static_cast<std::size_t>(flap_rng_.uniform_int(0, pair_count - 1)) * 2];
    const NodeId a = l->from;
    const NodeId b = l->to;
    ++random_flaps_;
    topo_.set_link_state(a, b, false);
    const sim::Duration down = flap_rng_.exponential(plan_.random_flap_mean_down);
    sim_.schedule_after(down, [this, a, b] { topo_.set_link_state(a, b, true); });
  }
}

void FaultInjector::arm() {
  const sim::SimTime origin = sim::SimTime::origin();
  for (const FaultPlan::LinkFlap& f : plan_.flaps) {
    sim_.schedule_at(origin + f.down_at, [this, f] {
      ++flaps_;
      topo_.set_link_state(f.a, f.b, false);
    });
    sim_.schedule_at(origin + f.down_at + f.down_for,
                     [this, f] { topo_.set_link_state(f.a, f.b, true); });
  }
  for (const FaultPlan::NodeCrash& c : plan_.crashes) {
    sim_.schedule_at(origin + c.crash_at, [this, c] {
      ++crashes_;
      topo_.set_node_state(c.node, false);
    });
    sim_.schedule_at(origin + c.crash_at + c.down_for, [this, c] {
      ++restarts_;
      topo_.set_node_state(c.node, true);
      // The restarted server comes back with cold caches: whoever owns the
      // cached state (the component runtime) drops it here.
      if (on_restart_) on_restart_(c.node);
    });
  }
  for (const FaultPlan::Partition& p : plan_.partitions) {
    sim_.schedule_at(origin + p.start_at, [this, p] {
      ++partitions_;
      set_partition(p.members, true);
    });
    sim_.schedule_at(origin + p.start_at + p.heal_after,
                     [this, p] { set_partition(p.members, false); });
  }
  if (plan_.random_flap_rate_per_sec > 0.0 &&
      plan_.random_flap_until > sim::Duration::zero()) {
    sim_.spawn(random_flapper());
  }
}

}  // namespace mutsvc::net
