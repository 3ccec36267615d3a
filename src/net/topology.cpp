#include "net/topology.hpp"

#include <cstdint>
#include <limits>

namespace mutsvc::net {

namespace {
constexpr std::uint32_t kNoHop = std::numeric_limits<std::uint32_t>::max();
}

NodeId Topology::add_node(std::string name, NodeRole role, std::size_t cpus) {
  NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  Node n;
  n.id = id;
  n.name = std::move(name);
  n.role = role;
  n.cpu = std::make_unique<sim::FifoResource>(sim_, cpus, n.name + ".cpu");
  nodes_.push_back(std::move(n));
  routes_valid_ = false;
  return id;
}

void Topology::add_link(NodeId a, NodeId b, sim::Duration latency, double bandwidth_bps) {
  auto make = [&](NodeId f, NodeId t) {
    auto l = std::make_unique<Link>();
    l->from = f;
    l->to = t;
    l->latency = latency;
    l->bandwidth_bps = bandwidth_bps;
    l->serializer = std::make_unique<sim::FifoResource>(
        sim_, 1, node(f).name + "->" + node(t).name + ".link");
    links_.push_back(std::move(l));
  };
  make(a, b);
  make(b, a);
  routes_valid_ = false;
}

std::vector<Link*> Topology::all_links() {
  std::vector<Link*> out;
  out.reserve(links_.size());
  for (const auto& l : links_) out.push_back(l.get());
  return out;
}

Node& Topology::node(NodeId id) {
  if (id.value() >= nodes_.size()) throw std::out_of_range("Topology::node: bad id");
  return nodes_[id.value()];
}

const Node& Topology::node(NodeId id) const {
  if (id.value() >= nodes_.size()) throw std::out_of_range("Topology::node: bad id");
  return nodes_[id.value()];
}

NodeId Topology::find(const std::string& name) const {
  for (const auto& n : nodes_) {
    if (n.name == name) return n.id;
  }
  throw std::invalid_argument("Topology::find: no node named " + name);
}

void Topology::build_routes() {
  const std::size_t n = nodes_.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, kInf));
  next_hop_.assign(n, std::vector<std::uint32_t>(n, kNoHop));
  for (std::size_t i = 0; i < n; ++i) {
    dist[i][i] = 0.0;
    next_hop_[i][i] = static_cast<std::uint32_t>(i);
  }
  for (const auto& l : links_) {
    if (!l->up) continue;
    auto f = l->from.value();
    auto t = l->to.value();
    double w = static_cast<double>(l->latency.count_micros());
    if (w < dist[f][t]) {
      dist[f][t] = w;
      next_hop_[f][t] = t;
    }
  }
  // Floyd–Warshall; topologies are small (≈15 nodes), O(n^3) is fine.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dist[i][k] == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (dist[k][j] == kInf) continue;
        if (dist[i][k] + dist[k][j] < dist[i][j]) {
          dist[i][j] = dist[i][k] + dist[k][j];
          next_hop_[i][j] = next_hop_[i][k];
        }
      }
    }
  }
  routes_valid_ = true;
}

Link* Topology::link_between(NodeId a, NodeId b) {
  // Parallel links are allowed; traffic takes the lowest-latency live one
  // (mirroring the routing metric).
  Link* best = nullptr;
  for (const auto& l : links_) {
    if (l->from == a && l->to == b && l->up) {
      if (best == nullptr || l->latency < best->latency) best = l.get();
    }
  }
  return best;
}

void Topology::set_link_state(NodeId a, NodeId b, bool up) {
  bool found = false;
  for (const auto& l : links_) {
    if ((l->from == a && l->to == b) || (l->from == b && l->to == a)) {
      l->up = up;
      found = true;
    }
  }
  if (!found) throw std::invalid_argument("Topology::set_link_state: no such link");
  routes_valid_ = false;
}

void Topology::set_node_state(NodeId node, bool up) {
  for (const auto& l : links_) {
    if (l->from == node || l->to == node) l->up = up;
  }
  routes_valid_ = false;
}

bool Topology::reachable(NodeId a, NodeId b) {
  try {
    (void)path(a, b);
    return true;
  } catch (const NoRouteError&) {
    return false;
  }
}

std::vector<Link*> Topology::path(NodeId a, NodeId b) {
  if (!routes_valid_) build_routes();
  std::vector<Link*> out;
  if (a == b) return out;
  std::uint32_t cur = a.value();
  const std::uint32_t dst = b.value();
  while (cur != dst) {
    std::uint32_t nh = next_hop_[cur][dst];
    if (nh == kNoHop) {
      throw NoRouteError("Topology::path: no route from " + nodes_[a.value()].name + " to " +
                         nodes_[b.value()].name);
    }
    Link* l = link_between(NodeId{cur}, NodeId{nh});
    if (l == nullptr) throw std::logic_error("Topology::path: route uses missing link");
    out.push_back(l);
    cur = nh;
  }
  return out;
}

sim::Duration Topology::path_latency(NodeId a, NodeId b) {
  sim::Duration total = sim::Duration::zero();
  for (Link* l : path(a, b)) total += l->latency;
  return total;
}

}  // namespace mutsvc::net
