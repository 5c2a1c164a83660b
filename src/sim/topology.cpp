#include "sim/topology.hpp"

#include <algorithm>
#include <utility>

namespace hfsc {

Topology::NodeIndex Topology::add_node(std::string name, RateBps rate,
                                       Scheduler& sched) {
  if (name.empty()) {
    throw Error(Errc::kInvalidArgument, "topology node needs a name");
  }
  if (by_name_.count(name) != 0) {
    throw Error(Errc::kInvalidArgument, "duplicate topology node: " + name);
  }
  if (rate == 0) {
    throw Error(Errc::kInvalidArgument,
                "topology node " + name + " needs a non-zero rate");
  }
  const NodeIndex idx = nodes_.size();
  auto node = std::make_unique<Node>(tracker_window_);
  node->name = std::move(name);
  node->rate = rate;
  node->link = std::make_unique<Link>(ev_, rate, sched);
  // Hook order is part of the engine's contract: the tracker observes
  // first, then the routing layer (which only counts and forwards), then
  // any hooks sources add at install time.
  node->tracker.attach(*node->link);
  node->link->add_arrival_hook([this, idx](TimeNs t, const Packet& p) {
    on_node_arrival(idx, t, p);
  });
  node->link->add_departure_hook([this, idx](TimeNs t, const Packet& p) {
    on_node_departure(idx, t, p);
  });
  by_name_.emplace(node->name, idx);
  nodes_.push_back(std::move(node));
  return idx;
}

Topology::NodeIndex Topology::find(std::string_view name) const noexcept {
  const auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kNoNode : it->second;
}

std::size_t Topology::add_route(std::vector<Hop> hops) {
  if (hops.size() < 2) {
    throw Error(Errc::kInvalidArgument,
                "a route needs at least two hops (single-hop classes are "
                "tracked per node already)");
  }
  for (const Hop& h : hops) {
    if (h.node >= nodes_.size()) {
      throw Error(Errc::kInvalidArgument, "route through unknown node");
    }
  }
  const std::size_t idx = routes_.size();
  for (std::size_t i = 0; i < hops.size(); ++i) {
    Node& node = *nodes_[hops[i].node];
    if (node.routing.count(hops[i].cls) != 0) {
      throw Error(Errc::kInvalidArgument,
                  "class already routed at node " + node.name);
    }
    Fwd fwd;
    fwd.route = idx;
    if (i + 1 < hops.size()) {
      fwd.next = nodes_[hops[i + 1].node]->link.get();
      fwd.next_cls = hops[i + 1].cls;
    }
    node.routing.emplace(hops[i].cls, fwd);
  }
  nodes_[hops.front().node]->entry.emplace(hops.front().cls, idx);
  Route r;
  r.hops = std::move(hops);
  routes_.push_back(std::move(r));
  return idx;
}

std::size_t Topology::in_flight(std::size_t route) const {
  std::size_t n = 0;
  for (const auto& [key, fifo] : routes_.at(route).entries) {
    n += fifo.size();
  }
  return n;
}

void Topology::on_node_arrival(NodeIndex n, TimeNs t, const Packet& p) {
  Node& node = *nodes_[n];
  ++node.offered;
  // Arrival hooks run before the scheduler sees the packet, so the
  // occupancy right after this arrival is the scheduler backlog plus the
  // wire plus the packet itself (see peak_backlog_packets()).
  Link& link = *node.link;
  node.peak_backlog_pkts =
      std::max(node.peak_backlog_pkts,
               link.scheduler().backlog_packets() + 1 + link.in_service());
  node.peak_backlog_bytes = std::max(
      node.peak_backlog_bytes,
      link.scheduler().backlog_bytes() + p.len + link.in_service_bytes());
  const auto it = node.entry.find(p.cls);
  if (it == node.entry.end()) return;
  routes_[it->second].entries[PacketKey{it->second, p.seq}].push_back(t);
}

void Topology::on_node_departure(NodeIndex n, TimeNs t, const Packet& p) {
  Node& node = *nodes_[n];
  const auto it = node.routing.find(p.cls);
  if (it == node.routing.end()) return;
  const Fwd& fwd = it->second;
  if (fwd.next != nullptr) {
    Packet next = p;
    next.cls = fwd.next_cls;
    fwd.next->on_arrival(t, next);
    return;
  }
  // Last hop: close out the (route, seq) entry, FIFO within the key.
  Route& route = routes_[fwd.route];
  const auto entry = route.entries.find(PacketKey{fwd.route, p.seq});
  if (entry == route.entries.end() || entry->second.empty()) return;
  const TimeNs entered = entry->second.front();
  entry->second.erase(entry->second.begin());
  if (entry->second.empty()) route.entries.erase(entry);
  route.delays_ms.add(static_cast<double>(t - entered) / 1e6);
  route.bytes += p.len;
}

}  // namespace hfsc
