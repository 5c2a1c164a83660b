// Routed multi-node simulation core, and the one simulation engine:
// Simulator is a one-node Topology.
//
// A Topology is a set of named nodes, each a Link driven by a borrowed
// Scheduler plus a FlowTracker, wired by per-class routes: the departure
// of a routed packet at hop k is forwarded — class id rewritten to the
// next node's id space — into hop k+1's link, so service-curve
// guarantees compose across hops exactly as Section II's calculus
// predicts (Cruz; the multi-node setting the paper's link-sharing model
// lives in).  The Topology owns the traffic sources installed through
// add_source().
//
// End-to-end accounting is keyed on the explicit (route, seq) identity
// of each packet — equality compares the full pair, never a folded
// 64-bit key such as `seq ^ (cls << 48)`, which aliases distinct packets
// once seq crosses 2^48.
// Duplicate (route, seq) pairs — two sources feeding the same class each
// number their own packets from zero — are handled FIFO per key, which
// matches the per-class FIFO order every scheduler family preserves.
//
// Per-node "offered" arrival counts (source + forwarded-in) support the
// conservation identity the churn harness asserts:
//     offered == sent + dropped + rejected + backlog        (per node)
// with `sent` from the Link, `dropped`/`rejected`/`backlog` from the
// node's Scheduler.
//
// The scenario engine (sim/scenario.cpp) builds a Topology from parsed
// `node`/`route` directives; tests drive it directly.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/flow_stats.hpp"
#include "sim/link.hpp"
#include "util/errors.hpp"
#include "util/stats.hpp"

namespace hfsc {

class Topology {
 public:
  using NodeIndex = std::size_t;
  static constexpr NodeIndex kNoNode = static_cast<NodeIndex>(-1);

  struct Hop {
    NodeIndex node;
    ClassId cls;  // the class's id within that node's scheduler
  };

  explicit Topology(EventQueue& ev, TimeNs tracker_window = msec(100))
      : ev_(ev), tracker_window_(tracker_window) {}

  // Adds a node scheduled by `sched`, which the caller owns and keeps
  // alive for the topology's lifetime; the node's Link transmits at
  // `rate`.  Hook installation order per node is fixed here — tracker,
  // then the route exit/forward hook — so results are independent of the
  // order routes are added later.  Throws Error{kInvalidArgument} on a
  // duplicate or empty name or a zero rate.
  NodeIndex add_node(std::string name, RateBps rate, Scheduler& sched);

  // Constructs a source in place, keeps it for the topology's lifetime
  // and installs it on node `n`'s link.  Its hooks run after the node's
  // tracker and routing hooks.
  template <class S, class... A>
  S& add_source(NodeIndex n, A&&... args) {
    Link& at = link(n);
    SourcePtr owned(new S(std::forward<A>(args)...),
                    [](void* p) { delete static_cast<S*>(p); });
    S& src = *static_cast<S*>(owned.get());
    sources_.push_back(std::move(owned));
    src.install(ev_, at);
    return src;
  }

  // Registers a route of >= 2 hops.  Forwarding is installed at every
  // hop but the last; end-to-end delay runs from first-hop arrival to
  // last-hop departure.  Throws Error{kInvalidArgument} on an unknown
  // node, fewer than 2 hops, or a (node, cls) pair already covered by
  // another route.  Returns the route index.
  std::size_t add_route(std::vector<Hop> hops);

  // Index of the named node, or kNoNode.
  NodeIndex find(std::string_view name) const noexcept;

  const std::string& name(NodeIndex n) const { return nodes_.at(n)->name; }
  RateBps rate(NodeIndex n) const { return nodes_.at(n)->rate; }
  Link& link(NodeIndex n) { return *nodes_.at(n)->link; }
  Scheduler& scheduler(NodeIndex n) {
    return nodes_.at(n)->link->scheduler();
  }
  const FlowTracker& tracker(NodeIndex n) const {
    return nodes_.at(n)->tracker;
  }

  // Packets that entered the node's link (source arrivals plus
  // forwarded-in traffic) — the `offered` term of the conservation
  // identity.
  std::uint64_t offered(NodeIndex n) const { return nodes_.at(n)->offered; }

  // Peak node occupancy (scheduler backlog plus the packet on the wire),
  // sampled at every arrival — occupancy only grows at arrivals, so
  // arrival sampling captures the true peak.  The sample charges the
  // arriving packet before the scheduler rules on it, so a packet the
  // scheduler immediately drops still counts: the measurement can only
  // overstate, which is the safe direction for validating the analyzer's
  // backlog bounds (measured <= bound).
  std::uint64_t peak_backlog_packets(NodeIndex n) const {
    return nodes_.at(n)->peak_backlog_pkts;
  }
  Bytes peak_backlog_bytes(NodeIndex n) const {
    return nodes_.at(n)->peak_backlog_bytes;
  }

  // --- End-to-end route statistics ---------------------------------------
  std::uint64_t delivered(std::size_t route) const {
    return routes_.at(route).delays_ms.count();
  }
  Bytes delivered_bytes(std::size_t route) const {
    return routes_.at(route).bytes;
  }
  // Delay samples in milliseconds, first-hop arrival to last-hop
  // last-bit departure.
  const SampleSet& e2e_delay_ms(std::size_t route) const {
    return routes_.at(route).delays_ms;
  }
  // Entries still awaiting their last-hop departure (in flight or
  // dropped mid-route).
  std::size_t in_flight(std::size_t route) const;

  void run(TimeNs until) { ev_.run_until(until); }
  EventQueue& events() noexcept { return ev_; }

 private:
  struct Fwd {
    Link* next = nullptr;   // next hop's link (null = last hop: record exit)
    ClassId next_cls = 0;
    std::size_t route = 0;
  };
  struct Node {
    std::string name;
    RateBps rate = 0;
    std::unique_ptr<Link> link;
    FlowTracker tracker;
    std::uint64_t offered = 0;
    std::uint64_t peak_backlog_pkts = 0;
    Bytes peak_backlog_bytes = 0;
    // Per-class routing at this node.  `routing` covers every hop
    // (forward or exit); `entry` marks first hops (record entry time on
    // arrival).
    std::unordered_map<ClassId, Fwd> routing;
    std::unordered_map<ClassId, std::size_t> entry;

    explicit Node(TimeNs window) : tracker(window) {}
  };

  // Explicit packet identity: equality compares the full (route, seq)
  // pair, so the map can never alias two distinct packets.
  struct PacketKey {
    std::size_t route;
    std::uint64_t seq;
    bool operator==(const PacketKey& o) const noexcept {
      return route == o.route && seq == o.seq;
    }
  };
  struct PacketKeyHash {
    std::size_t operator()(const PacketKey& k) const noexcept {
      std::uint64_t h = k.seq;
      h ^= static_cast<std::uint64_t>(k.route) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  struct Route {
    std::vector<Hop> hops;
    SampleSet delays_ms;
    Bytes bytes = 0;
    // FIFO of entry times per (route, seq): same-class sources each
    // number from zero, so a key can briefly hold several packets; the
    // per-class FIFO discipline of every hop preserves their order.
    std::unordered_map<PacketKey, std::vector<TimeNs>, PacketKeyHash>
        entries;
  };

  void on_node_arrival(NodeIndex n, TimeNs t, const Packet& p);
  void on_node_departure(NodeIndex n, TimeNs t, const Packet& p);

  EventQueue& ev_;
  TimeNs tracker_window_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<std::string, NodeIndex> by_name_;
  std::vector<Route> routes_;
  // Sources of any type; they share an install() shape, not a base.
  using SourcePtr = std::unique_ptr<void, void (*)(void*)>;
  std::vector<SourcePtr> sources_;
};

}  // namespace hfsc
