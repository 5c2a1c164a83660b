#include "sched/hpfq.hpp"

namespace hfsc {

HPfq::HPfq(RateBps link_rate, PfqPolicy policy) : policy_(policy) {
  ensure(link_rate > 0, Errc::kInvalidArgument, "link rate must be > 0");
  Node root;
  root.server = std::make_unique<PfqServer>(link_rate, policy);
  root.rate = link_rate;
  nodes_.push_back(std::move(root));
}

ClassId HPfq::add_class(ClassId parent, RateBps rate) {
  ensure(parent < nodes_.size(), Errc::kInvalidClass, "unknown parent class");
  ensure(rate > 0, Errc::kInvalidArgument, "class rate must be > 0");
  if (nodes_[parent].is_leaf()) {
    // First child under an interior-to-be class: give it a server.
    ensure(!queues_.has(parent), Errc::kHasBacklog,
           "cannot add children to a class that queues packets");
    nodes_[parent].server =
        std::make_unique<PfqServer>(nodes_[parent].rate, policy_);
  }
  Node n;
  n.parent = parent;
  n.rate = rate;
  n.idx_in_parent = nodes_[parent].server->add_child(rate);
  nodes_.push_back(std::move(n));
  const ClassId id = static_cast<ClassId>(nodes_.size() - 1);
  nodes_[parent].children.push_back(id);
  queues_.ensure(id);
  return id;
}

bool HPfq::subtree_backlogged(ClassId n) const {
  const Node& node = nodes_[n];
  return node.is_leaf() ? queues_.has(n) : node.server->any_backlogged();
}

ClassId HPfq::selected_leaf(ClassId n) {
  while (!nodes_[n].is_leaf()) {
    n = nodes_[n].children[nodes_[n].server->pick()];
  }
  return n;
}

void HPfq::enqueue(TimeNs /*now*/, Packet pkt) {
  if (pkt.cls == kRootClass || pkt.cls >= nodes_.size() ||
      !nodes_[pkt.cls].is_leaf()) {
    ++counters_.bad_class;
    return;
  }
  if (pkt.len == 0) {
    ++counters_.zero_len;
    return;
  }
  if (pkt.len > kMaxSanePacketLen) {
    ++counters_.oversized;
    return;
  }
  const bool was_empty = !queues_.has(pkt.cls);
  queues_.push(pkt);
  if (!was_empty) return;
  // Propagate the new backlog towards the root until an ancestor that is
  // already marked backlogged at its parent.  Every node made backlogged
  // on the way had an empty subtree, so the arriving packet is the head
  // it exposes.
  ClassId c = pkt.cls;
  while (c != kRootClass) {
    const Node& node = nodes_[c];
    PfqServer& srv = *nodes_[node.parent].server;
    if (srv.is_backlogged(node.idx_in_parent)) break;
    srv.child_backlogged(node.idx_in_parent, pkt.len);
    c = node.parent;
  }
}

std::optional<Packet> HPfq::dequeue(TimeNs /*now*/) {
  if (!nodes_[kRootClass].server->any_backlogged()) return std::nullopt;
  // Walk down the hierarchy; every node applies its own WF2Q+ selection.
  const ClassId leaf = selected_leaf(kRootClass);
  Packet p = queues_.pop(leaf);
  // Charge every server from the leaf's parent up to the root, refreshing
  // child state bottom-up so that an interior child's new exposed head is
  // known when its parent asks for it.
  for (ClassId child = leaf; child != kRootClass;
       child = nodes_[child].parent) {
    const Node& node = nodes_[child];
    PfqServer& srv = *nodes_[node.parent].server;
    srv.charge(p.len);
    if (subtree_backlogged(child)) {
      srv.child_next_head(node.idx_in_parent,
                          queues_.head(selected_leaf(child)).len);
    } else {
      srv.child_empty(node.idx_in_parent);
    }
  }
  return p;
}

std::size_t HPfq::depth_of(ClassId cls) const {
  std::size_t d = 0;
  while (cls != kRootClass) {
    cls = nodes_[cls].parent;
    ++d;
  }
  return d;
}

}  // namespace hfsc
