// H-PFQ: hierarchical packet fair queueing (Bennett & Zhang, ref. [3] of
// the paper) — a tree of PfqServer nodes, WF2Q+ at every level.
//
// This is the paper's main comparison point.  H-PFQ provides hierarchical
// link-sharing and (coupled) real-time guarantees, but (a) delay is tied
// to the allocated rate — there are no nonlinear service curves — and
// (b) packet selection walks the hierarchy with the link-sharing criterion
// alone, so the delay bound of a leaf grows with its depth (paper,
// Section IV-A).  Experiments E4 and E6 measure both effects against
// H-FSC.
//
// Semantics: every node runs WF2Q+ (or SFF/SSF) over its children.  A
// child's (S, F) pair at its parent is set when the child becomes
// backlogged and rolled forward each time the parent serves it, using the
// length of the packet the child's subtree currently exposes.  When the
// link is free the root picks a child, that child picks one of its
// children, and so on down to a leaf; every server on the selected path is
// then charged the leaf packet's length.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/class_queues.hpp"
#include "sched/pfq.hpp"
#include "sched/scheduler.hpp"
#include "util/errors.hpp"

namespace hfsc {

class HPfq final : public Scheduler {
 public:
  // policy applies to every node; the paper's H-PFQ uses WF2Q+ (SEFF).
  // Throws Error{kInvalidArgument} if link_rate == 0.
  explicit HPfq(RateBps link_rate, PfqPolicy policy = PfqPolicy::SEFF);

  // Adds a class under `parent` (kRootClass for top level) with the given
  // guaranteed rate.  Classes that receive packets must stay leaves;
  // adding a child under a class that already queued packets throws
  // Error{kHasBacklog}; an unknown parent or zero rate also throws.
  ClassId add_class(ClassId parent, RateBps rate);

  // Data path — never throws; packets for unknown or interior classes
  // and zero-length/oversized packets are dropped and counted.
  void enqueue(TimeNs now, Packet pkt) override;
  std::optional<Packet> dequeue(TimeNs now) override;

  std::size_t backlog_packets() const noexcept override {
    return queues_.packets();
  }
  Bytes backlog_bytes() const noexcept override { return queues_.bytes(); }
  DataPathCounters counters() const noexcept override { return counters_; }
  std::string_view name() const noexcept override { return "H-PFQ"; }

  std::size_t depth_of(ClassId cls) const;
  const DataPathCounters& data_path_counters() const noexcept {
    return counters_;
  }

 private:
  struct Node {
    ClassId parent = 0;
    std::uint32_t idx_in_parent = 0;  // child index at the parent's server
    std::unique_ptr<PfqServer> server;  // created lazily for interior nodes
    std::vector<ClassId> children;      // child index -> ClassId
    RateBps rate = 0;
    bool is_leaf() const noexcept { return server == nullptr; }
  };

  // The leaf whose head packet node `n` currently exposes to its parent:
  // `n` itself for a leaf, else its server's pick, recursively.
  ClassId selected_leaf(ClassId n);
  bool subtree_backlogged(ClassId n) const;

  PfqPolicy policy_;
  std::vector<Node> nodes_;  // nodes_[0] is the root
  ClassQueues queues_;
  DataPathCounters counters_;
};

}  // namespace hfsc
