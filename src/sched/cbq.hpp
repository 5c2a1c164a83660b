// Class-Based Queueing (Floyd & Van Jacobson) — simplified.
//
// CBQ is the hierarchical link-sharing scheme the paper positions itself
// against (Section VIII): instead of virtual times derived from service
// curves, CBQ decides whether a class is over its allocation with a
// *rate estimator* (the exponentially-weighted "avgidle" of inter-packet
// gaps) and lets an overlimit class keep sending only while it can borrow
// from an underlimit ancestor; when no backlogged class may send, the
// link idles until the earliest estimator recovery.
//
// This implementation keeps CBQ's essential machinery — per-class
// avgidle estimators over the whole hierarchy, ancestor borrowing,
// overlimit delay, weighted round robin among eligible leaves — and
// omits the engineering extras of the full qdisc (priority levels, the
// top-level optimization, ewma-selectable constants).  It reproduces the
// behaviours the paper criticizes: link-sharing accuracy limited by the
// estimator's time constant, and delay inherently coupled to bandwidth.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sched/class_queues.hpp"
#include "sched/scheduler.hpp"
#include "util/errors.hpp"

namespace hfsc {

class Cbq final : public Scheduler {
 public:
  // avg_const is the EWMA weight denominator (the classic 1/16).
  // Throws Error{kInvalidArgument} on a zero link rate or avg_const <= 1.
  explicit Cbq(RateBps link_rate, int avg_const = 16);

  // Adds a class with `rate` (its allocation) under `parent`
  // (kRootClass for top level).  `borrow` lets it exceed the allocation
  // while an ancestor is underlimit.  Only leaves queue packets.
  // Throws Error on an unknown parent or zero rate.
  ClassId add_class(ClassId parent, RateBps rate, bool borrow = true);

  // Data path — never throws; packets for unknown or interior classes
  // and zero-length/oversized packets are dropped and counted.
  void enqueue(TimeNs now, Packet pkt) override;
  std::optional<Packet> dequeue(TimeNs now) override;

  std::size_t backlog_packets() const noexcept override {
    return queues_.packets();
  }
  Bytes backlog_bytes() const noexcept override { return queues_.bytes(); }
  TimeNs next_wakeup(TimeNs now) const noexcept override;
  DataPathCounters counters() const noexcept override { return counters_; }
  std::string_view name() const noexcept override { return "CBQ"; }

  // Estimator introspection (tests).
  bool underlimit(ClassId cls) const { return nodes_[cls].avgidle >= 0.0; }
  const DataPathCounters& data_path_counters() const noexcept {
    return counters_;
  }

 private:
  struct Node {
    ClassId parent = kRootClass;
    RateBps rate = 0;
    bool borrow = true;
    bool is_leaf = true;
    int level = 1;                  // leaf = 1; parent = max(child)+1
    std::size_t subtree_backlog = 0;  // queued packets in the subtree
    // Estimator state.
    double avgidle = 0.0;   // ns, clamped to [-maxidle, maxidle]
    double maxidle = 0.0;   // clamp horizon (ns)
    TimeNs last = 0;        // last departure charged to this class
    TimeNs undertime = 0;   // when an overlimit class may send again
    // WRR state (leaves).
    Bytes quantum = 1500;
    Bytes deficit = 0;
    bool in_round = false;
  };

  bool underlimit(const Node& n, TimeNs now) const noexcept {
    return n.avgidle >= 0.0 || now >= n.undertime;
  }
  // Floyd's formal link-sharing guideline: the lowest level at which some
  // backlogged class is underlimit (an "unsatisfied" class); borrowing is
  // only permitted from ancestors at or below that level.
  int min_unsatisfied_level(TimeNs now) const;
  // Memoized front-end for min_unsatisfied_level().  Between borrow-state
  // mutations (estimator charges, backlog changes — tracked by
  // borrow_gen_) the unsatisfied set can only change when the clock
  // crosses a blocked class's undertime, so the eager full-tree scan is
  // re-run only on a generation bump, a clock regression, or crossing the
  // cached validity horizon.  Steady-state dequeues hit the cache.
  int unsat_level_lazy(TimeNs now);
  bool may_send(ClassId cls, TimeNs now, int unsat_level) const;
  void charge(ClassId cls, Bytes len, TimeNs now);

  RateBps link_rate_;
  double w_;  // EWMA weight (1/avg_const)
  std::vector<Node> nodes_;
  ClassQueues queues_;
  std::deque<ClassId> round_;  // backlogged leaves, WRR order
  DataPathCounters counters_;

  // Lazy unsatisfied-level cache (see unsat_level_lazy).
  std::uint64_t borrow_gen_ = 0;       // bumped on any borrow-state change
  std::uint64_t unsat_cache_gen_ = ~std::uint64_t{0};
  TimeNs unsat_cache_now_ = 0;   // `now` the cache was computed at
  TimeNs unsat_cache_next_ = 0;  // earliest undertime that could change it
  int unsat_cache_lvl_ = 0;
};

}  // namespace hfsc
