// SCED — Service Curve Earliest Deadline first (Sariowan et al.; paper
// Section II, eqs. (2)-(4)).
//
// Each session i has a service curve S_i and a deadline curve D_i.  D_i is
// initialized to S_i at the session's first backlogged instant and, each
// time the session becomes backlogged again at time a after an idle
// period, is updated to
//
//     D_i <- min(D_i, w_i(a) + S_i(. - a))                          (3)
//
// where w_i is the total service the session has received.  The packet at
// the head of the queue gets deadline D_i^{-1}(w_i + len) (4), and the
// server transmits in increasing deadline order.
//
// SCED guarantees all service curves whenever sum_i S_i <= server curve
// (Section II) but is *unfair*: a session that received excess service
// runs ahead of its deadline curve and is punished — starved — when
// competitors wake up (Fig. 2(b)(c); experiment E1).
#pragma once

#include <string>
#include <vector>

#include "curve/runtime_curve.hpp"
#include "sched/class_queues.hpp"
#include "sched/scheduler.hpp"
#include "util/indexed_heap.hpp"

namespace hfsc {

class Sced final : public Scheduler {
 public:
  // Registers a session.  The curve must be in the supported two-piece
  // family (concave, or convex with a flat first segment).
  ClassId add_session(const ServiceCurve& sc);

  void enqueue(TimeNs now, Packet pkt) override;
  std::optional<Packet> dequeue(TimeNs now) override;

  std::size_t backlog_packets() const noexcept override {
    return queues_.packets();
  }
  Bytes backlog_bytes() const noexcept override { return queues_.bytes(); }
  std::string_view name() const noexcept override { return "SCED"; }

 private:
  struct Session {
    ServiceCurve sc;
    RuntimeCurve dc;          // deadline curve D_i
    Bytes work = 0;           // w_i: total service received
    bool ever_active = false;
  };

  void set_head_deadline(ClassId cls);

  ClassQueues queues_;
  std::vector<Session> sessions_;  // index 0 unused
  IndexedHeap<TimeNs> by_deadline_;
};

}  // namespace hfsc
