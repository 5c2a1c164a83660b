// Flat Fair Service Curve scheduler — the Fig. 2(d) modification of SCED.
//
// Instead of wall-clock deadlines, each session i carries a generalized
// virtual time v_i = V_i^{-1}(w_i), where the virtual curve V_i is the
// session's service curve re-anchored, on each becomes-backlogged event,
// at (v_sys, w_i) — eq. (12) with the parent replaced by the single
// server.  The server always picks the backlogged session with the
// smallest virtual time (SSF).
//
// This restores fairness — a session that used excess service is not
// punished, because V_i is re-synchronized to the system virtual time
// rather than left in the past — at the price of possible (bounded)
// service-curve violations when demand exceeds capacity (Fig. 2(d);
// Section III-C(a)).  It is exactly the link-sharing half of H-FSC,
// flattened to one level, and reduces to WFQ-style fair queueing when all
// curves are linear (Section III-B).
#pragma once

#include <string>
#include <vector>

#include "curve/runtime_curve.hpp"
#include "sched/class_queues.hpp"
#include "sched/scheduler.hpp"
#include "util/indexed_heap.hpp"

namespace hfsc {

class FscFlat final : public Scheduler {
 public:
  ClassId add_session(const ServiceCurve& sc);

  void enqueue(TimeNs now, Packet pkt) override;
  std::optional<Packet> dequeue(TimeNs now) override;

  std::size_t backlog_packets() const noexcept override {
    return queues_.packets();
  }
  Bytes backlog_bytes() const noexcept override { return queues_.bytes(); }
  std::string_view name() const noexcept override { return "FSC-flat"; }

  TimeNs vt_of(ClassId cls) const { return sessions_.at(cls).vt; }
  Bytes work_of(ClassId cls) const { return sessions_.at(cls).work; }

 private:
  struct Session {
    ServiceCurve sc;
    RuntimeCurve vc;   // virtual curve V_i
    Bytes work = 0;    // w_i
    TimeNs vt = 0;     // v_i = V_i^{-1}(w_i)
    bool ever_active = false;
  };

  // System virtual time: (v_min + v_max)/2 over backlogged sessions
  // (Section IV-C), carried across idle periods by vt_watermark_.
  TimeNs system_vt() const noexcept;

  ClassQueues queues_;
  std::vector<Session> sessions_;  // index 0 unused
  IndexedHeap<TimeNs> by_vt_;      // backlogged sessions keyed by vt
  TimeNs vt_watermark_ = 0;        // max vt ever reached by any session
};

}  // namespace hfsc
