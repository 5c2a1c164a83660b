// Virtual Clock (Zhang, 1990).
//
// Each session has a guaranteed rate r_i; a packet's tag is
//     VC_i = max(arrival, VC_i) + len / r_i
// assigned at arrival, and packets are served in increasing tag order.
// Section III-B of the paper observes that SCED with linear service curves
// through the origin reduces to Virtual Clock, and that Virtual Clock is
// unfair: a session that used idle capacity builds its VC far into the
// future and is then starved when competitors return.  We keep it as the
// punished-flow baseline for the non-punishment experiments (E11).
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "sched/class_queues.hpp"
#include "sched/scheduler.hpp"
#include "util/indexed_heap.hpp"

namespace hfsc {

class VirtualClock final : public Scheduler {
 public:
  // Registers a session with guaranteed rate r (bytes/s).  Sessions must
  // be added before any of their packets arrive.
  ClassId add_session(RateBps rate);

  void enqueue(TimeNs now, Packet pkt) override;
  std::optional<Packet> dequeue(TimeNs now) override;

  std::size_t backlog_packets() const noexcept override {
    return queues_.packets();
  }
  Bytes backlog_bytes() const noexcept override { return queues_.bytes(); }
  std::string_view name() const noexcept override { return "VirtualClock"; }

 private:
  struct Session {
    RateBps rate = 0;
    TimeNs vc = 0;              // auxiliary virtual clock
    std::deque<TimeNs> tags;    // arrival-assigned tags, FIFO with packets
  };

  ClassQueues queues_;
  std::vector<Session> sessions_;  // index 0 unused (root id convention)
  IndexedHeap<TimeNs> by_tag_;     // backlogged sessions keyed by head tag
};

}  // namespace hfsc
