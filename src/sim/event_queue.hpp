// Discrete-event engine: a time-ordered queue of callbacks.
//
// Events scheduled for the same instant run in scheduling order (a
// monotone sequence number breaks ties), which keeps every simulation in
// this repository deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/types.hpp"

namespace hfsc {

class EventQueue {
 public:
  using Handler = std::function<void(TimeNs)>;

  TimeNs now() const noexcept { return now_; }
  bool empty() const noexcept { return q_.empty(); }

  // Schedules `fn` at absolute time t (>= now).
  void schedule(TimeNs t, Handler fn) {
    q_.push(Event{t < now_ ? now_ : t, seq_++, std::move(fn)});
  }

  // Runs the next event; returns false when none remain.
  bool run_next() {
    if (q_.empty()) return false;
    // Moving the handler out before popping lets it schedule new events.
    Event ev = std::move(const_cast<Event&>(q_.top()));
    q_.pop();
    now_ = ev.t;
    ev.fn(now_);
    return true;
  }

  // Runs events up to and including time `until`; the clock ends at
  // max(now, until).
  void run_until(TimeNs until) {
    while (!q_.empty() && q_.top().t <= until) run_next();
    if (now_ < until) now_ = until;
  }

  void run_all() {
    while (run_next()) {
    }
  }

 private:
  struct Event {
    TimeNs t;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> q_;
  TimeNs now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace hfsc
