// Convenience bundle: an event queue plus a one-node Topology (link,
// tracker and owned sources).
//
// Typical use (see examples/quickstart.cpp):
//
//     Hfsc sched(mbps(100));
//     ... add classes ...
//     Simulator sim(mbps(100), sched);
//     sim.add<CbrSource>(audio, kbps(64), 160, 0, sec(10));
//     sim.run(sec(10));
//     sim.tracker().mean_delay_ms(audio);
#pragma once

#include <utility>

#include "sim/event_queue.hpp"
#include "sim/sources.hpp"
#include "sim/topology.hpp"

namespace hfsc {

class Simulator {
 public:
  Simulator(RateBps link_rate, Scheduler& sched,
            TimeNs throughput_window = msec(100))
      : topo_(ev_, throughput_window) {
    topo_.add_node("link", link_rate, sched);
  }

  // Constructs a source in place and installs it.
  template <typename SourceT, typename... Args>
  SourceT& add(Args&&... args) {
    return topo_.add_source<SourceT>(0, std::forward<Args>(args)...);
  }

  void run(TimeNs until) { ev_.run_until(until); }
  void run_all() { ev_.run_all(); }

  EventQueue& events() noexcept { return ev_; }
  Link& link() noexcept { return topo_.link(0); }
  const FlowTracker& tracker() const noexcept { return topo_.tracker(0); }
  TimeNs now() const noexcept { return ev_.now(); }

 private:
  EventQueue ev_;
  Topology topo_;
};

}  // namespace hfsc
