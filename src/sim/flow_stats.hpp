// Per-class measurement: delays, counts and windowed throughput.
// Attach to a Link as a departure hook.
#pragma once

#include <map>

#include "sched/packet.hpp"
#include "sim/link.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace hfsc {

class FlowTracker {
 public:
  explicit FlowTracker(TimeNs throughput_window = msec(100))
      : window_(throughput_window) {}

  void attach(Link& link) {
    link.add_departure_hook([this](TimeNs t, const Packet& p) {
      Flow& f = flows_.try_emplace(p.cls, window_).first->second;
      ++f.packets;
      f.bytes += p.len;
      f.delay_ns.add(static_cast<double>(t - p.arrival));
      f.throughput.add(t, p.len);
    });
  }

  bool has(ClassId cls) const { return flows_.count(cls) != 0; }
  std::uint64_t packets(ClassId cls) const { return get(cls).packets; }
  Bytes bytes(ClassId cls) const { return get(cls).bytes; }

  // Delay statistics in milliseconds.
  double mean_delay_ms(ClassId cls) const {
    return get(cls).delay_ns.mean() / 1e6;
  }
  double max_delay_ms(ClassId cls) const {
    return get(cls).delay_ns.max() / 1e6;
  }
  double delay_quantile_ms(ClassId cls, double q) const {
    return get(cls).delay_ns.quantile(q) / 1e6;
  }
  // Raw per-packet delay samples in nanoseconds, departure order
  // (histogram builders, merging stats across recreated class ids).
  const SampleSet& delay_samples_ns(ClassId cls) const {
    return get(cls).delay_ns;
  }

  // Average goodput over [t0, t1) in Mb/s.
  double rate_mbps(ClassId cls, TimeNs t0, TimeNs t1) const {
    if (!has(cls)) return 0.0;
    return get(cls).throughput.rate_over(t0, t1) * 8.0 / 1e6;
  }

 private:
  struct Flow {
    explicit Flow(TimeNs window) : throughput(window) {}
    std::uint64_t packets = 0;
    Bytes bytes = 0;
    SampleSet delay_ns;
    WindowedThroughput throughput;
  };

  const Flow& get(ClassId cls) const {
    static const Flow empty{msec(100)};
    auto it = flows_.find(cls);
    return it == flows_.end() ? empty : it->second;
  }

  TimeNs window_;
  std::map<ClassId, Flow> flows_;
};

}  // namespace hfsc
