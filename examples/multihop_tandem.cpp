// Example: end-to-end guarantees across a multi-hop path.
//
// Service curves compose across hops (the network-calculus foundation the
// paper builds on): if every switch on a path runs H-FSC and grants a
// session the same curve, the end-to-end delay is bounded by roughly the
// sum of the per-hop bounds — regardless of cross traffic joining at each
// hop.  This example pushes a voice session through a 4-hop tandem with
// fresh greedy cross traffic at every hop and prints the end-to-end delay
// under H-FSC versus FIFO.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/hfsc.hpp"
#include "sched/fifo.hpp"
#include "sim/sources.hpp"
#include "sim/topology.hpp"
#include "util/stats.hpp"

using namespace hfsc;

namespace {

constexpr RateBps kLinkRate = mbps(10);
constexpr std::size_t kHops = 4;
constexpr TimeNs kEnd = sec(5);
constexpr ClassId kVoice = 1;
constexpr ClassId kCross = 2;

struct Result {
  double mean_ms, max_ms;
  std::size_t delivered;
};

Result run(const std::function<std::unique_ptr<Scheduler>()>& make) {
  EventQueue ev;
  std::vector<std::unique_ptr<Scheduler>> scheds;
  Topology topo(ev);
  // Both classes are forwarded through every hop.
  std::vector<Topology::Hop> voice_hops, cross_hops;
  for (std::size_t h = 0; h < kHops; ++h) {
    scheds.push_back(make());
    const auto n =
        topo.add_node("hop" + std::to_string(h), kLinkRate, *scheds.back());
    voice_hops.push_back({n, kVoice});
    cross_hops.push_back({n, kCross});
  }
  const std::size_t voice = topo.add_route(std::move(voice_hops));
  (void)topo.add_route(std::move(cross_hops));
  topo.add_source<CbrSource>(0, kVoice, kbps(64), 160, 0, kEnd);
  // Fresh greedy cross traffic enters at every hop.
  for (std::size_t h = 0; h < kHops; ++h) {
    topo.add_source<GreedySource>(h, kCross, 1500, 6, 0, kEnd);
  }
  topo.run(kEnd + msec(500));
  const SampleSet& delay = topo.e2e_delay_ms(voice);
  return Result{delay.mean(), delay.max(), topo.delivered(voice)};
}

}  // namespace

int main() {
  std::printf("4-hop tandem, 10 Mb/s links, greedy cross traffic at every "
              "hop; voice = 64 kb/s, per-hop target 5 ms\n\n");
  const Result fifo = run([] { return std::make_unique<Fifo>(); });
  const Result hfsc = run([] {
    auto s = std::make_unique<Hfsc>(kLinkRate);
    s->add_class(kRootClass,
                 ClassConfig::both(from_udr(160, msec(5), kbps(640))));
    s->add_class(kRootClass, ClassConfig::link_share_only(
                                 ServiceCurve::linear(mbps(9))));
    return s;
  });
  TablePrinter table({"sched", "voice_pkts", "e2e_mean_ms", "e2e_max_ms",
                      "per_hop_budget"});
  table.add_row({"FIFO", std::to_string(fifo.delivered),
                 TablePrinter::fmt(fifo.mean_ms), TablePrinter::fmt(fifo.max_ms),
                 "-"});
  table.add_row({"H-FSC", std::to_string(hfsc.delivered),
                 TablePrinter::fmt(hfsc.mean_ms), TablePrinter::fmt(hfsc.max_ms),
                 "4 x ~5 ms = 20 ms"});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("H-FSC keeps the end-to-end maximum within the composed "
              "per-hop bounds; FIFO's delay is whatever the cross traffic "
              "dictates.\n");
  return 0;
}
