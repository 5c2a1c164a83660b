// Tests for multi-hop tandems (linear Topology chains).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/hfsc.hpp"
#include "sched/fifo.hpp"
#include "sim/simulator.hpp"

namespace hfsc {
namespace {

using SchedFactory = std::function<std::unique_ptr<Scheduler>()>;

// A 3-hop tandem of 10 Mb/s nodes, each with its own scheduler from
// `make`, forwarding classes 1 and 2 through every hop.  Returns the
// route index of class 1.
std::size_t build_tandem(Topology& topo,
                         std::vector<std::unique_ptr<Scheduler>>& scheds,
                         const SchedFactory& make) {
  std::vector<Topology::Hop> route1, route2;
  for (std::size_t h = 0; h < 3; ++h) {
    scheds.push_back(make());
    const auto n =
        topo.add_node("hop" + std::to_string(h), mbps(10), *scheds.back());
    route1.push_back({n, 1});
    route2.push_back({n, 2});
  }
  const std::size_t r1 = topo.add_route(std::move(route1));
  (void)topo.add_route(std::move(route2));
  return r1;
}

TEST(Tandem, DeliversThroughAllHops) {
  EventQueue ev;
  std::vector<std::unique_ptr<Scheduler>> scheds;
  Topology topo(ev);
  const auto route =
      build_tandem(topo, scheds, [] { return std::make_unique<Fifo>(); });
  topo.add_source<CbrSource>(0, 1, mbps(2), 1000, 0, sec(1));
  ev.run_all();
  EXPECT_EQ(topo.delivered(route), 250u);
  EXPECT_EQ(topo.delivered_bytes(route), 250'000u);
  // Three hops at 0.8 ms serialization each.
  EXPECT_NEAR(topo.e2e_delay_ms(route).mean(), 2.4, 0.1);
}

TEST(Tandem, HfscBoundsEndToEndDelayFifoDoesNot) {
  // Audio (class 1) + bulk (class 2) crossing a 3-hop tandem.  With
  // H-FSC at every hop the end-to-end audio delay is ~3x the per-hop
  // bound; with FIFO it rides behind bulk bursts at every hop.
  auto run = [](const SchedFactory& make) {
    EventQueue ev;
    std::vector<std::unique_ptr<Scheduler>> scheds;
    Topology topo(ev);
    const auto audio = build_tandem(topo, scheds, make);
    topo.add_source<CbrSource>(0, 1, kbps(64), 160, 0, sec(3));
    topo.add_source<GreedySource>(0, 2, 1500, 8, 0, sec(3));
    ev.run_until(sec(3) + msec(500));
    return topo.e2e_delay_ms(audio).max();
  };

  const double fifo_delay = run([] { return std::make_unique<Fifo>(); });
  const double hfsc_delay = run([] {
    auto s = std::make_unique<Hfsc>(mbps(10));
    const ClassId audio = s->add_class(
        kRootClass, ClassConfig::both(from_udr(160, msec(5), kbps(640))));
    const ClassId bulk = s->add_class(
        kRootClass,
        ClassConfig::link_share_only(ServiceCurve::linear(mbps(9))));
    EXPECT_EQ(audio, 1u);
    EXPECT_EQ(bulk, 2u);
    return s;
  });
  EXPECT_LT(hfsc_delay, 3 * 6.3);
  EXPECT_LT(hfsc_delay, fifo_delay);
}

}  // namespace
}  // namespace hfsc
