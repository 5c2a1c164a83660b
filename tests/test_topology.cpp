// Tests for the routed topology core: multi-node forwarding, end-to-end
// accounting, the linear-chain golden pin, and the packet-identity
// regression (a folded `seq ^ (cls << 48)` key aliases distinct packets).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/hfsc.hpp"
#include "sched/fifo.hpp"
#include "sim/sources.hpp"
#include "sim/topology.hpp"
#include "util/errors.hpp"

namespace hfsc {
namespace {

TEST(Topology, RoutesAcrossNodesAndAccountsEndToEnd) {
  EventQueue ev;
  Fifo sa, sb;
  Topology topo(ev);
  const auto a = topo.add_node("a", mbps(10), sa);
  const auto b = topo.add_node("b", mbps(10), sb);
  const auto route = topo.add_route({{a, 1}, {b, 1}});

  topo.add_source<CbrSource>(a, 1, mbps(2), 1000, 0, sec(1));
  topo.run(sec(2));

  EXPECT_EQ(topo.delivered(route), 250u);
  EXPECT_EQ(topo.delivered_bytes(route), 250'000u);
  // Two hops at 0.8 ms serialization each.
  EXPECT_NEAR(topo.e2e_delay_ms(route).mean(), 1.6, 0.1);
  EXPECT_EQ(topo.in_flight(route), 0u);
  // Conservation at each hop: everything offered was sent.
  EXPECT_EQ(topo.offered(a), 250u);
  EXPECT_EQ(topo.link(a).packets_sent(), 250u);
  EXPECT_EQ(topo.offered(b), 250u);  // forwarded-in arrivals count
  EXPECT_EQ(topo.link(b).packets_sent(), 250u);
}

// A linear chain of FIFO hops, pinned to the exact figures the former
// fixed-chain engine produced for this workload.
TEST(Topology, LinearChainMatchesTandem) {
  constexpr std::size_t kHops = 3;
  EventQueue ev;
  Fifo scheds[kHops];
  Topology topo(ev);
  std::vector<Topology::Hop> hops;
  for (std::size_t h = 0; h < kHops; ++h) {
    const std::string name = std::string("n").append(std::to_string(h));
    hops.push_back({topo.add_node(name, mbps(10), scheds[h]), 1});
  }
  const auto route = topo.add_route(std::move(hops));
  topo.add_source<CbrSource>(0, 1, mbps(2), 1000, 0, sec(1));
  ev.run_all();

  EXPECT_EQ(topo.delivered(route), 250u);
  EXPECT_EQ(topo.delivered_bytes(route), 250'000u);
  EXPECT_EQ(topo.e2e_delay_ms(route).mean(), 0x1.333333333331ap+1);
  EXPECT_EQ(topo.e2e_delay_ms(route).max(), 0x1.3333333333333p+1);
}

TEST(Topology, RejectsBadWiring) {
  EventQueue ev;
  Fifo sa, sb;
  Topology topo(ev);
  const auto a = topo.add_node("a", mbps(10), sa);
  EXPECT_THROW(topo.add_node("a", mbps(10), sb), Error);  // duplicate name
  EXPECT_THROW(topo.add_route({{a, 1}}), Error);  // fewer than 2 hops
  const auto b = topo.add_node("b", mbps(10), sb);
  EXPECT_THROW(topo.add_route({{a, 1}, {Topology::NodeIndex{99}, 1}}),
               Error);  // unknown node index
  (void)topo.add_route({{a, 1}, {b, 1}});
  // The (node, cls) pair is already covered by the first route.
  EXPECT_THROW(topo.add_route({{a, 1}, {b, 2}}), Error);
  EXPECT_EQ(topo.find("a"), a);
  EXPECT_EQ(topo.find("nope"), Topology::kNoNode);
}

// Regression: the folded end-to-end key `seq ^ (cls << 48)` aliased
// distinct packets — (cls=1, seq=S) and (cls=2, seq=S ^ (3<<48)) mapped
// to the same entry, silently merging their entry times.  Feed exactly
// such a colliding pair into two routes over the same nodes and check
// each route keeps its own correct delay.
TEST(Topology, DistinctClassSeqPairsNeverAlias) {
  EventQueue ev;
  Fifo sa, sb;
  Topology topo(ev);
  const auto a = topo.add_node("a", mbps(8), sa);
  const auto b = topo.add_node("b", mbps(8), sb);
  const auto r1 = topo.add_route({{a, 1}, {b, 1}});
  const auto r2 = topo.add_route({{a, 2}, {b, 2}});

  const std::uint64_t s1 = (7ull << 48) | 5;
  const std::uint64_t s2 = s1 ^ (3ull << 48);  // folded-key collision with
                                               // (cls 1, s1) for cls 2
  ASSERT_EQ(s1 ^ (1ull << 48), s2 ^ (2ull << 48));

  Packet p1;
  p1.cls = 1;
  p1.seq = s1;
  p1.len = 1000;
  Packet p2;
  p2.cls = 2;
  p2.seq = s2;
  p2.len = 1000;
  // 1000 B at 8 Mb/s = 1 ms per hop; the second packet queues behind the
  // first at each hop, so its end-to-end delay is strictly larger.
  topo.link(a).on_arrival(0, p1);
  topo.link(a).on_arrival(0, p2);
  ev.run_all();

  EXPECT_EQ(topo.delivered(r1), 1u);
  EXPECT_EQ(topo.delivered(r2), 1u);
  EXPECT_NEAR(topo.e2e_delay_ms(r1).mean(), 2.0, 0.1);
  EXPECT_NEAR(topo.e2e_delay_ms(r2).mean(), 3.0, 0.1);
}

// Routed H-FSC hierarchies on every hop keep the real-time class's
// end-to-end delay near the sum of per-hop bounds even against greedy
// cross traffic entering mid-route.
TEST(Topology, HfscHopsBoundRoutedDelayAgainstCrossTraffic) {
  EventQueue ev;
  Hfsc sa(mbps(10)), sb(mbps(10));
  for (Hfsc* s : {&sa, &sb}) {
    (void)s->add_class(kRootClass,
                       ClassConfig::both(from_udr(160, msec(5), kbps(640))));
    (void)s->add_class(kRootClass, ClassConfig::link_share_only(
                                       ServiceCurve::linear(mbps(9))));
  }
  Topology topo(ev);
  const auto a = topo.add_node("a", mbps(10), sa);
  const auto b = topo.add_node("b", mbps(10), sb);
  const auto route = topo.add_route({{a, 1}, {b, 1}});

  topo.add_source<CbrSource>(a, 1, kbps(64), 160, 0, sec(3));
  topo.add_source<GreedySource>(a, 2, 1500, 8, 0, sec(3));
  topo.add_source<GreedySource>(b, 2, 1500, 8, 0, sec(3));  // enters mid-route
  topo.run(sec(3) + msec(500));

  EXPECT_GT(topo.delivered(route), 0u);
  EXPECT_LT(topo.e2e_delay_ms(route).max(), 2 * 6.3);
}

}  // namespace
}  // namespace hfsc
