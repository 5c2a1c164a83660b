// Tests for the PfqServer arbiter, flat WF2Q+ (a one-level H-PFQ) and
// H-PFQ, the dequeue-order pins of the two flat disciplines (flat WF2Q+
// and the fair flat FSC of Fig. 2(d), a one-level ls-only H-FSC), and the
// fair flat FSC's Fig. 2(d) properties.
#include <gtest/gtest.h>

#include <string>

#include "core/hfsc.hpp"
#include "sched/hpfq.hpp"
#include "sim/simulator.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

// FNV-1a-64 of the (cls, seq) dequeue order of one seeded workload:
// eight classes (ids 1..8) under a 10 Mb/s link, random packet lengths,
// enqueues and dequeues interleaved so backlogs rise and fall, and a full
// drain every 2000 steps so the virtual clocks re-synchronise after idle.
std::uint64_t dequeue_order_hash(Scheduler& sched) {
  Rng rng(0x5EED);
  std::string order;
  std::uint64_t seq = 0;
  TimeNs now = 0;
  const auto serve = [&] {
    const auto p = sched.dequeue(now);
    if (!p) return false;
    order.append(reinterpret_cast<const char*>(&p->cls), sizeof p->cls);
    order.append(reinterpret_cast<const char*>(&p->seq), sizeof p->seq);
    return true;
  };
  for (int step = 1; step <= 20'000; ++step) {
    now += usec(100);
    if (rng.chance(0.55)) {
      const auto cls = static_cast<ClassId>(rng.uniform(1, 8));
      const auto len = static_cast<Bytes>(rng.uniform(64, 1500));
      sched.enqueue(now, Packet{cls, len, now, seq++});
    } else {
      serve();
    }
    if (step % 2000 == 0) {
      while (serve()) {}
    }
  }
  return fnv1a64(order);
}

// Class i's weight and, for the FSC pin, its curve shape: linear, concave
// and convex in turn.
RateBps pin_rate(ClassId i) { return mbps(i); }
ServiceCurve pin_curve(ClassId i) {
  switch (i % 3) {
    case 0: return ServiceCurve::linear(pin_rate(i));
    case 1: return ServiceCurve{2 * pin_rate(i), msec(20), pin_rate(i)};
    default: return ServiceCurve{0, msec(20), pin_rate(i)};
  }
}

// The flat WF2Q+ family is H-PFQ with every class under the root.
TEST(DequeueOrderPins, OneLevelHpfqUnderEachPolicy) {
  const std::pair<PfqPolicy, std::uint64_t> pins[] = {
      {PfqPolicy::SSF, 11328880720739718175ull},
      {PfqPolicy::SFF, 1137380517134400619ull},
      {PfqPolicy::SEFF, 235853937143519947ull},
  };
  for (const auto& [policy, pin] : pins) {
    HPfq hpfq(mbps(10), policy);
    for (ClassId i = 1; i <= 8; ++i) {
      ASSERT_EQ(hpfq.add_class(kRootClass, pin_rate(i)), i);
    }
    EXPECT_EQ(dequeue_order_hash(hpfq), pin) << static_cast<int>(policy);
  }
}

// The fair flat FSC of Fig. 2(d) is H-FSC's link-sharing criterion at
// one level: ls-only leaves under the root.
TEST(DequeueOrderPins, LinkShareOnlyFlatHfsc) {
  Hfsc hfsc(mbps(10));
  for (ClassId i = 1; i <= 8; ++i) {
    ASSERT_EQ(hfsc.add_class(kRootClass,
                             ClassConfig::link_share_only(pin_curve(i))),
              i);
  }
  EXPECT_EQ(dequeue_order_hash(hfsc), 8108994874654266439ull);
}

TEST(PfqServer, SingleChildAlwaysPicked) {
  PfqServer s(mbps(10), PfqPolicy::SEFF);
  const auto c = s.add_child(mbps(10));
  s.child_backlogged(c, 1000);
  EXPECT_EQ(s.pick(), c);
  s.charge(1000);
  s.child_next_head(c, 500);
  EXPECT_EQ(s.pick(), c);
  s.charge(500);
  s.child_empty(c);
  EXPECT_FALSE(s.any_backlogged());
}

TEST(PfqServer, FinishTimesScaleWithWeight) {
  PfqServer s(mbps(10), PfqPolicy::SEFF);
  const auto heavy = s.add_child(mbps(8));
  const auto light = s.add_child(mbps(2));
  s.child_backlogged(heavy, 1000);
  s.child_backlogged(light, 1000);
  // Equal starts, finish inversely proportional to weight.
  EXPECT_EQ(s.start_of(heavy), s.start_of(light));
  EXPECT_LT(s.finish_of(heavy), s.finish_of(light));
  EXPECT_EQ(s.pick(), heavy);
}

TEST(PfqServer, SeffRequiresEligibility) {
  PfqServer s(mbps(10), PfqPolicy::SEFF);
  const auto a = s.add_child(mbps(5));
  const auto b = s.add_child(mbps(5));
  s.child_backlogged(a, 1000);
  // Serve several of a's packets so its S runs ahead of V.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(s.pick(), a);
    s.charge(1000);
    s.child_next_head(a, 1000);
  }
  EXPECT_GT(s.start_of(a), s.vtime());
  // b arrives with S = V < S_a: despite b's later finish time it is the
  // only eligible child.
  s.child_backlogged(b, 1000);
  EXPECT_EQ(s.pick(), b);
}

TEST(WF2QPlus, SplitsLinkProportionallyToWeights) {
  HPfq sched(mbps(9), PfqPolicy::SEFF);
  const ClassId a = sched.add_class(kRootClass, mbps(6));
  const ClassId b = sched.add_class(kRootClass, mbps(2));
  const ClassId c = sched.add_class(kRootClass, mbps(1));
  Simulator sim(mbps(9), sched);
  sim.add<GreedySource>(a, 1000, 4, 0, sec(4));
  sim.add<GreedySource>(b, 1000, 4, 0, sec(4));
  sim.add<GreedySource>(c, 1000, 4, 0, sec(4));
  sim.run(sec(4));
  EXPECT_NEAR(sim.tracker().rate_mbps(a, sec(1), sec(4)), 6.0, 0.2);
  EXPECT_NEAR(sim.tracker().rate_mbps(b, sec(1), sec(4)), 2.0, 0.2);
  EXPECT_NEAR(sim.tracker().rate_mbps(c, sec(1), sec(4)), 1.0, 0.2);
}

TEST(WF2QPlus, DoesNotPunishExcessUsage) {
  // The WFQ contrast to VirtualClock.PunishesSessionThatUsedIdleCapacity:
  // after b wakes at t=2s, a immediately drops to its fair half.
  HPfq sched(mbps(8), PfqPolicy::SEFF);
  const ClassId a = sched.add_class(kRootClass, mbps(4));
  const ClassId b = sched.add_class(kRootClass, mbps(4));
  Simulator sim(mbps(8), sched);
  sim.add<GreedySource>(a, 1000, 4, 0, sec(4));
  sim.add<GreedySource>(b, 1000, 4, sec(2), sec(4));
  sim.run(sec(4));
  EXPECT_NEAR(sim.tracker().rate_mbps(a, 0, sec(2)), 8.0, 0.3);
  EXPECT_NEAR(sim.tracker().rate_mbps(a, sec(2), sec(4)), 4.0, 0.3);
  EXPECT_NEAR(sim.tracker().rate_mbps(b, sec(2), sec(4)), 4.0, 0.3);
}

TEST(PfqPolicies, AllWorkConserving) {
  for (PfqPolicy policy :
       {PfqPolicy::SSF, PfqPolicy::SFF, PfqPolicy::SEFF}) {
    HPfq sched(mbps(8), policy);
    const ClassId a = sched.add_class(kRootClass, mbps(4));
    const ClassId b = sched.add_class(kRootClass, mbps(4));
    Simulator sim(mbps(8), sched);
    sim.add<GreedySource>(a, 1000, 4, 0, sec(1));
    sim.add<PoissonSource>(b, mbps(2), 800, 0, sec(1), 9);
    sim.run(sec(1));
    // Link never idles while backlogged: busy time == elapsed.
    EXPECT_GT(sim.link().busy_time(), sec(1) - msec(1))
        << static_cast<int>(policy);
  }
}

TEST(HPfq, HierarchySharesFollowTheTree) {
  // Fig. 1 in miniature: two organizations 6:2, each with two leaves.
  HPfq sched(mbps(8));
  const ClassId orgA = sched.add_class(kRootClass, mbps(6));
  const ClassId orgB = sched.add_class(kRootClass, mbps(2));
  const ClassId a1 = sched.add_class(orgA, mbps(4));
  const ClassId a2 = sched.add_class(orgA, mbps(2));
  const ClassId b1 = sched.add_class(orgB, mbps(1));
  const ClassId b2 = sched.add_class(orgB, mbps(1));
  Simulator sim(mbps(8), sched);
  for (ClassId c : {a1, a2, b1, b2}) {
    sim.add<GreedySource>(c, 1000, 4, 0, sec(4));
  }
  sim.run(sec(4));
  const auto& t = sim.tracker();
  EXPECT_NEAR(t.rate_mbps(a1, sec(1), sec(4)), 4.0, 0.25);
  EXPECT_NEAR(t.rate_mbps(a2, sec(1), sec(4)), 2.0, 0.25);
  EXPECT_NEAR(t.rate_mbps(b1, sec(1), sec(4)), 1.0, 0.25);
  EXPECT_NEAR(t.rate_mbps(b2, sec(1), sec(4)), 1.0, 0.25);
}

TEST(HPfq, ExcessStaysInsideTheOrganization) {
  // When a2 goes idle its bandwidth goes to sibling a1, not to org B
  // (the first link-sharing goal of Section I).
  HPfq sched(mbps(8));
  const ClassId orgA = sched.add_class(kRootClass, mbps(4));
  const ClassId orgB = sched.add_class(kRootClass, mbps(4));
  const ClassId a1 = sched.add_class(orgA, mbps(2));
  const ClassId a2 = sched.add_class(orgA, mbps(2));
  const ClassId b1 = sched.add_class(orgB, mbps(4));
  Simulator sim(mbps(8), sched);
  sim.add<GreedySource>(a1, 1000, 4, 0, sec(4));
  sim.add<GreedySource>(a2, 1000, 4, 0, sec(2));  // idles at 2 s
  sim.add<GreedySource>(b1, 1000, 4, 0, sec(4));
  sim.run(sec(4));
  const auto& t = sim.tracker();
  // Before: 2/2/4.  After: a1 inherits a2's share -> 4/0/4.
  EXPECT_NEAR(t.rate_mbps(a1, sec(1), sec(2)), 2.0, 0.25);
  EXPECT_NEAR(t.rate_mbps(a1, sec(2) + msec(200), sec(4)), 4.0, 0.25);
  EXPECT_NEAR(t.rate_mbps(b1, sec(2) + msec(200), sec(4)), 4.0, 0.25);
}

TEST(HPfq, WorkConservingAndCountsDepth) {
  HPfq sched(mbps(8));
  const ClassId mid = sched.add_class(kRootClass, mbps(8));
  const ClassId leaf = sched.add_class(mid, mbps(8));
  EXPECT_EQ(sched.depth_of(leaf), 2u);
  EXPECT_EQ(sched.depth_of(mid), 1u);
  Simulator sim(mbps(8), sched);
  sim.add<GreedySource>(leaf, 1000, 4, 0, sec(1));
  sim.run(sec(1));
  EXPECT_NEAR(sim.tracker().rate_mbps(leaf, 0, sec(1)), 8.0, 0.2);
}

// The fair flat FSC of Fig. 2(d) is H-FSC with ls-only leaves under the
// root (Sections III-B and IV).
TEST(FscFlatSched, NonPunishmentAfterExcess) {
  // The Fig. 2(d) behaviour: with the fair virtual-time modification,
  // session 1 keeps receiving service after session 2 wakes up.
  const ServiceCurve s1{0, msec(200), mbps(6)};        // convex
  const ServiceCurve s2{mbps(8), msec(200), mbps(4)};  // concave
  Hfsc sched(mbps(8));
  const ClassId c1 =
      sched.add_class(kRootClass, ClassConfig::link_share_only(s1));
  const ClassId c2 =
      sched.add_class(kRootClass, ClassConfig::link_share_only(s2));
  Simulator sim(mbps(8), sched);
  const TimeNs t1 = msec(500);
  sim.add<GreedySource>(c1, 1000, 4, 0, sec(2));
  sim.add<GreedySource>(c2, 1000, 4, t1, sec(2));
  sim.run(sec(2));
  // Session 1 is NOT starved after t1 (contrast with the SCED test):
  // both slopes are comparable after re-sync, so session 1 keeps a
  // substantial share.
  EXPECT_GT(sim.tracker().rate_mbps(c1, t1, t1 + msec(200)), 2.0);
}

TEST(FscFlatSched, LinearCurvesShareByRate) {
  Hfsc sched(mbps(8));
  const ClassId a = sched.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(6))));
  const ClassId b = sched.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(2))));
  Simulator sim(mbps(8), sched);
  sim.add<GreedySource>(a, 1000, 4, 0, sec(4));
  sim.add<GreedySource>(b, 1000, 4, 0, sec(4));
  sim.run(sec(4));
  EXPECT_NEAR(sim.tracker().rate_mbps(a, sec(1), sec(4)), 6.0, 0.3);
  EXPECT_NEAR(sim.tracker().rate_mbps(b, sec(1), sec(4)), 2.0, 0.3);
}

}  // namespace
}  // namespace hfsc
