// Basic behavioural tests for the H-FSC scheduler.
#include <gtest/gtest.h>

#include "core/hfsc.hpp"
#include "sim/simulator.hpp"

namespace hfsc {
namespace {

TEST(HfscBasic, EmptySchedulerReturnsNothing) {
  Hfsc sched(mbps(10));
  EXPECT_FALSE(sched.dequeue(0).has_value());
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.backlog_bytes(), 0u);
  EXPECT_EQ(sched.next_wakeup(0), kTimeInfinity);
}

TEST(HfscBasic, SingleClassFifoOrder) {
  Hfsc sched(mbps(10));
  const ClassId c = sched.add_class(
      kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(10))));
  sched.enqueue(0, Packet{c, 100, 0, 0});
  sched.enqueue(0, Packet{c, 200, 0, 1});
  sched.enqueue(0, Packet{c, 300, 0, 2});
  EXPECT_EQ(sched.backlog_packets(), 3u);
  EXPECT_EQ(sched.backlog_bytes(), 600u);
  EXPECT_EQ(sched.dequeue(0)->seq, 0u);
  EXPECT_EQ(sched.dequeue(0)->seq, 1u);
  EXPECT_EQ(sched.dequeue(0)->seq, 2u);
  EXPECT_FALSE(sched.dequeue(0).has_value());
}

TEST(HfscBasic, TracksCriterionCounters) {
  Hfsc sched(mbps(10));
  const ClassId rt = sched.add_class(
      kRootClass,
      ClassConfig::both(ServiceCurve{mbps(10), msec(5), mbps(1)}));
  const ClassId ls = sched.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(9))));
  sched.enqueue(0, Packet{rt, 1000, 0, 0});
  sched.enqueue(0, Packet{ls, 1000, 0, 1});
  // The concave class is immediately eligible with an early deadline; the
  // ls-only class can only go through link-sharing.
  auto p1 = sched.dequeue(0);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->cls, rt);
  EXPECT_EQ(sched.last_criterion(), Criterion::kRealTime);
  auto p2 = sched.dequeue(usec(100));
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->cls, ls);
  EXPECT_EQ(sched.last_criterion(), Criterion::kLinkShare);
  EXPECT_EQ(sched.rt_selections(), 1u);
  EXPECT_EQ(sched.ls_selections(), 1u);
}

TEST(HfscBasic, RtOnlyClassIsShapedAfterEarlyService) {
  // Eligibility of a convex class starts immediately (the eligible curve
  // is the m2-slope line through the activation point, Section V), but it
  // limits *future* real-time service to rate m2: once the class has been
  // served ahead of that line, the next packet must wait and the
  // scheduler goes non-work-conserving, reporting the wakeup time.
  Hfsc sched(mbps(10));
  const ServiceCurve convex{0, msec(10), mbps(1)};
  const ClassId c = sched.add_class(kRootClass,
                                    ClassConfig::real_time_only(convex));
  sched.enqueue(0, Packet{c, 1000, 0, 0});
  sched.enqueue(0, Packet{c, 1000, 0, 1});
  // First packet: eligible at activation (e = E^{-1}(0) = 0).
  auto p = sched.dequeue(0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(sched.last_criterion(), Criterion::kRealTime);
  // Second packet: c = 1000 bytes already served; the m2 = 1 Mb/s line
  // reaches 1000 bytes only at t = 8 ms, so nothing may be sent before.
  EXPECT_FALSE(sched.dequeue(usec(10)).has_value());
  EXPECT_EQ(sched.backlog_packets(), 1u);
  const TimeNs wake = sched.next_wakeup(usec(10));
  EXPECT_EQ(wake, msec(8));
  EXPECT_TRUE(sched.dequeue(wake).has_value());
}

TEST(HfscBasic, RtOnlyEligibleImmediatelyWithConcaveCurve) {
  Hfsc sched(mbps(10));
  const ClassId c = sched.add_class(
      kRootClass,
      ClassConfig::real_time_only(ServiceCurve{mbps(10), msec(5), mbps(1)}));
  sched.enqueue(msec(3), Packet{c, 500, msec(3), 0});
  EXPECT_TRUE(sched.dequeue(msec(3)).has_value());
}

TEST(HfscBasic, LeafIntrospection) {
  Hfsc sched(mbps(10));
  const ClassId org = sched.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(10))));
  const ClassId leaf = sched.add_class(
      org, ClassConfig::both(ServiceCurve::linear(mbps(5))));
  EXPECT_EQ(sched.num_classes(), 3u);  // root + 2
  EXPECT_TRUE(sched.is_leaf(leaf));
  EXPECT_FALSE(sched.is_leaf(org));
  EXPECT_EQ(sched.parent_of(leaf), org);
  EXPECT_EQ(sched.parent_of(org), kRootClass);

  sched.enqueue(0, Packet{leaf, 1000, 0, 0});
  EXPECT_TRUE(sched.active(leaf));
  EXPECT_TRUE(sched.active(org));
  auto p = sched.dequeue(0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(sched.total_work(leaf), 1000u);
  EXPECT_EQ(sched.total_work(org), 1000u);
  EXPECT_EQ(sched.total_work(kRootClass), 1000u);
  EXPECT_FALSE(sched.active(leaf));
  EXPECT_FALSE(sched.active(org));
}

TEST(HfscBasic, WorkConservingWithLsCurves) {
  // As long as every leaf has an ls curve the scheduler never idles while
  // backlogged.
  Hfsc sched(mbps(8));
  const ClassId a = sched.add_class(
      kRootClass,
      ClassConfig::both(ServiceCurve{mbps(6), msec(10), mbps(2)}));
  const ClassId b = sched.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(6))));
  Simulator sim(mbps(8), sched);
  sim.add<OnOffSource>(a, mbps(6), 900, msec(30), msec(30), 0, sec(2), 21);
  sim.add<GreedySource>(b, 1200, 4, 0, sec(2));
  sim.run(sec(2));
  EXPECT_GT(sim.link().busy_time(), sec(2) - msec(1));
}

TEST(HfscBasic, DeepHierarchyDeliversAllTraffic) {
  Hfsc sched(mbps(10));
  ClassId parent = kRootClass;
  for (int depth = 0; depth < 6; ++depth) {
    parent = sched.add_class(
        parent, ClassConfig::link_share_only(ServiceCurve::linear(mbps(10))));
  }
  const ClassId leaf = sched.add_class(
      parent, ClassConfig::both(ServiceCurve::linear(mbps(10))));
  Simulator sim(mbps(10), sched);
  sim.add<CbrSource>(leaf, mbps(8), 1000, 0, sec(1));
  sim.run_all();
  EXPECT_EQ(sim.tracker().packets(leaf), 1000u);
  EXPECT_TRUE(sched.empty());
}

TEST(HfscBasic, ManySiblingsAllServed) {
  Hfsc sched(mbps(100));
  std::vector<ClassId> leaves;
  for (int i = 0; i < 50; ++i) {
    leaves.push_back(sched.add_class(
        kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(2)))));
  }
  Simulator sim(mbps(100), sched);
  for (ClassId c : leaves) sim.add<CbrSource>(c, mbps(1), 500, 0, sec(1));
  sim.run_all();
  for (ClassId c : leaves) {
    EXPECT_EQ(sim.tracker().packets(c), 250u) << "class " << c;
  }
}

}  // namespace
}  // namespace hfsc
