// Tests for the fluid GPS reference and differential fairness tests of
// the packet schedulers against it.
#include <gtest/gtest.h>

#include "core/hfsc.hpp"
#include "sched/hpfq.hpp"
#include "sched/virtual_clock.hpp"
#include "sim/simulator.hpp"
#include "support/gps.hpp"

namespace hfsc {
namespace {

TEST(FluidGps, SharesProportionalToWeights) {
  FluidGps gps(mbps(8));  // 1e6 B/s
  const auto a = gps.add_session(mbps(6));
  const auto b = gps.add_session(mbps(2));
  gps.arrive(0, a, 1'000'000);
  gps.arrive(0, b, 1'000'000);
  gps.advance(sec(1));
  EXPECT_NEAR(gps.service(a), 750'000.0, 1.0);
  EXPECT_NEAR(gps.service(b), 250'000.0, 1.0);
}

TEST(FluidGps, RedistributesOnDrain) {
  FluidGps gps(mbps(8));
  const auto a = gps.add_session(mbps(4));
  const auto b = gps.add_session(mbps(4));
  gps.arrive(0, a, 100'000);   // drains at 0.2 s under a 0.5 share
  gps.arrive(0, b, 1'000'000);
  gps.advance(sec(1));
  EXPECT_NEAR(gps.service(a), 100'000.0, 1.0);
  // b: 500 kB/s * 0.2 s + 1 MB/s * 0.8 s = 900 kB.
  EXPECT_NEAR(gps.service(b), 900'000.0, 10.0);
  EXPECT_NEAR(gps.backlog(b), 100'000.0, 10.0);
}

TEST(FluidGps, IdlePeriodsServeNothing) {
  FluidGps gps(mbps(8));
  const auto a = gps.add_session(mbps(8));
  gps.advance(sec(1));
  EXPECT_EQ(gps.service(a), 0.0);
  gps.arrive(sec(1), a, 500);
  gps.advance(sec(2));
  EXPECT_NEAR(gps.service(a), 500.0, 1e-6);
}

// Differential harness: replay one workload through a packet scheduler
// and the fluid server; track the worst per-session service gap
// GPS_i(t) - W_i(t) sampled at every departure.
struct GapResult {
  double worst_lag = 0.0;   // packet scheduler behind fluid GPS (bytes)
  double worst_lead = 0.0;  // packet scheduler ahead of fluid GPS
};

template <typename MakeSource>
GapResult run_against_gps(Scheduler& sched, FluidGps& gps,
                          const std::vector<ClassId>& classes,
                          MakeSource make_sources) {
  Simulator sim(mbps(8), sched);
  std::vector<double> sent(*std::max_element(classes.begin(), classes.end()) +
                           1);
  sim.link().add_arrival_hook([&](TimeNs t, const Packet& p) {
    gps.arrive(t, p.cls - 1, p.len);  // GPS ids are ClassId-1
  });
  GapResult r;
  sim.link().add_departure_hook([&](TimeNs t, const Packet& p) {
    gps.advance(t);
    sent[p.cls] += static_cast<double>(p.len);
    for (ClassId c : classes) {
      const double gap = gps.service(c - 1) - sent[c];
      r.worst_lag = std::max(r.worst_lag, gap);
      r.worst_lead = std::max(r.worst_lead, -gap);
    }
  });
  make_sources(sim);
  sim.run(sec(4));
  return r;
}

TEST(GpsDifferential, Wf2qPlusTracksGpsWithinPackets) {
  HPfq sched(mbps(8), PfqPolicy::SEFF);  // one level: flat WF2Q+
  const ClassId a = sched.add_class(kRootClass, mbps(6));
  const ClassId b = sched.add_class(kRootClass, mbps(2));
  FluidGps gps(mbps(8));
  gps.add_session(mbps(6));
  gps.add_session(mbps(2));
  const GapResult r = run_against_gps(
      sched, gps, {a, b}, [&](Simulator& sim) {
        // Open-loop overload so both the packet system and the fluid
        // reference see identical arrivals.
        sim.add<CbrSource>(a, mbps(7), 1000, 0, sec(4));
        sim.add<OnOffSource>(b, mbps(8), 600, msec(30), msec(30), 0, sec(4),
                             17);
      });
  // WF2Q+'s service stays within a few packets of fluid GPS either way —
  // the worst-case-fair property.
  EXPECT_LT(r.worst_lag, 10'000.0);
  EXPECT_LT(r.worst_lead, 5'000.0);
}

TEST(GpsDifferential, HfscLinearCurvesTrackGps) {
  Hfsc sched(mbps(8));
  const ClassId a = sched.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(6))));
  const ClassId b = sched.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(2))));
  FluidGps gps(mbps(8));
  gps.add_session(mbps(6));
  gps.add_session(mbps(2));
  const GapResult r = run_against_gps(
      sched, gps, {a, b}, [&](Simulator& sim) {
        sim.add<CbrSource>(a, mbps(7), 1000, 0, sec(4));
        sim.add<OnOffSource>(b, mbps(8), 600, msec(30), msec(30), 0, sec(4),
                             18);
      });
  EXPECT_LT(r.worst_lag, 12'000.0);
  EXPECT_LT(r.worst_lead, 6'000.0);
}

TEST(GpsDifferential, VirtualClockFallsArbitrarilyBehindGps) {
  // The punishment scenario: session a uses the idle link for 2 s, then b
  // wakes.  Under GPS a immediately drops to its fair half; under VC it
  // is starved, so its lag behind GPS grows to hundreds of kilobytes —
  // there is no constant bound (Section III-B's criticism).
  VirtualClock sched;
  const ClassId a = sched.add_session(mbps(4));
  const ClassId b = sched.add_session(mbps(4));
  FluidGps gps(mbps(8));
  gps.add_session(mbps(4));
  gps.add_session(mbps(4));
  const GapResult r = run_against_gps(
      sched, gps, {a, b}, [&](Simulator& sim) {
        sim.add<CbrSource>(a, mbps(8), 1000, 0, sec(4));
        sim.add<CbrSource>(b, mbps(8), 1000, sec(2), sec(4));
      });
  EXPECT_GT(r.worst_lag, 100'000.0);
}

}  // namespace
}  // namespace hfsc
