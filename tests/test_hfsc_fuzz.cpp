// Randomized operation fuzzing and long-run stress for H-FSC.
//
// The fuzzer drives a random hierarchy with interleaved enqueues,
// dequeues, idle gaps and runtime reconfigurations, checking structural
// invariants after every step:
//   * packet/byte conservation (in == out + queued + dropped),
//   * per-class FIFO order,
//   * only backlogged leaves are served,
//   * virtual times never decrease,
//   * the scheduler drains completely when asked.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/hfsc.hpp"
#include "sim/guarantee_checker.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

// ctest names each row by the bytes of its case.  The flag is as wide as
// the seed so that the struct has no padding: padding bytes hold whatever
// the stack held, and the row names changed from build to build.
struct FuzzCase {
  std::uint64_t seed;
  int num_orgs;
  int leaves_per_org;
  std::uint64_t reconfigure;  // 0 or 1
};
static_assert(sizeof(FuzzCase) == 24, "FuzzCase must have no padding");

class HfscFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(HfscFuzz, InvariantsHoldUnderRandomOps) {
  const auto [seed, num_orgs, leaves_per_org, reconfigure] = GetParam();
  Rng rng(seed);
  const RateBps link = mbps(100);
  Hfsc sched(link);

  std::vector<ClassId> leaves;
  std::vector<ClassId> all;
  for (int o = 0; o < num_orgs; ++o) {
    const ClassId org = sched.add_class(
        kRootClass,
        ClassConfig::link_share_only(ServiceCurve::linear(
            link / static_cast<RateBps>(num_orgs))));
    all.push_back(org);
    for (int l = 0; l < leaves_per_org; ++l) {
      const RateBps share =
          link / static_cast<RateBps>(num_orgs * leaves_per_org);
      ClassConfig cfg;
      switch (rng.uniform(0, 2)) {
        case 0:
          cfg = ClassConfig::both(
              ServiceCurve{share * 2, msec(1) + rng.uniform(0, msec(5)),
                           1 + share / 2});
          break;
        case 1:
          cfg = ClassConfig::link_share_only(ServiceCurve::linear(share));
          break;
        case 2:
          cfg = ClassConfig::both(
              ServiceCurve{0, rng.uniform(0, msec(5)), share});
          break;
      }
      const ClassId leaf = sched.add_class(org, cfg);
      if (rng.chance(0.3)) sched.set_queue_limit(leaf, 8);
      leaves.push_back(leaf);
      all.push_back(leaf);
    }
  }

  TimeNs now = 0;
  std::uint64_t seq = 0;
  std::uint64_t in_pkts = 0, out_pkts = 0;
  Bytes in_bytes = 0, out_bytes = 0;
  std::map<ClassId, std::uint64_t> last_seq;       // FIFO check
  std::map<ClassId, std::size_t> queued;           // per-leaf backlog model
  std::map<ClassId, TimeNs> last_vt;               // vt monotonicity

  auto check_vts = [&] {
    for (ClassId c : all) {
      const TimeNs vt = sched.vtime(c);
      auto [it, fresh] = last_vt.try_emplace(c, vt);
      if (!fresh) {
        ASSERT_GE(vt, it->second) << "vt went backwards for class " << c;
        it->second = vt;
      }
    }
  };

  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.uniform(0, 9));
    if (op <= 3) {  // enqueue
      const ClassId cls =
          leaves[rng.uniform(0, leaves.size() - 1)];
      const Bytes len = 40 + rng.uniform(0, 1460);
      const std::uint64_t dropped_before = sched.packets_dropped(cls);
      sched.enqueue(now, Packet{cls, len, now, seq++});
      if (sched.packets_dropped(cls) == dropped_before) {
        ++in_pkts;
        in_bytes += len;
        ++queued[cls];
      }
    } else if (op <= 7) {  // dequeue
      const auto p = sched.dequeue(now);
      if (p) {
        ++out_pkts;
        out_bytes += p->len;
        ASSERT_GT(queued[p->cls], 0u) << "served an empty leaf";
        --queued[p->cls];
        auto [it, fresh] = last_seq.try_emplace(p->cls, p->seq);
        if (!fresh) {
          ASSERT_GT(p->seq, it->second) << "FIFO violated in " << p->cls;
          it->second = p->seq;
        }
        // Model the wire: time advances by the serialization delay.
        now += tx_time(p->len, link);
      } else {
        // Refusal must be explainable: either empty or shaped.
        if (!sched.empty()) {
          const TimeNs wake = sched.next_wakeup(now);
          ASSERT_NE(wake, kTimeInfinity) << "stuck with backlog";
          now = std::max(now + 1, wake);
        }
      }
    } else if (op == 8) {  // idle gap
      now += rng.uniform(0, msec(2));
    } else if (reconfigure) {  // occasional curve change
      const ClassId cls = leaves[rng.uniform(0, leaves.size() - 1)];
      const RateBps share =
          link / static_cast<RateBps>(num_orgs * leaves_per_org);
      sched.change_class(
          now, cls,
          ClassConfig::both(ServiceCurve{
              share * (1 + rng.uniform(0, 2)),
              msec(1) + rng.uniform(0, msec(4)), 1 + share / 2}));
    }
    ASSERT_EQ(in_pkts - out_pkts, sched.backlog_packets()) << "step " << step;
    ASSERT_EQ(in_bytes - out_bytes, sched.backlog_bytes()) << "step " << step;
    if (step % 64 == 0) check_vts();
  }

  // Drain everything.
  int guard = 0;
  while (!sched.empty()) {
    const auto p = sched.dequeue(now);
    if (p) {
      ++out_pkts;
      now += tx_time(p->len, link);
    } else {
      const TimeNs wake = sched.next_wakeup(now);
      ASSERT_NE(wake, kTimeInfinity);
      now = std::max(now + 1, wake);
    }
    ASSERT_LT(++guard, 2'000'000) << "drain did not terminate";
  }
  EXPECT_EQ(in_pkts, out_pkts);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HfscFuzz,
    ::testing::Values(FuzzCase{1, 2, 3, false}, FuzzCase{2, 3, 2, false},
                      FuzzCase{3, 1, 6, false}, FuzzCase{4, 4, 4, false},
                      FuzzCase{5, 2, 3, true}, FuzzCase{6, 3, 3, true},
                      FuzzCase{7, 1, 2, true}, FuzzCase{8, 5, 5, true}));

TEST(HfscStress, QuarterMillionPacketsThreeLevels) {
  // A sustained high-load run through a three-level hierarchy; checks
  // conservation, one leaf's guarantee, and that the run completes
  // quickly enough to live in the default test suite.
  const RateBps link = mbps(400);
  Hfsc sched(link);
  std::vector<ClassId> leaves;
  // Feasible by Section II's condition: 16 leaves x {25 Mb/s, 5 ms,
  // 20 Mb/s} sums to {400, 5 ms, 320} <= the 400 Mb/s link curve.
  const ServiceCurve rt_sc{mbps(25), msec(5), mbps(20)};
  for (int o = 0; o < 4; ++o) {
    const ClassId org = sched.add_class(
        kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(100))));
    for (int g = 0; g < 2; ++g) {
      const ClassId grp = sched.add_class(
          org, ClassConfig::link_share_only(ServiceCurve::linear(mbps(50))));
      for (int l = 0; l < 2; ++l) {
        leaves.push_back(sched.add_class(grp, ClassConfig::both(rt_sc)));
      }
    }
  }
  ASSERT_EQ(leaves.size(), 16u);

  Simulator sim(link, sched);
  GuaranteeChecker checker(rt_sc, tx_time(1500, link) + usec(2));
  const ClassId watched = leaves[5];
  sim.link().add_arrival_hook([&](TimeNs t, const Packet& p) {
    if (p.cls == watched) checker.on_arrival(t, p.len);
  });
  sim.link().add_departure_hook([&](TimeNs t, const Packet& p) {
    if (p.cls == watched) checker.on_departure(t, p.len);
  });
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (i % 2 == 0) {
      sim.add<GreedySource>(leaves[i], 1500, 6, 0, sec(6));
    } else {
      sim.add<OnOffSource>(leaves[i], mbps(60), 800, msec(10), msec(10), 0,
                           sec(6), 100 + i);
    }
  }
  sim.run(sec(6));

  std::uint64_t total = 0;
  for (ClassId c : leaves) total += sim.tracker().packets(c);
  EXPECT_GT(total, 250'000u);
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().size() << " violations, max deficit "
      << checker.max_deficit();
  // Work conservation at saturation.
  EXPECT_GT(sim.link().busy_time(), sec(6) - msec(5));
}

}  // namespace
}  // namespace hfsc
