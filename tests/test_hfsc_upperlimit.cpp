// Tests for the upper-limit service curve extension (the rate-capping
// feature of the authors' ALTQ/NetBSD implementation; DESIGN.md S13), and
// the dequeue-order pin of a deep tree whose upper limits bind.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/auditor.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "sim/simulator.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

TEST(HfscUpperLimit, CapsAGreedyClass) {
  Hfsc sched(mbps(10));
  ClassConfig cfg = ClassConfig::link_share_only(ServiceCurve::linear(mbps(10)));
  cfg.ul = ServiceCurve::linear(mbps(3));  // hard cap at 3 Mb/s
  const ClassId capped = sched.add_class(kRootClass, cfg);
  Simulator sim(mbps(10), sched);
  sim.add<GreedySource>(capped, 1000, 4, 0, sec(3));
  sim.run(sec(3));
  // Despite a 10 Mb/s ls curve and an idle link, output is shaped to 3.
  EXPECT_NEAR(sim.tracker().rate_mbps(capped, msec(200), sec(3)), 3.0, 0.15);
  // The link was mostly idle: the scheduler is non-work-conserving here.
  EXPECT_LT(sim.link().busy_time(), sec(1) + msec(200));
}

TEST(HfscUpperLimit, UncappedSiblingTakesTheRest) {
  Hfsc sched(mbps(10));
  ClassConfig cfg_capped =
      ClassConfig::link_share_only(ServiceCurve::linear(mbps(5)));
  cfg_capped.ul = ServiceCurve::linear(mbps(2));
  const ClassId capped = sched.add_class(kRootClass, cfg_capped);
  const ClassId open = sched.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(5))));
  Simulator sim(mbps(10), sched);
  sim.add<GreedySource>(capped, 1000, 4, 0, sec(3));
  sim.add<GreedySource>(open, 1000, 4, 0, sec(3));
  sim.run(sec(3));
  EXPECT_NEAR(sim.tracker().rate_mbps(capped, msec(200), sec(3)), 2.0, 0.15);
  EXPECT_NEAR(sim.tracker().rate_mbps(open, msec(200), sec(3)), 8.0, 0.3);
}

TEST(HfscUpperLimit, DoesNotAffectRealTimeGuarantee) {
  // The cap applies to the link-sharing criterion; a leaf's rt curve
  // still delivers (kernel semantics: ul shapes the ls path only).
  Hfsc sched(mbps(10));
  ClassConfig cfg = ClassConfig::both(ServiceCurve::linear(mbps(4)));
  cfg.ul = ServiceCurve::linear(mbps(1));
  const ClassId c = sched.add_class(kRootClass, cfg);
  Simulator sim(mbps(10), sched);
  sim.add<CbrSource>(c, mbps(4), 1000, 0, sec(2));
  sim.run(sec(2));
  // The rt curve (4 Mb/s) dominates the 1 Mb/s cap.
  EXPECT_NEAR(sim.tracker().rate_mbps(c, msec(200), sec(2)), 4.0, 0.2);
}

TEST(HfscUpperLimit, BurstAllowanceThenSustained) {
  // A concave upper limit allows an initial burst then clamps to m2.
  Hfsc sched(mbps(10));
  ClassConfig cfg = ClassConfig::link_share_only(ServiceCurve::linear(mbps(10)));
  cfg.ul = ServiceCurve{mbps(10), msec(100), mbps(2)};
  const ClassId c = sched.add_class(kRootClass, cfg);
  Simulator sim(mbps(10), sched);
  sim.add<GreedySource>(c, 1000, 4, 0, sec(3));
  sim.run(sec(3));
  // First 100 ms: full speed.  Afterwards: 2 Mb/s.
  EXPECT_GT(sim.tracker().rate_mbps(c, 0, msec(100)), 8.0);
  EXPECT_NEAR(sim.tracker().rate_mbps(c, msec(500), sec(3)), 2.0, 0.15);
}

TEST(HfscUpperLimit, IdleDoesNotBankCredit) {
  // The ul curve re-anchors on activation (min-fold): a long idle period
  // must not allow a catch-up burst beyond the curve's own burst term.
  Hfsc sched(mbps(10));
  ClassConfig cfg = ClassConfig::link_share_only(ServiceCurve::linear(mbps(10)));
  cfg.ul = ServiceCurve::linear(mbps(2));  // no burst term at all
  const ClassId c = sched.add_class(kRootClass, cfg);
  Simulator sim(mbps(10), sched);
  sim.add<GreedySource>(c, 1000, 4, sec(1), sec(3));  // idle first second
  sim.run(sec(3));
  EXPECT_EQ(sim.tracker().bytes(c) > 0, true);
  // Over (1s, 3s) the class is still held to 2 Mb/s — no credit for the
  // idle first second.
  EXPECT_NEAR(sim.tracker().rate_mbps(c, sec(1), sec(3)), 2.0, 0.15);
}

// An interior class that its own upper limit lets through, but whose
// active children are all blocked, must not idle the link: as in ALTQ, an
// interior class's fit time is the later of its own and its children's
// earliest, so link-sharing moves on to the next sibling.
//
//   root ── A ── A1 (ul C/100)          A and B: ls C/2 each
//        └─ B ── B1                     A1 and B1: ls C/2
//
// Both leaves stay backlogged with 1000-byte packets on a 1 MB/s link,
// one transmit slot (1 ms) per dequeue.  A's virtual time trails B's
// while A1 waits on its cap, so A is the min-vt child at nearly every
// slot; each slot A1 cannot use must go to B1.
TEST(HfscUpperLimit, BlockedSubtreeLeavesTheLinkToItsSibling) {
  constexpr RateBps kLink = 1'000'000;
  constexpr Bytes kLen = 1000;
  Hfsc s(kLink);
  s.enable_self_check(1);
  const auto ls = ClassConfig::link_share_only(ServiceCurve::linear(kLink / 2));
  ClassConfig capped = ls;
  capped.ul = ServiceCurve::linear(kLink / 100);
  const ClassId A = s.add_class(kRootClass, ls);
  const ClassId B = s.add_class(kRootClass, ls);
  const ClassId A1 = s.add_class(A, capped);
  const ClassId B1 = s.add_class(B, ls);
  std::uint64_t seq = 0;
  std::uint64_t sent_a1 = 0;
  std::uint64_t sent_b1 = 0;
  std::uint64_t idle = 0;
  constexpr int kSlots = 2000;
  for (int slot = 0; slot < kSlots; ++slot) {
    const TimeNs now = slot * tx_time(kLen, kLink);
    for (const ClassId leaf : {A1, B1}) {
      while (s.queued_bytes(leaf) < 2 * kLen) {
        s.enqueue(now, Packet{leaf, kLen, now, seq++});
      }
    }
    const auto p = s.dequeue(now);
    if (!p) {
      ++idle;
    } else if (p->cls == A1) {
      ++sent_a1;
    } else {
      ++sent_b1;
    }
  }
  // A1's cap: 10 packets a second, 20 over the 2 s run.
  EXPECT_NEAR(static_cast<double>(sent_a1), 20.0, 1.0);
  EXPECT_EQ(idle, 0u);
  EXPECT_EQ(sent_b1, kSlots - sent_a1);
}

// The same shape at the bottom of a 100k-deep chain: the descent goes
// down the chain and back up without recursing, and still finds B1.
TEST(HfscUpperLimit, BlockedLeafUnderADeepChainLeavesTheLinkToItsSibling) {
  constexpr RateBps kLink = 1'000'000;
  constexpr Bytes kLen = 1000;
  constexpr int kDepth = 100'000;
  Hfsc s(kLink);
  const auto ls = ClassConfig::link_share_only(ServiceCurve::linear(kLink / 2));
  ClassId bottom = kRootClass;
  for (int i = 0; i < kDepth; ++i) bottom = s.add_class(bottom, ls);
  ClassConfig capped = ls;
  capped.ul = ServiceCurve::linear(kLink / 100);
  const ClassId A1 = s.add_class(bottom, capped);
  const ClassId B1 = s.add_class(kRootClass, ls);
  s.enqueue(0, Packet{A1, kLen, 0, 0});
  s.enqueue(0, Packet{A1, kLen, 0, 1});
  s.enqueue(0, Packet{B1, kLen, 0, 2});
  s.enqueue(0, Packet{B1, kLen, 0, 3});
  // After its first packet A1's cap blocks it for 100 ms.  B1's first
  // packet brings it level with the chain's top class in virtual time,
  // the tie goes to the chain (the lower index), and the descent must
  // come back out of the chain for B1's second packet.
  std::vector<ClassId> order;
  for (TimeNs now = 0; const auto p = s.dequeue(now);
       now += tx_time(kLen, kLink)) {
    order.push_back(p->cls);
  }
  EXPECT_EQ(order, (std::vector<ClassId>{A1, B1, B1}));
  EXPECT_TRUE(audit(s).ok());
}

// FNV-1a-64 of the (cls, seq) dequeue order of a seeded three-level tree
// whose upper limits bind at two levels (A at depth 1, A1 at depth 2):
//
//   root ── A (ul) ── A1 (ul) ── a1 (rt+ls) a2 a3 a4
//        │        └─ A2 ─────── b1 (rt only) b2 b3 b4
//        └─ B ─────── B1 ─────── c1 (rt+ls) c2 c3
//                 └─ B2
//
// The link is modelled (one packet in flight), arrivals alternate between
// overload and underload so backlogs rise and fall, and the run is cut by
// the control-plane changes that move a parent's min-vt child: a Txn that
// deletes the top active child of A1 and a child of A2 whose swap-remove
// moves an active sibling, then an add under B1 and a change_class of an
// active B2.  Later a checkpoint -> restore_checkpoint round trip hands
// the run to the restored scheduler.  Every operation is audited.
TEST(DequeueOrderPins, DeepHfscWithUpperLimits) {
  const auto ls = [](RateBps r) {
    return ClassConfig::link_share_only(ServiceCurve::linear(r));
  };
  const auto capped = [&](RateBps r, const ServiceCurve& ul) {
    ClassConfig cfg = ls(r);
    cfg.ul = ul;
    return cfg;
  };
  std::optional<Hfsc> live(std::in_place, mbps(10));
  Hfsc* s = &*live;
  s->enable_self_check(1);
  const ClassId A = s->add_class(kRootClass, capped(mbps(6),
                                 ServiceCurve::linear(mbps(5))));
  const ClassId B = s->add_class(kRootClass, ls(mbps(4)));
  const ClassId A1 = s->add_class(A, capped(mbps(3),
                                  ServiceCurve{mbps(4), msec(10), mbps(2)}));
  const ClassId A2 = s->add_class(A, ls(mbps(3)));
  const ClassId B1 = s->add_class(B, ls(mbps(2)));
  const ClassId B2 = s->add_class(B, ls(mbps(2)));
  // The test's own copy of each parent's children list, kept in the
  // scheduler's order (append on add, swap-remove on delete).
  std::vector<std::vector<ClassId>> kids(64);
  std::vector<ClassId> leaves{B2};
  kids[B].push_back(B2);
  const auto add_leaf = [&](ClassId parent, const ClassConfig& cfg) {
    const ClassId c = s->add_class(parent, cfg);
    kids[parent].push_back(c);
    leaves.push_back(c);
    return c;
  };
  ClassConfig a1 = ls(mbps(1));
  a1.rt = ServiceCurve::linear(kbps(500));
  add_leaf(A1, a1);
  add_leaf(A1, ls(mbps(1)));
  add_leaf(A1, ls(mbps(2)));
  add_leaf(A1, ls(kbps(500)));
  add_leaf(A2, ClassConfig::real_time_only(ServiceCurve::linear(kbps(400))));
  add_leaf(A2, ls(mbps(1)));
  add_leaf(A2, ls(mbps(2)));
  add_leaf(A2, ls(mbps(1)));
  ClassConfig c1 = ls(mbps(1));
  c1.rt = ServiceCurve{mbps(2), msec(5), kbps(500)};
  add_leaf(B1, c1);
  add_leaf(B1, ls(mbps(1)));
  add_leaf(B1, ls(mbps(3)));

  const auto erase_leaf = [&](ClassId parent, std::size_t i) {
    std::vector<ClassId>& k = kids[parent];
    const ClassId gone = k[i];
    k[i] = k.back();
    k.pop_back();
    leaves.erase(std::find(leaves.begin(), leaves.end(), gone));
    return gone;
  };

  Rng rng(0xD33B);
  std::string order;
  std::uint64_t seq = 0;
  TimeNs now = 0;
  TimeNs link_free = 0;
  for (int step = 1; step <= 24'000; ++step) {
    now += usec(100);
    const double load = (step / 2000) % 2 == 0 ? 0.3 : 0.04;
    if (rng.chance(load)) {
      const ClassId cls = leaves[rng.uniform(0, leaves.size() - 1)];
      const auto len = static_cast<Bytes>(rng.uniform(64, 1500));
      s->enqueue(now, Packet{cls, len, now, seq++});
    }
    if (now >= link_free) {
      if (const auto p = s->dequeue(now)) {
        order.append(reinterpret_cast<const char*>(&p->cls), sizeof p->cls);
        order.append(reinterpret_cast<const char*>(&p->seq), sizeof p->seq);
        link_free = now + tx_time(p->len, mbps(10));
      }
    }
    if (step == 5'500) {
      // The active leaf of A1 with the smallest (vt, index): A1's top.
      std::optional<std::size_t> top;
      for (std::size_t i = 0; i < kids[A1].size(); ++i) {
        const ClassId c = kids[A1][i];
        if (s->active(c) &&
            (!top || s->vtime(c) < s->vtime(kids[A1][*top]))) {
          top = i;
        }
      }
      ASSERT_TRUE(top.has_value());
      // A child of A2 whose swap-remove moves the active last sibling.
      ASSERT_TRUE(s->active(kids[A2].back()));
      Hfsc::Txn txn = s->begin();
      txn.delete_class(erase_leaf(A1, *top));
      txn.delete_class(erase_leaf(A2, 0));
      txn.commit();
      ASSERT_TRUE(s->active(B2));
      add_leaf(B1, ls(mbps(1)));
      ClassConfig cfg = capped(mbps(3), ServiceCurve::linear(mbps(2)));
      cfg.ls = ServiceCurve{mbps(5), msec(20), mbps(3)};
      s->change_class(now, B2, cfg);
    }
    if (step == 15'000) {
      std::string image;
      checkpoint(*s, image);
      Hfsc restored = restore_checkpoint(image);
      live.reset();
      live.emplace(std::move(restored));
      s = &*live;
      s->enable_self_check(1);
    }
  }
  EXPECT_TRUE(audit(*s).ok());
  EXPECT_GT(s->ls_selections(), 0u);
  EXPECT_EQ(fnv1a64(order), 17051955420986248380ull);
}

}  // namespace
}  // namespace hfsc
