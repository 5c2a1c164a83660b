// Atomicity fuzzing for Hfsc::Txn (src/core/txn.cpp).
//
// A live scheduler and an identically constructed control twin receive
// the same traffic.  Between traffic bursts the live instance is attacked
// with >= 10k randomly generated COMMIT BATCHES THAT MUST FAIL — a valid
// prefix of staged ops followed by an op that breaks a structural rule
// (add under a backlogged leaf, delete an interior class, reference a
// bogus or twice-deleted id, an unsupported curve shape) or the admission
// feasibility condition.  Every commit must throw, and after the throw
// the live scheduler's state digest (core/checkpoint.hpp) must equal both
// its own pre-batch digest and the control twin's, and its admission
// aggregate must equal its pre-batch value — the scheduler behaves as if
// the batch never existed.  After the fuzz loop both instances are
// drained in lockstep and must release identical packet sequences.
#include <gtest/gtest.h>

#include <vector>

#include "core/auditor.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

struct Twin {
  Hfsc live;
  Hfsc ctrl;
  std::vector<ClassId> orgs;
  std::vector<ClassId> leaves;

  explicit Twin(RateBps link) : live(link), ctrl(link) {
    auto build = [&](Hfsc& s) {
      std::vector<ClassId> ls, os;
      for (int o = 0; o < 2; ++o) {
        const ClassId org = s.add_class(
            kRootClass,
            ClassConfig::link_share_only(ServiceCurve::linear(link / 2)));
        os.push_back(org);
        for (int l = 0; l < 3; ++l) {
          // ~10% of the link each: 60% admission utilization total, so a
          // same-size add still fits but a link-size add cannot.
          ls.push_back(s.add_class(
              org, ClassConfig::both(ServiceCurve::linear(link / 10))));
        }
      }
      s.enable_admission_control();
      orgs = os;
      leaves = ls;
    };
    build(ctrl);
    build(live);
  }
};

TEST(TxnAtomicityFuzz, TenThousandFailingBatchesLeaveNoTrace) {
  const RateBps link = mbps(40);
  Twin tw(link);
  Rng rng(0x7A11);

  TimeNs now = 0;
  std::uint64_t seq = 0;
  constexpr int kBatches = 10'000;
  int by_kind[6] = {0, 0, 0, 0, 0, 0};

  for (int round = 0; round < kBatches; ++round) {
    // Identical traffic to both twins: a small burst, then some drains.
    const int burst = static_cast<int>(rng.uniform(0, 3));
    for (int i = 0; i < burst; ++i) {
      const std::size_t l = rng.uniform(0, tw.leaves.size() - 1);
      const Bytes len = 40 + rng.uniform(0, 1460);
      tw.live.enqueue(now, Packet{tw.leaves[l], len, now, seq});
      tw.ctrl.enqueue(now, Packet{tw.leaves[l], len, now, seq});
      ++seq;
    }
    const int drains = static_cast<int>(rng.uniform(0, 2));
    for (int i = 0; i < drains; ++i) {
      const auto lp = tw.live.dequeue(now);
      const auto cp = tw.ctrl.dequeue(now);
      ASSERT_EQ(lp.has_value(), cp.has_value());
      if (lp) {
        ASSERT_EQ(lp->cls, cp->cls);
        ASSERT_EQ(lp->seq, cp->seq);
        now += tx_time(lp->len, link);
      }
    }
    now += rng.uniform(0, usec(50));

    // Pick the poison kind up front: kind 0 needs a backlogged victim, and
    // any traffic used to create one must land (mirrored to both twins)
    // BEFORE the pre-batch digest is taken.
    const int kind = static_cast<int>(rng.uniform(0, 5));
    ++by_kind[kind];
    ClassId victim = tw.leaves[rng.uniform(0, tw.leaves.size() - 1)];
    if (kind == 0 && !tw.live.active(victim)) {
      tw.live.enqueue(now, Packet{victim, 100, now, seq});
      tw.ctrl.enqueue(now, Packet{victim, 100, now, seq});
      ++seq;
    }

    const std::uint64_t before = state_digest(tw.live);
    const AdmissionControl admission_before = *tw.live.admission_control();

    // Stage a batch that MUST fail: a random valid prefix, then poison.
    Hfsc::Txn txn = tw.live.begin();
    const int prefix = static_cast<int>(rng.uniform(0, 2));
    for (int i = 0; i < prefix; ++i) {
      txn.add_class(tw.orgs[rng.uniform(0, tw.orgs.size() - 1)],
                    ClassConfig::link_share_only(
                        ServiceCurve::linear(kbps(1 + rng.uniform(0, 99)))));
    }
    switch (kind) {
      case 0:  // add under a backlogged leaf
        txn.add_class(victim,
                      ClassConfig::link_share_only(
                          ServiceCurve::linear(kbps(10))));
        break;
      case 1:  // delete an interior class with live children
        txn.delete_class(tw.orgs[rng.uniform(0, tw.orgs.size() - 1)]);
        break;
      case 2:  // reference a class id that does not exist
        txn.change_class(now, static_cast<ClassId>(1u << 30),
                         ClassConfig::link_share_only(
                             ServiceCurve::linear(kbps(10))));
        break;
      case 3: {  // double delete inside the batch
        const ClassId fresh = txn.add_class(
            tw.orgs[0], ClassConfig::link_share_only(
                            ServiceCurve::linear(kbps(10))));
        txn.delete_class(fresh);
        txn.delete_class(fresh);
        break;
      }
      case 4:  // unsupported curve shape (m1 > 0 but not concave)
        txn.change_class(now, tw.leaves[0],
                         ClassConfig::both(
                             ServiceCurve{kbps(10), msec(1), kbps(500)}));
        break;
      default:  // admission: an rt curve the link cannot absorb
        txn.add_class(tw.orgs[0], ClassConfig::both(
                                      ServiceCurve::linear(link)));
        break;
    }

    EXPECT_THROW(txn.commit(), Error) << "batch kind " << kind;
    txn.rollback();

    // Atomicity: bit-for-bit untouched, and still equal to the twin that
    // never saw any transaction at all.
    ASSERT_EQ(state_digest(tw.live), before) << "batch kind " << kind;
    ASSERT_EQ(state_digest(tw.live), state_digest(tw.ctrl));
    // The digest records only that admission is on; the aggregate itself
    // must be exactly what it was before the commit, too.
    ASSERT_TRUE(*tw.live.admission_control() == admission_before)
        << "batch kind " << kind;
    if (round % 1024 == 0) {
      const AuditReport report = audit(tw.live);
      ASSERT_TRUE(report.ok()) << report.to_string();
    }
  }

  // Every poison kind must actually have been generated.
  for (int k = 0; k < 6; ++k) EXPECT_GT(by_kind[k], 0) << "kind " << k;

  // Lockstep drain: identical packet sequences to the last packet.
  while (tw.live.backlog_packets() > 0) {
    const auto lp = tw.live.dequeue(now);
    const auto cp = tw.ctrl.dequeue(now);
    ASSERT_TRUE(lp.has_value());
    ASSERT_TRUE(cp.has_value());
    ASSERT_EQ(lp->cls, cp->cls);
    ASSERT_EQ(lp->seq, cp->seq);
    ASSERT_EQ(lp->len, cp->len);
    now += tx_time(lp->len, link);
  }
  EXPECT_EQ(tw.ctrl.backlog_packets(), 0u);
  EXPECT_GT(tw.live.admission_rejections(), 0u);

  const AuditReport final_report = audit(tw.live);
  EXPECT_TRUE(final_report.ok()) << final_report.to_string();
}

}  // namespace
}  // namespace hfsc
