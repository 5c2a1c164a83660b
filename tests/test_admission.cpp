// AdmissionControl edge cases (curve/piecewise.hpp) and the Hfsc-level
// admission gate + starvation watchdog added by the robustness layer.
#include <gtest/gtest.h>

#include "core/auditor.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "curve/piecewise.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

// --- AdmissionControl in isolation ----------------------------------------

TEST(AdmissionControlEdge, ZeroRateLinkThrows) {
  try {
    AdmissionControl ac(0);
    FAIL() << "a zero-rate link can admit nothing and must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kInvalidArgument);
  }
}

TEST(AdmissionControlEdge, ReleasingANeverAdmittedCurveThrows) {
  AdmissionControl ac(mbps(10));
  ASSERT_TRUE(ac.admit(ServiceCurve::linear(mbps(2))));
  try {
    ac.release(ServiceCurve::linear(mbps(3)));  // never admitted
    FAIL() << "silently shrinking the bookkeeping would allow overcommit";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kInvalidArgument);
  }
  // The failed release must not have disturbed the bookkeeping.
  EXPECT_EQ(ac.admitted(), 1u);
  EXPECT_DOUBLE_EQ(ac.utilization(), 0.2);
}

TEST(AdmissionControlEdge, AdmitReleaseCyclesReturnUtilizationToZero) {
  AdmissionControl ac(mbps(10));
  // Jointly feasible on 10 Mb/s: the summed slope peaks at 4+4 = 8 Mb/s.
  const ServiceCurve concave{mbps(4), msec(5), mbps(2)};
  const ServiceCurve convex{0, msec(2), mbps(4)};
  for (int cycle = 0; cycle < 50; ++cycle) {
    ASSERT_TRUE(ac.admit(concave));
    ASSERT_TRUE(ac.admit(convex));
    ASSERT_GT(ac.utilization(), 0.0);
    ac.release(concave);
    ac.release(convex);
    ASSERT_EQ(ac.admitted(), 0u);
    ASSERT_DOUBLE_EQ(ac.utilization(), 0.0);
    // Release is an exact subtraction, so repeated cycles cannot
    // accumulate rounding drift that blocks re-admission.
    ASSERT_TRUE(ac == AdmissionControl(mbps(10)));
  }
}

TEST(AdmissionControlEdge, AdmitsExactlyAtFullLinkRate) {
  AdmissionControl ac(mbps(10));
  ASSERT_TRUE(ac.admit(ServiceCurve::linear(mbps(6))));
  // Fills the link to exactly 100%: sum == link curve, which the
  // feasibility condition (sum <= link) still allows.
  ASSERT_TRUE(ac.admit(ServiceCurve::linear(mbps(4))));
  EXPECT_DOUBLE_EQ(ac.utilization(), 1.0);
  // One more byte per second does not fit.
  EXPECT_FALSE(ac.admit(ServiceCurve::linear(1)));
  EXPECT_EQ(ac.admitted(), 2u);
}

// --- The Hfsc admission gate ----------------------------------------------

TEST(AdmissionGate, DirectMutatorsAreGated) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(10))));
  const ClassId a =
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(6))));
  s.enable_admission_control();
  EXPECT_DOUBLE_EQ(s.admission_utilization(), 0.6);

  // Over the link: rejected, nothing added, rejection counted.
  try {
    s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(5))));
    FAIL() << "oversubscribing add must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kAdmissionRejected);
  }
  EXPECT_EQ(s.num_classes(), 3u);
  EXPECT_EQ(s.admission_rejections(), 1u);

  // Growing a's curve beyond the link: rejected, config unchanged.
  EXPECT_THROW(
      s.change_class(0, a, ClassConfig::both(ServiceCurve::linear(mbps(11)))),
      Error);
  EXPECT_EQ(s.config_of(a).rt, ServiceCurve::linear(mbps(6)));

  // Within the link: admitted, utilization tracks.
  const ClassId b =
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(4))));
  EXPECT_DOUBLE_EQ(s.admission_utilization(), 1.0);
  s.delete_class(b);
  EXPECT_DOUBLE_EQ(s.admission_utilization(), 0.6);
  const AuditReport report = audit(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AdmissionGate, EnableValidatesTheExistingHierarchy) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(10))));
  s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(8))));
  s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(7))));

  // 15 Mb/s of guarantees cannot be promised on a 10 Mb/s link: enabling
  // at the native rate must fail and leave admission OFF.
  EXPECT_THROW(s.enable_admission_control(), Error);
  EXPECT_FALSE(s.admission_enabled());

  // ... but a bigger declared budget can absorb them.
  s.enable_admission_control(mbps(20));
  EXPECT_TRUE(s.admission_enabled());
  EXPECT_DOUBLE_EQ(s.admission_utilization(), 0.75);
  s.disable_admission_control();
  EXPECT_FALSE(s.admission_enabled());
  EXPECT_DOUBLE_EQ(s.admission_utilization(), 0.0);
}

// A refused enable names the first rt curve, in class-id order, that
// overflows the link when the live rt leaves are admitted in id order.
// Interior, deleted and link-share-only classes are skipped.
TEST(AdmissionGate, EnableRefusalNamesTheFirstMisfitInIdOrder) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(10))));
  // Interior: its rt curve is inert.
  const ClassId dept =
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(9))));
  s.add_class(dept, ClassConfig::both(ServiceCurve::linear(mbps(4))));
  const ClassId gone =
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(8))));
  s.delete_class(gone);
  s.add_class(org, ClassConfig::link_share_only(ServiceCurve::linear(mbps(9))));
  s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(5))));
  s.add_class(org, ClassConfig::both(ServiceCurve{mbps(3), msec(2), mbps(2)}));
  s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  try {
    s.enable_admission_control();
    FAIL() << "the leaf guarantees exceed the 10 Mb/s link";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kAdmissionRejected);
    EXPECT_STREQ(e.what(),
                 "admission rejected: existing real-time curves already "
                 "exceed the link curve (offending curve [m1=3.00Mb/s "
                 "d=2.000ms m2=2.00Mb/s]); admission control left "
                 "unchanged");
  }
  EXPECT_FALSE(s.admission_enabled());
  EXPECT_EQ(s.admission_rejections(), 1u);
}

// A refused batch names the first class, in id order, whose rt curve
// overflows the final state's aggregate, not the last curve staged.
TEST(AdmissionGate, BatchRefusalNamesTheFirstMisfitInIdOrder) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(10))));
  const ClassId a =
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(4))));
  const ClassId e =
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  s.enable_admission_control();
  const std::uint64_t digest = state_digest(s);

  Hfsc::Txn txn = s.begin();
  txn.change_class(0, a, ClassConfig::both(ServiceCurve::linear(mbps(6))));
  txn.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(3))));
  const ClassId misfit = txn.add_class(
      org, ClassConfig::both(ServiceCurve{mbps(3), msec(1), mbps(2)}));
  txn.add_class(org, ClassConfig::both(ServiceCurve::linear(kbps(500))));
  txn.delete_class(e);
  try {
    txn.commit();
    FAIL() << "the batch's leaf guarantees exceed the 10 Mb/s link";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), Errc::kAdmissionRejected);
    EXPECT_EQ(misfit, 5u);
    EXPECT_STREQ(err.what(),
                 "admission rejected: committing this batch would put "
                 "real-time curve [m1=3.00Mb/s d=1.000ms m2=2.00Mb/s] "
                 "(class 5) above the link curve; shrink the batch's rt "
                 "curves or raise the admission link rate");
  }
  EXPECT_TRUE(txn.open());
  EXPECT_EQ(state_digest(s), digest);
  EXPECT_EQ(s.admission_rejections(), 1u);
}

TEST(AdmissionGate, OnlyLeafRtCurvesCount) {
  Hfsc s(mbps(10));
  // A leaf with both curves, occupying 60% of the link.
  const ClassId big = s.add_class(
      kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(6))));
  s.enable_admission_control();
  EXPECT_DOUBLE_EQ(s.admission_utilization(), 0.6);

  // Turning `big` into an interior class retires its rt guarantee, making
  // room for children with their own guarantees.
  const ClassId kid1 =
      s.add_class(big, ClassConfig::both(ServiceCurve::linear(mbps(5))));
  EXPECT_DOUBLE_EQ(s.admission_utilization(), 0.5);
  const ClassId kid2 =
      s.add_class(big, ClassConfig::both(ServiceCurve::linear(mbps(5))));
  EXPECT_DOUBLE_EQ(s.admission_utilization(), 1.0);

  // Deleting kid2 frees its share; deleting kid1 would make `big` a leaf
  // again and re-admit its 6 Mb/s — which fits (0.6) once kid1's 5 Mb/s
  // is gone.
  s.delete_class(kid2);
  s.delete_class(kid1);
  EXPECT_DOUBLE_EQ(s.admission_utilization(), 0.6);

  // But a leaf-again transition that does NOT fit must be refused: fill
  // the link, then try to delete the last child of an rt-carrying parent.
  const ClassId kid3 =
      s.add_class(big, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  s.add_class(kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(9))));
  EXPECT_DOUBLE_EQ(s.admission_utilization(), 1.0);
  try {
    s.delete_class(kid3);  // would re-admit big's 6 Mb/s on a full link
    FAIL() << "leaf-again transition must be admission-checked";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kAdmissionRejected);
  }
  EXPECT_FALSE(s.is_deleted(kid3));
  const AuditReport report = audit(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// The aggregate is exact, so it cannot depend on the order curves reach
// it.  A floored piecewise sum did: rebuilding it with the changed curve
// (or a parent turning back into a leaf) appended last produced a curve
// that differed from the id-order rebuild the auditor compares against,
// so audit() flagged a valid hierarchy.  Concave curves with random knees
// on a 10 Gb/s link make the floors disagree for most seeds.
ServiceCurve random_concave(Rng& rng) {
  const RateBps m2 = rng.uniform(1000, 10'000'000 - 1);
  return ServiceCurve{m2 + rng.uniform(0, 10'000'000 - 1),
                      rng.uniform(1, 10'000'000 - 1), m2};
}

TEST(AdmissionGate, ChangeClassKeepsTheAggregateOrderIndependent) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    Hfsc s(gbps(10));
    std::vector<ClassId> leaves;
    for (int i = 0; i < 4; ++i) {
      leaves.push_back(
          s.add_class(kRootClass, ClassConfig::both(random_concave(rng))));
    }
    s.enable_admission_control();
    s.enable_self_check(1);
    const AdmissionControl before = *s.admission_control();
    // Re-applying the same config must leave the aggregate as it was.
    ASSERT_NO_THROW(s.change_class(0, leaves[0], s.config_of(leaves[0])))
        << "seed " << seed;
    EXPECT_TRUE(*s.admission_control() == before) << "seed " << seed;
    const AuditReport report = audit(s);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": " << report.to_string();
  }
}

TEST(AdmissionGate, LeafAgainDeleteKeepsTheAggregateOrderIndependent) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    Hfsc s(gbps(10));
    // The lowest id carries an rt curve and turns interior and back.
    const ClassId parent =
        s.add_class(kRootClass, ClassConfig::both(random_concave(rng)));
    for (int i = 0; i < 3; ++i) {
      s.add_class(kRootClass, ClassConfig::both(random_concave(rng)));
    }
    s.enable_admission_control();
    const AdmissionControl before = *s.admission_control();
    const ClassId kid = s.add_class(
        parent, ClassConfig::link_share_only(ServiceCurve::linear(mbps(1))));
    ASSERT_NO_THROW(s.delete_class(kid)) << "seed " << seed;
    EXPECT_TRUE(*s.admission_control() == before) << "seed " << seed;
    const AuditReport report = audit(s);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": " << report.to_string();
  }
}

// The opt-in self-check audits the state an operation starts from, so it
// must run before the admission gate moves the aggregate to the state the
// operation is about to create.
TEST(AdmissionGate, SelfCheckEveryOpAcceptsGatedMutations) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(
      kRootClass, ClassConfig::both(ServiceCurve{mbps(4), msec(2), mbps(2)}));
  s.enable_admission_control();
  s.enable_self_check(1);
  const ClassId a =
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(3))));
  s.change_class(0, a, ClassConfig::both(ServiceCurve::linear(mbps(5))));
  s.delete_class(a);  // org is a leaf again: its rt curve re-enters
  s.set_queue_limit(org, 8);
  EXPECT_GE(s.self_checks_run(), 4u);
  EXPECT_DOUBLE_EQ(s.admission_utilization(), 0.2);
}

// --- Starvation watchdog ---------------------------------------------------

TEST(Watchdog, FlagsUlBlockedLeafAndCountsOnce) {
  const RateBps link = mbps(10);
  Hfsc s(link);
  // `limited` may use at most 1% of the link through link-sharing;
  // `greedy` soaks up the rest.  With both backlogged, `limited` starves
  // for long stretches on a saturated link.
  const ClassId limited = s.add_class(
      kRootClass, ClassConfig{ServiceCurve{}, ServiceCurve::linear(link / 100),
                              ServiceCurve::linear(link / 100)});
  const ClassId greedy = s.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(link)));
  s.enable_starvation_watchdog(msec(10));
  EXPECT_EQ(s.starvation_horizon(), msec(10));

  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int i = 0; i < 200; ++i) {
    s.enqueue(now, Packet{limited, 1000, now, seq++});
    s.enqueue(now, Packet{greedy, 1000, now, seq++});
  }
  std::uint64_t limited_served = 0;
  while (s.backlog_packets() > 0) {
    const auto p = s.dequeue(now);
    if (!p) break;
    if (p->cls == limited) ++limited_served;
    now += tx_time(p->len, link);
  }
  // The upper limit throttled `limited` hard...
  EXPECT_LT(limited_served, 200u);
  // ...and the watchdog noticed at least one starvation episode without
  // double counting an uninterrupted one on every scan.
  EXPECT_GE(s.starvation_events(), 1u);
  EXPECT_LE(s.starvation_events(), 200u);

  // On-demand query agrees while the leaf is still waiting.
  s.enqueue(now, Packet{limited, 1000, now, seq++});
  const auto starved = s.starved_classes(now + sec(1));
  EXPECT_EQ(starved.size(), 1u);
  EXPECT_EQ(starved[0], limited);
}

TEST(Watchdog, DisabledByDefaultAndQuietWhenServed) {
  Hfsc s(mbps(10));
  const ClassId leaf = s.add_class(
      kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(5))));
  TimeNs now = 0;
  s.enqueue(now, Packet{leaf, 100, now, 0});
  EXPECT_TRUE(s.starved_classes(now + sec(10)).empty());  // disabled: empty

  s.enable_starvation_watchdog(sec(1));
  // Served regularly: never flagged.
  for (int i = 0; i < 100; ++i) {
    s.enqueue(now, Packet{leaf, 100, now, 0});
    while (const auto p = s.dequeue(now)) now += tx_time(p->len, mbps(10));
    now += msec(100);
  }
  EXPECT_EQ(s.starvation_events(), 0u);
  EXPECT_TRUE(s.starved_classes(now).empty());
}

}  // namespace
}  // namespace hfsc
