// Unit tests for Hfsc::Txn — transactional live reconfiguration
// (src/core/txn.cpp): staging, predicted ids, atomic commit, rollback,
// the equivalence between a committed batch and the same mutations
// applied directly, and the parity of their rules: a direct op and a
// one-op Txn break the same rules with the same error.
#include <gtest/gtest.h>

#include <sstream>

#include "core/auditor.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"

namespace hfsc {
namespace {

ClassConfig ls_only(RateBps r) {
  return ClassConfig::link_share_only(ServiceCurve::linear(r));
}

TEST(Txn, CommitAppliesAllStagedOps) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(kRootClass, ls_only(mbps(10)));

  Hfsc::Txn txn = s.begin();
  const ClassId a = txn.add_class(org, ls_only(mbps(4)));
  const ClassId b = txn.add_class(org, ClassConfig::both(
                                           ServiceCurve::linear(mbps(2))));
  txn.set_queue_limit(a, 7);
  EXPECT_TRUE(txn.open());
  EXPECT_EQ(txn.num_ops(), 3u);
  // Nothing is applied while staging.
  EXPECT_EQ(s.num_classes(), 2u);

  txn.commit();
  EXPECT_FALSE(txn.open());
  EXPECT_EQ(s.num_classes(), 4u);
  EXPECT_TRUE(s.is_leaf(a));
  EXPECT_TRUE(s.is_leaf(b));
  EXPECT_EQ(s.parent_of(a), org);
  EXPECT_EQ(s.parent_of(b), org);
  EXPECT_EQ(s.config_of(b).rt, ServiceCurve::linear(mbps(2)));

  // The staged queue limit is live: the 8th packet tail-drops.
  for (int i = 0; i < 10; ++i) s.enqueue(0, Packet{a, 100, 0, 0});
  EXPECT_EQ(s.backlog_packets(), 7u);

  const AuditReport report = audit(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Txn, StagedIdsAreUsableWithinTheBatch) {
  Hfsc s(mbps(10));
  Hfsc::Txn txn = s.begin();
  // Build a two-level subtree entirely inside the batch, then mutate and
  // partially tear it down — all against predicted ids.
  const ClassId org = txn.add_class(kRootClass, ls_only(mbps(8)));
  const ClassId kid1 = txn.add_class(org, ls_only(mbps(4)));
  const ClassId kid2 = txn.add_class(org, ls_only(mbps(4)));
  txn.change_class(0, kid1, ClassConfig::both(ServiceCurve::linear(mbps(3))));
  txn.delete_class(kid2);
  txn.commit();

  EXPECT_EQ(s.num_classes(), 4u);  // root + org + kid1 + tombstoned kid2
  EXPECT_FALSE(s.is_deleted(org));
  EXPECT_FALSE(s.is_deleted(kid1));
  EXPECT_TRUE(s.is_deleted(kid2));
  EXPECT_EQ(s.config_of(kid1).rt, ServiceCurve::linear(mbps(3)));
  const AuditReport report = audit(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Txn, RollbackAndDestructorLeaveNoTrace) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(kRootClass, ls_only(mbps(10)));
  const std::uint64_t before = state_digest(s);

  Hfsc::Txn txn = s.begin();
  txn.add_class(org, ls_only(mbps(1)));
  txn.delete_class(org);
  txn.rollback();
  EXPECT_FALSE(txn.open());
  EXPECT_EQ(state_digest(s), before);

  {
    Hfsc::Txn dropped = s.begin();
    dropped.add_class(org, ls_only(mbps(1)));
    // Destroyed while open: the destructor rolls back.
  }
  EXPECT_EQ(state_digest(s), before);
}

TEST(Txn, FailedCommitIsAtomicAndLeavesTheTxnOpen) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(kRootClass, ls_only(mbps(10)));
  const ClassId leaf = s.add_class(org, ls_only(mbps(5)));
  const std::uint64_t before = state_digest(s);

  Hfsc::Txn txn = s.begin();
  txn.add_class(org, ls_only(mbps(1)));     // valid
  txn.delete_class(org);                    // invalid: org still has `leaf`
  try {
    txn.commit();
    FAIL() << "commit of an invalid batch must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kHasChildren);
  }
  EXPECT_TRUE(txn.open());  // fixable: drop the bad op by re-staging
  EXPECT_EQ(state_digest(s), before);
  EXPECT_EQ(s.num_classes(), 3u);

  // The same handle can be rolled back and a fresh batch committed.
  txn.rollback();
  Hfsc::Txn retry = s.begin();
  retry.delete_class(leaf);
  retry.delete_class(org);  // valid now: its only child dies first
  retry.commit();
  EXPECT_TRUE(s.is_deleted(org));
  EXPECT_TRUE(s.is_deleted(leaf));
}

TEST(Txn, OpsOnClosedTxnThrow) {
  Hfsc s(mbps(10));
  Hfsc::Txn txn = s.begin();
  txn.add_class(kRootClass, ls_only(mbps(1)));
  txn.commit();
  EXPECT_THROW(txn.add_class(kRootClass, ls_only(mbps(1))), Error);
  EXPECT_THROW(txn.commit(), Error);
  try {
    txn.delete_class(1);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kTxnInvalid);
  }
}

TEST(Txn, DirectAddsWhileOpenInvalidateStagedIds) {
  Hfsc s(mbps(10));
  Hfsc::Txn txn = s.begin();
  txn.add_class(kRootClass, ls_only(mbps(1)));
  // A direct (non-transactional) add shifts the id the staged add would
  // get, so the commit must refuse rather than attach ops to the wrong
  // class.
  s.add_class(kRootClass, ls_only(mbps(2)));
  try {
    txn.commit();
    FAIL() << "stale staged ids must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kTxnInvalid);
  }

  // Batches without adds are immune to id shift and still commit.
  const ClassId direct = 1;
  Hfsc::Txn txn2 = s.begin();
  txn2.set_queue_limit(direct, 3);
  s.add_class(kRootClass, ls_only(mbps(3)));
  txn2.commit();
}

TEST(Txn, CommittedBatchMatchesDirectMutationsBitForBit) {
  const auto build = [](Hfsc& s, bool transactional) {
    const ClassId org = s.add_class(
        kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(8))));
    if (transactional) {
      Hfsc::Txn txn = s.begin();
      const ClassId a = txn.add_class(org, ClassConfig::both(
                                               ServiceCurve::linear(mbps(2))));
      const ClassId b = txn.add_class(
          org, ClassConfig::both(ServiceCurve{mbps(4), msec(2), mbps(1)}));
      txn.set_queue_limit(a, 64);
      txn.change_class(0, b,
                       ClassConfig::both(ServiceCurve::linear(mbps(3))));
      txn.commit();
    } else {
      const ClassId a = s.add_class(org, ClassConfig::both(
                                             ServiceCurve::linear(mbps(2))));
      const ClassId b = s.add_class(
          org, ClassConfig::both(ServiceCurve{mbps(4), msec(2), mbps(1)}));
      s.set_queue_limit(a, 64);
      s.change_class(0, b, ClassConfig::both(ServiceCurve::linear(mbps(3))));
    }
  };
  Hfsc via_txn(mbps(10));
  Hfsc direct(mbps(10));
  build(via_txn, true);
  build(direct, false);
  EXPECT_EQ(state_digest(via_txn), state_digest(direct));
}

TEST(Txn, CommitValidatesAgainstBacklogAtCommitTime) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(kRootClass, ls_only(mbps(10)));
  const ClassId leaf = s.add_class(org, ls_only(mbps(5)));

  Hfsc::Txn txn = s.begin();
  txn.add_class(leaf, ls_only(mbps(1)));  // leaf is quiet right now...
  s.enqueue(0, Packet{leaf, 100, 0, 0});  // ...but gains backlog pre-commit
  try {
    txn.commit();
    FAIL() << "adding under a backlogged class must fail at commit";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kHasBacklog);
  }
  EXPECT_EQ(s.backlog_packets(), 1u);
  const AuditReport report = audit(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// The parity fixture on a 10 Mb/s link.  Admission, when on, gates the
// rt leaves `leaf` (3 Mb/s) and `rt_only` (2 Mb/s); `org`'s 9 Mb/s rt
// curve is inert while `leaf` is its only child.
struct Fixture {
  static constexpr ClassId kOrg = 1;      // interior: ls 8, rt 9 (inert)
  static constexpr ClassId kLeaf = 2;     // org's only child: rt = ls 3
  static constexpr ClassId kRtOnly = 3;   // leaf with no ls curve
  static constexpr ClassId kDeleted = 4;  // tombstone
  static constexpr ClassId kBusy = 5;     // leaf with a queued packet

  static Hfsc build(bool admission) {
    Hfsc s(mbps(10));
    s.add_class(kRootClass,
                ClassConfig{ServiceCurve::linear(mbps(9)),
                            ServiceCurve::linear(mbps(8)), ServiceCurve{}});
    s.add_class(kOrg, ClassConfig::both(ServiceCurve::linear(mbps(3))));
    s.add_class(kRootClass,
                ClassConfig::real_time_only(ServiceCurve::linear(mbps(2))));
    s.delete_class(s.add_class(kRootClass, ls_only(mbps(1))));
    s.add_class(kRootClass, ls_only(mbps(1)));
    s.enqueue(0, Packet{kBusy, 100, 0, 0});
    if (admission) s.enable_admission_control();
    return s;
  }
};

// The Errc `fn` throws; kInvariantViolation stands for "did not throw".
template <class Fn>
Errc error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  return Errc::kInvariantViolation;
}

TEST(Txn, DirectAndTransactionalOpsBreakTheSameRules) {
  using Kind = Hfsc::Op::Kind;
  using F = Fixture;
  const ClassConfig ls1 = ls_only(mbps(1));
  const ServiceCurve convex_m1{mbps(1), msec(1), mbps(2)};  // unsupported
  struct Case {
    const char* rule;
    bool admission;
    Hfsc::Op op;
    Errc want;
  };
  const Case cases[] = {
      {"add under an unknown parent", false,
       {.kind = Kind::kAdd, .parent = 99, .cfg = ls1}, Errc::kInvalidClass},
      {"add under a deleted parent", false,
       {.kind = Kind::kAdd, .parent = F::kDeleted, .cfg = ls1},
       Errc::kInvalidClass},
      {"add under a backlogged parent", false,
       {.kind = Kind::kAdd, .parent = F::kBusy, .cfg = ls1},
       Errc::kHasBacklog},
      {"add under a parent without ls", false,
       {.kind = Kind::kAdd, .parent = F::kRtOnly, .cfg = ls1},
       Errc::kMissingCurve},
      {"change an interior class to drop ls", false,
       {.kind = Kind::kChange,
        .cls = F::kOrg,
        .cfg = ClassConfig::real_time_only(ServiceCurve::linear(mbps(1)))},
       Errc::kMissingCurve},
      {"add with an unsupported curve", false,
       {.kind = Kind::kAdd, .cfg = ClassConfig::both(convex_m1)},
       Errc::kUnsupportedCurve},
      {"change to an unsupported curve", false,
       {.kind = Kind::kChange,
        .cls = F::kLeaf,
        .cfg = ClassConfig::link_share_only(convex_m1)},
       Errc::kUnsupportedCurve},
      {"add with neither rt nor ls", false,
       {.kind = Kind::kAdd, .cfg = ClassConfig{}}, Errc::kMissingCurve},
      {"change a leaf to neither rt nor ls", false,
       {.kind = Kind::kChange, .cls = F::kLeaf, .cfg = ClassConfig{}},
       Errc::kMissingCurve},
      {"change a deleted class", false,
       {.kind = Kind::kChange, .cls = F::kDeleted, .cfg = ls1},
       Errc::kInvalidClass},
      {"delete an unknown class", false,
       {.kind = Kind::kDelete, .cls = 99}, Errc::kInvalidClass},
      {"delete the root", false,
       {.kind = Kind::kDelete, .cls = kRootClass}, Errc::kInvalidClass},
      {"delete a class with children", false,
       {.kind = Kind::kDelete, .cls = F::kOrg}, Errc::kHasChildren},
      {"queue limit on a deleted class", false,
       {.kind = Kind::kQueueLimit, .cls = F::kDeleted, .limit = 4},
       Errc::kInvalidClass},
      {"admission: add an rt leaf that overflows", true,
       {.kind = Kind::kAdd,
        .cfg = ClassConfig::real_time_only(ServiceCurve::linear(mbps(6)))},
       Errc::kAdmissionRejected},
      {"admission: change a leaf's rt to overflow", true,
       {.kind = Kind::kChange,
        .cls = F::kLeaf,
        .cfg = ClassConfig::both(ServiceCurve::linear(mbps(9)))},
       Errc::kAdmissionRejected},
      {"admission: delete re-leafs a parent that overflows", true,
       {.kind = Kind::kDelete, .cls = F::kLeaf}, Errc::kAdmissionRejected},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rule);
    Hfsc direct = Fixture::build(c.admission);
    Hfsc batched = Fixture::build(c.admission);
    const std::uint64_t before = state_digest(direct);
    ASSERT_EQ(state_digest(batched), before);
    const std::uint64_t rejections = direct.admission_rejections();

    EXPECT_EQ(error_of([&] { direct.apply(c.op); }), c.want);
    Hfsc::Txn txn = batched.begin();
    txn.stage(c.op);
    EXPECT_EQ(error_of([&] { txn.commit(); }), c.want);

    EXPECT_EQ(state_digest(direct), before);
    EXPECT_EQ(state_digest(batched), before);
    const std::uint64_t moved = c.want == Errc::kAdmissionRejected ? 1 : 0;
    EXPECT_EQ(direct.admission_rejections(), rejections + moved);
    EXPECT_EQ(batched.admission_rejections(), rejections + moved);
  }
}

}  // namespace
}  // namespace hfsc
