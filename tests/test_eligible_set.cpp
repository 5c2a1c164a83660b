// Tests for the two real-time request structures of Section V, including
// a randomized cross-check between them and a brute-force model.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/eligible_set.hpp"
#include "support/aug_tree_eligible_set.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

template <class Set>
class EligibleSetTest : public ::testing::Test {};

using SetTypes = ::testing::Types<DualHeapEligibleSet, AugTreeEligibleSet>;

TYPED_TEST_SUITE(EligibleSetTest, SetTypes);

TYPED_TEST(EligibleSetTest, EmptyBehaviour) {
  TypeParam set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.min_deadline_eligible(msec(100)).has_value());
  EXPECT_EQ(set.next_eligible_time(), kTimeInfinity);
  EXPECT_FALSE(set.contains(3));
  set.erase(3);  // erasing an absent class is a no-op
}

TYPED_TEST(EligibleSetTest, OnlyEligibleClassesAreReturned) {
  TypeParam set;
  set.update(1, msec(10), msec(20), 0);
  set.update(2, msec(5), msec(50), 0);
  // At t=0 nothing is eligible.
  EXPECT_FALSE(set.min_deadline_eligible(0).has_value());
  // At t=7ms only class 2 (e=5ms) is eligible even though its deadline is
  // later than class 1's.
  auto got = set.min_deadline_eligible(msec(7));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 2u);
  // At t=10ms both are eligible; class 1 has the smaller deadline.
  got = set.min_deadline_eligible(msec(10));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
}

TYPED_TEST(EligibleSetTest, UpdateReplacesRequest) {
  TypeParam set;
  set.update(1, msec(10), msec(20), 0);
  set.update(1, msec(1), msec(99), 0);
  EXPECT_TRUE(set.contains(1));
  auto got = set.min_deadline_eligible(msec(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
}

TYPED_TEST(EligibleSetTest, EraseRemoves) {
  TypeParam set;
  set.update(1, 0, msec(20), 0);
  set.update(2, 0, msec(10), 0);
  set.erase(2);
  EXPECT_FALSE(set.contains(2));
  auto got = set.min_deadline_eligible(msec(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
}

TYPED_TEST(EligibleSetTest, NextEligibleTime) {
  TypeParam set;
  set.update(1, msec(30), msec(40), 0);
  set.update(2, msec(10), msec(90), 0);
  EXPECT_EQ(set.next_eligible_time(), msec(10));
  // Once something is eligible the hint is exactly 0 ("wake immediately"),
  // not merely "not in the future" — Hfsc::next_wakeup folds it into a
  // min with the upper-limit fit times and must not defer a due class.
  (void)set.min_deadline_eligible(msec(15));
  EXPECT_EQ(set.next_eligible_time(), 0u);
}

TYPED_TEST(EligibleSetTest, NextEligibleTimeContract) {
  TypeParam set;
  // Shared contract across both implementations: kTimeInfinity when
  // empty, the minimum pending eligible time while nothing is eligible,
  // and exactly 0 as soon as some member is eligible at the latest `now`
  // the set has observed.
  EXPECT_EQ(set.next_eligible_time(), kTimeInfinity);
  set.update(7, msec(40), msec(50), 0);
  set.update(3, msec(25), msec(90), 0);
  EXPECT_EQ(set.next_eligible_time(), msec(25));
  // An update whose eligible time has already passed makes the class
  // eligible right away, so the hint collapses to 0 without any query.
  set.update(5, msec(1), msec(60), msec(2));
  EXPECT_EQ(set.next_eligible_time(), 0u);
  set.erase(5);
  EXPECT_EQ(set.next_eligible_time(), msec(25));
  // Advancing the clock via a query re-evaluates eligibility.
  (void)set.min_deadline_eligible(msec(30));
  EXPECT_EQ(set.next_eligible_time(), 0u);
  set.erase(3);
  EXPECT_EQ(set.next_eligible_time(), msec(40));
  set.erase(7);
  EXPECT_EQ(set.next_eligible_time(), kTimeInfinity);
}

TYPED_TEST(EligibleSetTest, DeadlineTiesBreakBySmallestClassId) {
  TypeParam set;
  // Both implementations must resolve exact deadline ties the same
  // way (smallest ClassId) so the scheduler's packet order is identical
  // under the eligible-set ablation.  Insert in descending id order to
  // catch structures that keep first-inserted on top.
  set.update(9, msec(1), msec(20), 0);
  set.update(4, msec(2), msec(20), 0);
  set.update(6, msec(3), msec(20), 0);
  auto got = set.min_deadline_eligible(msec(5));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 4u);
  // A strictly smaller deadline still beats a smaller id... (the update
  // passes now = 5ms: `now` must stay monotone across calls on one
  // instance, and the query above already advanced it)
  set.update(8, msec(4), msec(19), msec(5));
  got = set.min_deadline_eligible(msec(5));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 8u);
  // ...and once it leaves, the tie group decides by id again.
  set.erase(8);
  set.erase(4);
  got = set.min_deadline_eligible(msec(5));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 6u);
}

TYPED_TEST(EligibleSetTest, FarFutureEligibleTimeIsNotServedEarly) {
  TypeParam set;
  // An eligible time far ahead of the clock, swept past in many small
  // steps (each one a wheel advance that re-files the straddling slot),
  // must stay invisible until its exact eligible time.
  const TimeNs far_e = msec(100);
  set.update(1, far_e, far_e + msec(1), 0);
  for (TimeNs t = 0; t < far_e; t += msec(4)) {
    EXPECT_FALSE(set.min_deadline_eligible(t).has_value())
        << "served " << t << " ns early";
    EXPECT_TRUE(set.contains(1));
  }
  EXPECT_EQ(set.next_eligible_time(), far_e);
  auto got = set.min_deadline_eligible(far_e);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
}

TYPED_TEST(EligibleSetTest, FarFutureBucketCollisionKeepsNearRequestVisible) {
  TypeParam set;
  // Two requests whose eligible times lie a whole number of 25.6ms apart
  // (1ms and 1ms + 4 * 25.6ms, the keys a fixed-width calendar of
  // 256 x 100us buckets would file together).  The near one must surface
  // on time; the far one must not ride along.
  const TimeNs near_e = msec(1);
  const TimeNs far_e = near_e + 4 * usec(100) * 256;
  set.update(2, far_e, far_e + usec(10), 0);  // smaller deadline overall
  set.update(3, near_e, msec(200), 0);
  auto got = set.min_deadline_eligible(msec(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 3u) << "far entry promoted with the near one";
  got = set.min_deadline_eligible(far_e);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 2u);  // now mature, and its deadline is the smaller
}

// Randomized equivalence: both structures and a brute-force model must
// agree on the *deadline value* of the winner at every query (class ids
// may differ when deadlines tie exactly).
class EligibleSetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EligibleSetFuzz, StructuresAgreeWithBruteForce) {
  Rng rng(GetParam());
  DualHeapEligibleSet dual;
  AugTreeEligibleSet tree;
  struct Req {
    TimeNs e, d;
  };
  std::map<ClassId, Req> model;
  TimeNs now = 0;

  for (int step = 0; step < 4000; ++step) {
    const ClassId cls = static_cast<ClassId>(rng.uniform(1, 40));
    switch (rng.uniform(0, 2)) {
      case 0: {
        const TimeNs e = sat_sub(now + rng.uniform(0, msec(20)), msec(5));
        const TimeNs d = e + rng.uniform(usec(10), msec(30));
        dual.update(cls, e, d, now);
        tree.update(cls, e, d, now);
        model[cls] = {e, d};
        break;
      }
      case 1:
        dual.erase(cls);
        tree.erase(cls);
        model.erase(cls);
        break;
      case 2: {
        now += rng.uniform(0, msec(5));
        std::optional<TimeNs> want;
        for (const auto& [id, r] : model) {
          if (r.e <= now && (!want || r.d < *want)) want = r.d;
        }
        const auto got_dual = dual.min_deadline_eligible(now);
        const auto got_tree = tree.min_deadline_eligible(now);
        ASSERT_EQ(got_dual.has_value(), want.has_value()) << "step " << step;
        ASSERT_EQ(got_tree.has_value(), want.has_value()) << "step " << step;
        if (want) {
          ASSERT_EQ(model[*got_dual].d, *want) << "step " << step;
          ASSERT_EQ(model[*got_tree].d, *want) << "step " << step;
        }
        break;
      }
    }
    ASSERT_EQ(dual.empty(), model.empty());
    ASSERT_EQ(tree.empty(), model.empty());
    ASSERT_EQ(dual.contains(cls), model.count(cls) != 0);
    ASSERT_EQ(tree.contains(cls), model.count(cls) != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EligibleSetFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace hfsc
