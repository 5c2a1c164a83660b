// Differential fuzz across the two eligible-set structures of Section V.
//
// H-FSC runs the dual heap; the augmented tree is the reference
// structure, and the E10 ablation (bench/bench_eligible_ablation.cpp)
// only compares like with like if both are observably identical:
// same winner from min_deadline_eligible() — *including* exact deadline
// ties, which must break toward the smallest ClassId — and the same
// next_eligible_time() under the shared contract (0 once eligible, min
// pending e otherwise, kTimeInfinity when empty).
//
// Unlike tests/test_eligible_set.cpp's equivalence fuzz (which only
// compares the winning deadline *value*), this one drives identical
// update/erase/query sequences through both and asserts the
// returned ClassId matches exactly.  Deadlines are quantized to a coarse
// grid so exact ties happen constantly rather than almost never.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/eligible_set.hpp"
#include "support/aug_tree_eligible_set.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

class EligibleAblationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EligibleAblationFuzz, AllKindsReturnIdenticalClassIds) {
  Rng rng(GetParam());
  DualHeapEligibleSet dual;
  AugTreeEligibleSet tree;
  struct Req {
    TimeNs e, d;
  };
  std::map<ClassId, Req> model;
  TimeNs now = 0;

  for (int step = 0; step < 6000; ++step) {
    const ClassId cls = static_cast<ClassId>(rng.uniform(1, 24));
    switch (rng.uniform(0, 2)) {
      case 0: {
        // Coarse grids force frequent exact collisions in both e and d.
        const TimeNs e =
            sat_sub(now + msec(rng.uniform(0, 12)), msec(4));
        const TimeNs d = e + msec(rng.uniform(1, 6));
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
        now += msec(rng.uniform(0, 3));
        // Reference winner: smallest deadline among eligible requests,
        // ties by smallest ClassId (std::map iterates ids ascending, so
        // strict < keeps the first — smallest — id of a tie group).
        std::optional<ClassId> want;
        for (const auto& [id, r] : model) {
          if (r.e <= now && (!want || r.d < model[*want].d)) want = id;
        }
        const auto got_dual = dual.min_deadline_eligible(now);
        const auto got_tree = tree.min_deadline_eligible(now);
        ASSERT_EQ(got_dual, want) << "dual_heap diverges at step " << step;
        ASSERT_EQ(got_tree, want) << "aug_tree diverges at step " << step;

        // Wakeup-hint contract, cross-checked against the model.
        TimeNs want_next = kTimeInfinity;
        for (const auto& [id, r] : model) {
          want_next = std::min(want_next, r.e <= now ? TimeNs{0} : r.e);
        }
        ASSERT_EQ(dual.next_eligible_time(), want_next) << "step " << step;
        ASSERT_EQ(tree.next_eligible_time(), want_next) << "step " << step;
        break;
      }
    }
    ASSERT_EQ(dual.contains(cls), model.count(cls) != 0);
    ASSERT_EQ(tree.contains(cls), model.count(cls) != 0);
    ASSERT_EQ(dual.empty(), model.empty());
    ASSERT_EQ(tree.empty(), model.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EligibleAblationFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace hfsc
