// Control-plane scale gate: under admission control every reconfiguration
// path — a direct mutator or an Hfsc::Txn commit — costs O(ops * log n)
// plus a walk over the distinct rt knee times, never O(classes).  Any
// per-operation pass over the whole hierarchy (rebuilding the admission
// aggregate, copying the tree into a commit shadow) makes the 50k direct
// adds below quadratic: minutes instead of well under a second, which the
// explicit TIMEOUT of this ctest row (tests/CMakeLists.txt) turns into a
// failure.
#include <gtest/gtest.h>

#include <vector>

#include "core/auditor.hpp"
#include "core/hfsc.hpp"

namespace hfsc {
namespace {

TEST(AdmissionScale, FiftyThousandLeavesDirectThenBatchedThenChurned) {
  constexpr std::size_t kLeaves = 50'000;
  constexpr std::size_t kCommits = 1'000;
  // Four concave rt curves with four distinct knees; 100k of them reserve
  // 8% of the link's long-term rate and 32% of its burst rate.
  const ServiceCurve curves[4] = {
      {kbps(320), msec(1), kbps(80)},
      {kbps(320), msec(2), kbps(80)},
      {kbps(320), msec(5), kbps(80)},
      {kbps(320), msec(10), kbps(80)},
  };
  Hfsc s(gbps(100));
  s.enable_admission_control();

  std::vector<ClassId> leaves;
  leaves.reserve(2 * kLeaves + kCommits);
  for (std::size_t i = 0; i < kLeaves; ++i) {
    leaves.push_back(
        s.add_class(kRootClass, ClassConfig::both(curves[i % 4])));
  }

  Hfsc::Txn bulk = s.begin();
  for (std::size_t i = 0; i < kLeaves; ++i) {
    leaves.push_back(
        bulk.add_class(kRootClass, ClassConfig::both(curves[(i + 1) % 4])));
  }
  bulk.commit();
  ASSERT_EQ(s.num_classes(), 2 * kLeaves + 1);

  // The churn_host cycle: delete one leaf, add one, change another.
  for (std::size_t k = 0; k < kCommits; ++k) {
    Hfsc::Txn txn = s.begin();
    txn.delete_class(leaves[k]);
    leaves.push_back(
        txn.add_class(kRootClass, ClassConfig::both(curves[k % 4])));
    txn.change_class(0, leaves[kLeaves + k],
                     ClassConfig::both(curves[(k + 2) % 4]));
    txn.commit();
  }

  EXPECT_EQ(s.admission_control()->admitted(), 2 * kLeaves);
  EXPECT_EQ(s.admission_rejections(), 0u);
  EXPECT_NEAR(s.admission_utilization(), 0.08, 1e-9);
  const AuditReport report = audit(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace hfsc
