// Differential fuzz of the exact admission aggregate (curve/piecewise.hpp
// AdmissionControl, wired into Hfsc by core/hfsc.cpp and core/txn.cpp).
//
// Every verdict is checked against a brute-force exact reference: a set of
// curves fits a link of rate R iff  sum_i S_i(x) * 1e9 <= R * x  (both
// sides in nanobytes, no rounding) at every knee x of the set, and the
// summed tail slope is at most R.  Every state is checked for equality
// against an aggregate rebuilt from the same curves in shuffled order, so
// neither the verdicts nor the bookkeeping may depend on arrival order.
//
// Curves mix concave, convex (m1 == 0) and linear shapes, with knees drawn
// either from a small shared set or at random, and rates on a coarse grid
// so that sums land exactly on the link curve as well as just above it.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/auditor.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "curve/piecewise.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

constexpr RateBps kLink = 1'000'000;  // bytes/s
constexpr RateBps kStep = 50'000;     // rate grid: sums hit kLink exactly

ServiceCurve random_curve(Rng& rng) {
  const TimeNs shared[] = {1'000, 2'000, 5'000};
  const TimeNs d = rng.chance(0.5) ? shared[rng.uniform(0, 2)]
                                   : rng.uniform(1, 10'000);
  switch (rng.uniform(0, 2)) {
    case 0: {  // concave, possibly flattening out (m2 == 0)
      const RateBps m2 = kStep * rng.uniform(0, 6);
      return ServiceCurve{m2 + kStep * rng.uniform(1, 8), d, m2};
    }
    case 1:  // convex: flat first segment
      return ServiceCurve{0, d, kStep * rng.uniform(1, 8)};
    default:
      return ServiceCurve::linear(kStep * rng.uniform(1, 8));
  }
}

using Nb = unsigned __int128;

// Exact S(x) in nanobytes.
Nb nanobytes(const ServiceCurve& sc, TimeNs x) {
  if (sc.d == 0) return static_cast<Nb>(sc.m2) * x;
  if (x < sc.d) return static_cast<Nb>(sc.m1) * x;
  return static_cast<Nb>(sc.m1) * sc.d + static_cast<Nb>(sc.m2) * (x - sc.d);
}

bool reference_fits(const std::vector<ServiceCurve>& set, RateBps link) {
  Nb tail = 0;
  for (const ServiceCurve& sc : set) tail += sc.m2;
  if (tail > link) return false;
  for (const ServiceCurve& knee : set) {
    if (knee.d == 0) continue;
    Nb sum = 0;
    for (const ServiceCurve& sc : set) sum += nanobytes(sc, knee.d);
    if (sum > static_cast<Nb>(link) * knee.d) return false;
  }
  return true;
}

AdmissionControl rebuild_shuffled(std::vector<ServiceCurve> set,
                                  RateBps link, Rng& rng) {
  for (std::size_t i = set.size(); i > 1; --i) {
    std::swap(set[i - 1], set[rng.uniform(0, i - 1)]);
  }
  AdmissionControl ac(link);
  for (const ServiceCurve& sc : set) ac.add(sc);
  return ac;
}

TEST(AdmissionFuzz, AdmitReleaseReplaceMatchTheExactReference) {
  Rng rng(0xAD417);
  AdmissionControl ac(kLink);
  std::vector<ServiceCurve> admitted;
  int verdicts[2] = {0, 0};  // rejected, admitted

  for (int step = 0; step < 20'000; ++step) {
    const AdmissionControl before = ac;
    const int action = static_cast<int>(rng.uniform(0, 9));
    if (action < 5) {  // admit
      const ServiceCurve cand = random_curve(rng);
      std::vector<ServiceCurve> next = admitted;
      next.push_back(cand);
      const bool expect = reference_fits(next, kLink);
      ASSERT_EQ(ac.admit(cand), expect)
          << "step " << step << ": " << to_string(cand);
      ++verdicts[expect];
      if (expect) {
        admitted = next;
      } else {
        ASSERT_TRUE(ac == before) << "step " << step;
      }
    } else if (action < 8) {  // replace: release some, add some
      std::vector<ServiceCurve> out;
      std::vector<ServiceCurve> rest;
      for (const ServiceCurve& sc : admitted) {
        (rng.chance(0.3) ? out : rest).push_back(sc);
      }
      std::vector<ServiceCurve> in;
      for (int k = static_cast<int>(rng.uniform(0, 3)); k > 0; --k) {
        in.push_back(random_curve(rng));
      }
      std::vector<ServiceCurve> next = rest;
      next.insert(next.end(), in.begin(), in.end());
      const bool expect = reference_fits(next, kLink);
      ASSERT_EQ(ac.replace(out, in), expect) << "step " << step;
      ++verdicts[expect];
      if (expect) {
        admitted = next;
      } else {
        ASSERT_TRUE(ac == before) << "step " << step;
      }
    } else if (action == 8 && !admitted.empty()) {  // release one
      const std::size_t i = rng.uniform(0, admitted.size() - 1);
      ac.release(admitted[i]);
      admitted.erase(admitted.begin() + static_cast<std::ptrdiff_t>(i));
    } else {  // release (or replace out) a curve that is not admitted
      const ServiceCurve ghost{kLink * 3, 7, kLink * 2};  // never generated
      EXPECT_THROW(ac.release(ghost), Error);
      EXPECT_THROW(ac.replace({admitted.empty() ? ghost : admitted[0], ghost},
                              {random_curve(rng)}),
                   Error);
      ASSERT_TRUE(ac == before) << "step " << step;
    }

    ASSERT_EQ(ac.admitted(), admitted.size());
    ASSERT_TRUE(ac.fits());
    ASSERT_TRUE(ac == rebuild_shuffled(admitted, kLink, rng))
        << "step " << step;
    double tail = 0;
    for (const ServiceCurve& sc : admitted) tail += static_cast<double>(sc.m2);
    ASSERT_NEAR(ac.utilization(), tail / kLink, 1e-12);
  }
  EXPECT_GT(verdicts[0], 1000);
  EXPECT_GT(verdicts[1], 1000);
}

// --- Txn batches under admission -----------------------------------------

struct FuzzOp {
  enum Kind { kAdd, kChange, kDelete } kind;
  ClassId cls;  // kAdd: the parent
  ClassConfig cfg;
};

ClassConfig random_config(Rng& rng) {
  // Always an ls curve, so any class may become a parent; sometimes no rt.
  const ServiceCurve ls = ServiceCurve::linear(kStep);
  return ClassConfig{rng.chance(0.85) ? random_curve(rng) : ServiceCurve{},
                     ls, ServiceCurve{}};
}

std::vector<ServiceCurve> rt_leaf_curves(const Hfsc& s) {
  std::vector<ServiceCurve> out;
  for (ClassId c = 1; c < s.num_classes(); ++c) {
    if (s.is_deleted(c) || !s.is_leaf(c) || s.config_of(c).rt.is_zero()) {
      continue;
    }
    out.push_back(s.config_of(c).rt);
  }
  return out;
}

Hfsc clone(const Hfsc& s) {
  std::stringstream ss;
  checkpoint(s, ss);
  return restore_checkpoint(ss);
}

TEST(AdmissionFuzz, TxnBatchesMatchTheExactReference) {
  Rng rng(0x7B47C);
  Hfsc live(kLink);
  live.enable_admission_control();
  int outcomes[3] = {0, 0, 0};  // committed, admission-rejected, structural

  for (int round = 0; round < 3'000; ++round) {
    std::vector<ClassId> classes;
    for (ClassId c = 1; c < live.num_classes(); ++c) {
      if (!live.is_deleted(c)) classes.push_back(c);
    }
    auto pick = [&]() -> ClassId {
      return classes.empty() ? kRootClass
                             : classes[rng.uniform(0, classes.size() - 1)];
    };

    // A batch of adds (under the root, a live class — turning a leaf
    // interior — or an earlier staged add), changes and deletes (turning
    // parents back into leaves, sometimes deleting one class twice).
    std::vector<FuzzOp> ops;
    std::vector<ClassId> staged;
    const bool shrink = classes.size() > 24;
    for (int k = static_cast<int>(rng.uniform(1, 6)); k > 0; --k) {
      const int kind = static_cast<int>(rng.uniform(0, shrink ? 4 : 2));
      if (kind == 0) {
        ClassId parent = kRootClass;
        if (rng.chance(0.5)) parent = pick();
        if (!staged.empty() && rng.chance(0.2)) {
          parent = staged[rng.uniform(0, staged.size() - 1)];
        }
        ops.push_back({FuzzOp::kAdd, parent, random_config(rng)});
        staged.push_back(
            static_cast<ClassId>(live.num_classes() + staged.size()));
      } else if (kind == 1) {
        ops.push_back({FuzzOp::kChange, pick(), random_config(rng)});
      } else {
        ops.push_back({FuzzOp::kDelete, pick(), ClassConfig{}});
      }
    }
    auto stage = [&ops](Hfsc::Txn& txn) {
      for (const FuzzOp& op : ops) {
        switch (op.kind) {
          case FuzzOp::kAdd:
            txn.add_class(op.cls, op.cfg);
            break;
          case FuzzOp::kChange:
            txn.change_class(0, op.cls, op.cfg);
            break;
          case FuzzOp::kDelete:
            txn.delete_class(op.cls);
            break;
        }
      }
    };

    // The twin commits the same batch with admission off: structure only.
    Hfsc twin = clone(live);
    twin.disable_admission_control();
    const std::uint64_t before_digest = state_digest(live);
    const AdmissionControl before = *live.admission_control();
    const std::uint64_t before_rejections = live.admission_rejections();
    Hfsc::Txn twin_txn = twin.begin();
    stage(twin_txn);
    Hfsc::Txn txn = live.begin();
    stage(txn);

    try {
      twin_txn.commit();
    } catch (const Error& e) {
      ++outcomes[2];
      try {
        txn.commit();
        FAIL() << "round " << round << ": twin threw " << e.what();
      } catch (const Error& le) {
        ASSERT_EQ(le.code(), e.code()) << "round " << round;
      }
      ASSERT_EQ(state_digest(live), before_digest) << "round " << round;
      ASSERT_TRUE(*live.admission_control() == before) << "round " << round;
      continue;
    }

    const bool expect = reference_fits(rt_leaf_curves(twin), kLink);
    if (expect) {
      ++outcomes[0];
      ASSERT_NO_THROW(txn.commit()) << "round " << round;
      ASSERT_EQ(live.admission_rejections(), before_rejections);
    } else {
      ++outcomes[1];
      try {
        txn.commit();
        FAIL() << "round " << round << ": an infeasible batch committed";
      } catch (const Error& e) {
        ASSERT_EQ(e.code(), Errc::kAdmissionRejected) << "round " << round;
      }
      ASSERT_EQ(live.admission_rejections(), before_rejections + 1);
      ASSERT_EQ(state_digest(live), before_digest) << "round " << round;
      ASSERT_TRUE(*live.admission_control() == before) << "round " << round;
    }
    ASSERT_TRUE(*live.admission_control() ==
                rebuild_shuffled(rt_leaf_curves(live), kLink, rng))
        << "round " << round;
    if (round % 64 == 0) {
      const AuditReport report = audit(live);
      ASSERT_TRUE(report.ok()) << report.to_string();
    }
  }
  for (int k = 0; k < 3; ++k) EXPECT_GT(outcomes[k], 100) << "outcome " << k;
  const AuditReport report = audit(live);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace hfsc
