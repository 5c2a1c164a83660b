// Tests for the runtime-curve min-fold (Fig. 8 / eqs. (7), (12)).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "curve/runtime_curve.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

TEST(RuntimeCurve, AnchoredEvaluation) {
  const ServiceCurve sc{mbps(10), msec(8), mbps(2)};
  const RuntimeCurve rc(sc, msec(100), 5000);
  EXPECT_EQ(rc.x2y(msec(100)), 5000u);
  EXPECT_EQ(rc.x2y(msec(50)), 5000u);  // clamps left of the anchor
  EXPECT_EQ(rc.x2y(msec(104)), 5000u + sc.eval(msec(4)));
  EXPECT_EQ(rc.x2y(msec(120)), 5000u + sc.eval(msec(20)));
}

TEST(RuntimeCurve, InverseMatchesForward) {
  const ServiceCurve sc{mbps(10), msec(8), mbps(2)};
  const RuntimeCurve rc(sc, msec(100), 5000);
  for (Bytes v : {Bytes{5000}, Bytes{6000}, Bytes{15000}, Bytes{20000}}) {
    const TimeNs t = rc.y2x(v);
    EXPECT_GE(rc.x2y(t), v);
    if (t > rc.x()) {
      EXPECT_LT(rc.x2y(t - 1), v);
    }
  }
  EXPECT_EQ(rc.y2x(0), msec(100));  // clamps to the anchor
}

TEST(RuntimeCurve, InverseOfZeroTailIsInfinity) {
  const ServiceCurve sc{mbps(10), msec(8), 0};
  const RuntimeCurve rc(sc, 0, 0);
  EXPECT_EQ(rc.y2x(10'001), kTimeInfinity);
}

TEST(RuntimeCurve, FlattenToSecondSlope) {
  const ServiceCurve convex{0, msec(10), mbps(1)};
  RuntimeCurve rc(convex, msec(50), 1000);
  rc.flatten_to_second_slope();
  // Now a line of slope m2 through the anchor.
  EXPECT_EQ(rc.x2y(msec(50)), 1000u);
  EXPECT_EQ(rc.x2y(msec(58)), 1000u + seg_x2y(msec(8), mbps(1)));
}

// --- min_with: concave cases --------------------------------------------

TEST(MinWith, ConcaveKeepsWhenOldBelow) {
  const ServiceCurve sc{mbps(10), msec(8), mbps(2)};
  RuntimeCurve rc(sc, 0, 0);
  // Fresh copy anchored at (10 ms, huge): old curve is below at the anchor
  // and stays the minimum.
  const RuntimeCurve before = rc;
  rc.min_with(sc, msec(10), 1'000'000);
  EXPECT_EQ(rc.x2y(msec(20)), before.x2y(msec(20)));
  EXPECT_EQ(rc.x2y(msec(200)), before.x2y(msec(200)));
}

TEST(MinWith, ConcaveReplacesWhenOldAbove) {
  const ServiceCurve sc{mbps(10), msec(8), mbps(2)};
  RuntimeCurve rc(sc, 0, 0);
  // Session idles long, reactivates with tiny cumulative work: the fresh
  // copy is below everywhere.
  rc.min_with(sc, sec(10), 0);
  EXPECT_EQ(rc.x(), sec(10));
  EXPECT_EQ(rc.y(), 0u);
  EXPECT_EQ(rc.x2y(sec(10) + msec(4)), sc.eval(msec(4)));
}

TEST(MinWith, ConcaveCrossingProducesPointwiseMin) {
  const ServiceCurve sc{mbps(10), msec(8), mbps(2)};
  RuntimeCurve rc(sc, 0, 0);
  // Reactivate at 12 ms having received less than the old curve's value
  // there but more than zero: the curves cross.
  const RuntimeCurve old = rc;
  const TimeNs a = msec(12);
  const Bytes c = 6000;  // old curve at 12 ms is 11000
  ASSERT_GT(old.x2y(a), c);
  rc.min_with(sc, a, c);
  const RuntimeCurve fresh(sc, a, c);
  // Pointwise: result == min(old, fresh) within rounding, sampled densely.
  for (TimeNs t = a; t < a + msec(40); t += usec(250)) {
    const Bytes want = std::min(old.x2y(t), fresh.x2y(t));
    const Bytes got = rc.x2y(t);
    ASSERT_LE(got, sat_add(want, 4)) << "t=" << t;
    ASSERT_GE(sat_add(got, 4), want) << "t=" << t;
  }
}

// --- min_with: convex cases ----------------------------------------------

TEST(MinWith, ConvexReplacesWhenFreshStartsBelow) {
  const ServiceCurve convex{0, msec(10), mbps(1)};
  RuntimeCurve rc(convex, 0, 0);
  rc.min_with(convex, msec(50), 100);  // old at 50 ms is 5000 > 100
  EXPECT_EQ(rc.x(), msec(50));
  EXPECT_EQ(rc.y(), 100u);
}

TEST(MinWith, ConvexKeepsWhenFreshStartsAbove) {
  const ServiceCurve convex{0, msec(10), mbps(1)};
  RuntimeCurve rc(convex, 0, 0);
  const RuntimeCurve before = rc;
  // cumul far above the old curve's current value: keep the old curve.
  rc.min_with(convex, msec(5), 1'000'000);
  EXPECT_EQ(rc.x2y(msec(30)), before.x2y(msec(30)));
}

TEST(MinWith, LinearBehavesLikeVirtualClockReset) {
  const ServiceCurve lin = ServiceCurve::linear(mbps(1));
  RuntimeCurve rc(lin, 0, 0);
  // After an idle period the fresh anchored line is below: replace — this
  // is what removes the virtual-clock punishment in fair schedulers.
  rc.min_with(lin, sec(5), 100);
  EXPECT_EQ(rc.x(), sec(5));
  EXPECT_EQ(rc.x2y(sec(5) + msec(1)), 100u + seg_x2y(msec(1), mbps(1)));
}

// --- property sweep -------------------------------------------------------

struct MinWithCase {
  ServiceCurve sc;
  std::uint64_t seed;
};

class MinWithProperty : public ::testing::TestWithParam<MinWithCase> {};

// Repeatedly fold fresh anchors (monotone times, arbitrary work values
// below the curve) and verify the result is always <= every fresh copy
// ever folded (the min property) and nondecreasing in t.
TEST_P(MinWithProperty, StaysBelowAllFoldedCopiesAndMonotone) {
  const auto& [sc, seed] = GetParam();
  Rng rng(seed);
  RuntimeCurve rc(sc, 0, 0);
  std::vector<RuntimeCurve> copies{rc};
  TimeNs a = 0;
  Bytes work = 0;
  for (int i = 0; i < 20; ++i) {
    a += msec(1) + rng.uniform(0, msec(20));
    // Work can only grow, and (for the deadline curve use) never exceeds
    // the current runtime curve's value at the reactivation instant.
    const Bytes ceiling = rc.x2y(a);
    work = work + rng.uniform(0, ceiling > work ? ceiling - work : 0);
    rc.min_with(sc, a, work);
    copies.emplace_back(sc, a, work);
    if (sc.m1 < sc.m2) {
      // The convex fold is exact only when replacement happens; when the
      // old curve is kept it stays the pointwise min of everything folded
      // so the assertions below still must hold.
    }
    Bytes prev = 0;
    for (TimeNs t = a; t < a + msec(60); t += usec(500)) {
      const Bytes got = rc.x2y(t);
      ASSERT_GE(sat_add(got, 2), prev) << "not monotone at t=" << t;
      prev = got;
      for (const auto& copy : copies) {
        ASSERT_LE(got, sat_add(copy.x2y(t), 4))
            << "above a folded copy at t=" << t << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Curves, MinWithProperty,
    ::testing::Values(
        MinWithCase{{mbps(10), msec(8), mbps(2)}, 1},     // concave
        MinWithCase{{mbps(100), msec(1), mbps(90)}, 2},   // mildly concave
        MinWithCase{{kbps(256), msec(50), kbps(64)}, 3},  // slow concave
        MinWithCase{{0, msec(10), mbps(1)}, 4},           // convex
        MinWithCase{{0, msec(100), kbps(512)}, 5},        // slow convex
        MinWithCase{ServiceCurve::linear(mbps(5)), 6},    // linear
        MinWithCase{ServiceCurve::linear(kbps(64)), 7}));

// --- the inverse against its saturating closed form ----------------------
//
// On a curve with a flat start (dx == dy == 0) the inverse is
//     C^-1(v) = x + ceil((v - y) * 1e9 / m2),
// saturating at kTimeInfinity.  A tiny m2 drives the quotient across the
// top of the 64-bit range in a handful of queries, where any 64-bit
// shortcut would wrap; the reference below computes in 128 bits.
TimeNs closed_form_y2x(TimeNs x, Bytes y, RateBps m2, Bytes v) {
  if (v <= y) return x;
  const unsigned __int128 p =
      static_cast<unsigned __int128>(v - y) * kNsPerSec;
  const unsigned __int128 t = x + (p + m2 - 1) / m2;
  return t >= kTimeInfinity ? kTimeInfinity : static_cast<TimeNs>(t);
}

TEST(RuntimeCurve, InverseMatchesClosedFormAcrossSaturation) {
  for (const RateBps m2 : {RateBps{1}, RateBps{3}, RateBps{7}}) {
    const ServiceCurve sc{0, 0, m2};
    const RuntimeCurve curve(sc, 0, 0);
    // Walk v monotonically (the scheduler's query pattern) from below the
    // point where the quotient reaches 2^62, up to and past the point
    // where the true inverse saturates to kTimeInfinity, with mixed step
    // sizes.
    const Bytes v62 = muldiv_floor(std::uint64_t{1} << 62, m2, kNsPerSec);
    const Bytes vinf = muldiv_floor(~std::uint64_t{0}, m2, kNsPerSec);
    const Bytes steps[] = {1, 3, v62 / 7, 1, 2, v62 / 3, 5, vinf / 4, 1,
                           1, vinf / 3,  7, 1, vinf / 2, 1, 3};
    Bytes v = v62 > 64 ? v62 - 64 : 1;
    for (const Bytes s : steps) {
      ASSERT_EQ(curve.y2x(v), closed_form_y2x(0, 0, m2, v))
          << "inverse diverged from the closed form at v=" << v
          << " m2=" << m2;
      v = sat_add(v, s);
    }
    // Far past saturation the inverse pins at infinity, query after query.
    EXPECT_EQ(curve.y2x(~std::uint64_t{0} - 1), kTimeInfinity);
    EXPECT_EQ(curve.y2x(~std::uint64_t{0} - 1), kTimeInfinity);
  }
}

TEST(RuntimeCurve, RestoredCurveInverseMatchesClosedForm) {
  // from_parts() is the checkpoint-restore constructor: the original and
  // the restored curve must both answer with the closed form, query for
  // query, including right at the 2^62 quotient line and past it.
  const ServiceCurve sc{0, 0, 2};
  const RuntimeCurve original(sc, usec(5), 100);
  const Bytes v62 = muldiv_floor(std::uint64_t{1} << 62, 2, kNsPerSec);
  const std::vector<Bytes> probes = {200,         5000,       v62 / 2,
                                     v62 - 1,     v62 + 1000, v62 * 2,
                                     v62 * 3 + 7, ~std::uint64_t{0} / 2};
  const RuntimeCurve restored = RuntimeCurve::from_parts(
      original.x(), original.y(), original.dx(), original.dy(),
      original.m1(), original.m2());
  for (const Bytes v : probes) {
    const TimeNs want = closed_form_y2x(usec(5), 100, 2, v);
    ASSERT_EQ(original.y2x(v), want) << "original diverged at v=" << v;
    ASSERT_EQ(restored.y2x(v), want) << "restored diverged at v=" << v;
  }
}

}  // namespace
}  // namespace hfsc
