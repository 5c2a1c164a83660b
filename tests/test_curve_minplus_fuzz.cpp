// Randomized differential validation of the min-plus curve algebra
// (curve/piecewise.hpp) against brute-force reference evaluation, plus
// 128-bit saturation regressions near the representable horizon.
//
// Soundness directions under test (the analyzer depends on exactly
// these):
//   - convolve() never exceeds the exact (f (*) g): understating a
//     service curve is conservative, overstating would produce unsound
//     delay bounds.  Tightness: within a few bytes of exact (one
//     <= 1-byte min() floor per fold step).
//   - deconvolve() never falls below the exact (f (/) g): overstating
//     an arrival envelope is conservative.
//   - max_vertical_gap() never understates the sampled arrival/service
//     gap (backlog bounds must cover every instant).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

#include "curve/piecewise.hpp"

namespace hfsc {
namespace {

using Piece = PiecewiseLinear::Piece;

// Brute-force (f (*) g)(t): the infimum of the linear-in-s objective is
// attained with s on a breakpoint of f or t - s on a breakpoint of g (or
// at the interval ends) — exact modulo eval()'s <= 1-byte floor.
Bytes brute_convolve(const PiecewiseLinear& f, const PiecewiseLinear& g,
                     TimeNs t) {
  Bytes best = kBytesInfinity;
  auto consider = [&](TimeNs s) {
    if (s > t) return;
    best = std::min(best, sat_add(f.eval(s), g.eval(t - s)));
  };
  consider(0);
  consider(t);
  for (const Piece& p : f.pieces()) consider(p.x);
  for (const Piece& p : g.pieces()) {
    if (p.x <= t) consider(t - p.x);
  }
  return best;
}

// Brute-force (f (/) g)(t) = sup_u f(t+u) - g(u), clamped at 0.
Bytes brute_deconvolve(const PiecewiseLinear& f, const PiecewiseLinear& g,
                       TimeNs t) {
  __int128 best = 0;
  auto consider = [&](TimeNs u) {
    const __int128 v = static_cast<__int128>(f.eval(sat_add(t, u))) -
                       static_cast<__int128>(g.eval(u));
    best = std::max(best, v);
  };
  consider(0);
  for (const Piece& p : g.pieces()) consider(p.x);
  for (const Piece& p : f.pieces()) {
    if (p.x > t) consider(p.x - t);
  }
  consider(std::max(f.pieces().back().x, g.pieces().back().x) + sec(2));
  return static_cast<Bytes>(std::max<__int128>(best, 0));
}

// A random service-curve-shaped operand: one to three two-piece curves
// folded with min/sum, covering concave, convex and mixed shapes.
PiecewiseLinear random_curve(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> parts(1, 3);
  std::uniform_int_distribution<int> op(0, 1);
  std::uniform_int_distribution<RateBps> rate(kbps(32), mbps(40));
  std::uniform_int_distribution<TimeNs> dwell(0, msec(12));
  auto piece = [&] {
    return PiecewiseLinear::from_service_curve(
        ServiceCurve{rate(rng), dwell(rng), rate(rng)});
  };
  PiecewiseLinear out = piece();
  const int n = parts(rng);
  for (int i = 1; i < n; ++i) {
    out = op(rng) == 0 ? out.min(piece()) : out.sum(piece());
  }
  return out;
}

TEST(MinPlusFuzz, ConvolveSoundAndTightAgainstBruteForce) {
  std::mt19937_64 rng(0xc0117001dULL);
  for (int iter = 0; iter < 200; ++iter) {
    const PiecewiseLinear f = random_curve(rng);
    const PiecewiseLinear g = random_curve(rng);
    const PiecewiseLinear c = f.convolve(g);
    // Tightness slack: one potential 1-byte floor per min() fold, one
    // fold per operand breakpoint.
    const Bytes slack = f.pieces().size() + g.pieces().size();
    std::uniform_int_distribution<TimeNs> at(0, msec(40));
    for (int probe = 0; probe < 24; ++probe) {
      const TimeNs t = at(rng);
      const Bytes exact = brute_convolve(f, g, t);
      const Bytes got = c.eval(t);
      ASSERT_LE(got, sat_add(exact, 1))
          << "iter " << iter << " t=" << t << " overstates the service";
      ASSERT_GE(sat_add(got, slack), exact)
          << "iter " << iter << " t=" << t << " too loose";
    }
  }
}

TEST(MinPlusFuzz, ConvolveIsCommutativeOnEvaluation) {
  std::mt19937_64 rng(0x5eedULL);
  for (int iter = 0; iter < 100; ++iter) {
    const PiecewiseLinear f = random_curve(rng);
    const PiecewiseLinear g = random_curve(rng);
    const PiecewiseLinear fg = f.convolve(g);
    const PiecewiseLinear gf = g.convolve(f);
    std::uniform_int_distribution<TimeNs> at(0, msec(40));
    for (int probe = 0; probe < 16; ++probe) {
      const TimeNs t = at(rng);
      const Bytes a = fg.eval(t);
      const Bytes b = gf.eval(t);
      ASSERT_LE(a > b ? a - b : b - a, 2u) << "iter " << iter << " t=" << t;
    }
  }
}

TEST(MinPlusFuzz, DeconvolveTokenBucketIsSoundAgainstBruteForce) {
  // Token-bucket envelopes are what the analyzer propagates; for them
  // the decomposition is exact modulo <= 2 bytes of upward rounding.
  std::mt19937_64 rng(0xdecafULL);
  std::uniform_int_distribution<Bytes> burst(1, 20000);
  std::uniform_int_distribution<RateBps> rate(kbps(16), mbps(8));
  for (int iter = 0; iter < 200; ++iter) {
    const PiecewiseLinear f =
        PiecewiseLinear::token_bucket(burst(rng), rate(rng));
    const PiecewiseLinear g = random_curve(rng);
    const auto d = f.deconvolve(g);
    if (f.tail_rate() > g.tail_rate()) continue;  // may be unbounded
    ASSERT_TRUE(d.has_value()) << "iter " << iter;
    std::uniform_int_distribution<TimeNs> at(0, msec(40));
    for (int probe = 0; probe < 24; ++probe) {
      const TimeNs t = at(rng);
      const Bytes exact = brute_deconvolve(f, g, t);
      const Bytes got = d->eval(t);
      ASSERT_GE(sat_add(got, 1), exact)
          << "iter " << iter << " t=" << t << " understates the envelope";
      ASSERT_LE(got, sat_add(exact, 4))
          << "iter " << iter << " t=" << t << " too loose for affine f";
    }
  }
}

TEST(MinPlusFuzz, DeconvolveGeneralEnvelopeNeverUnderstates) {
  std::mt19937_64 rng(0xfadedULL);
  for (int iter = 0; iter < 150; ++iter) {
    const PiecewiseLinear f = random_curve(rng);
    const PiecewiseLinear g = random_curve(rng);
    const auto d = f.deconvolve(g);
    if (!d) {
      // Only legal when the envelope genuinely outruns the service (the
      // majorant fallback may bail early for non-concave envelopes).
      EXPECT_TRUE(f.tail_rate() > g.tail_rate() || !f.is_concave())
          << "iter " << iter;
      continue;
    }
    std::uniform_int_distribution<TimeNs> at(0, msec(40));
    for (int probe = 0; probe < 16; ++probe) {
      const TimeNs t = at(rng);
      ASSERT_GE(sat_add(d->eval(t), 1), brute_deconvolve(f, g, t))
          << "iter " << iter << " t=" << t;
    }
  }
}

TEST(MinPlusFuzz, VerticalGapDominatesSampledGap) {
  std::mt19937_64 rng(0xbac109ULL);
  std::uniform_int_distribution<Bytes> burst(1, 20000);
  std::uniform_int_distribution<RateBps> rate(kbps(16), mbps(8));
  for (int iter = 0; iter < 200; ++iter) {
    const PiecewiseLinear arrival =
        PiecewiseLinear::token_bucket(burst(rng), rate(rng));
    const PiecewiseLinear service = random_curve(rng);
    const auto gap = arrival.max_vertical_gap(service);
    if (arrival.tail_rate() > service.tail_rate()) {
      EXPECT_FALSE(gap.has_value()) << "iter " << iter;
      continue;
    }
    ASSERT_TRUE(gap.has_value()) << "iter " << iter;
    std::uniform_int_distribution<TimeNs> at(0, msec(60));
    for (int probe = 0; probe < 48; ++probe) {
      const TimeNs t = at(rng);
      const Bytes a = arrival.eval(t);
      const Bytes s = service.eval(t);
      if (a > s) {
        ASSERT_GE(sat_add(*gap, 1), a - s) << "iter " << iter << " t=" << t;
      }
    }
  }
}

TEST(MinPlusFuzz, SaturationHorizonStaysConservative) {
  // Operands with breakpoints at the far end of the representable time
  // axis and multi-Gb/s slopes: the 128-bit intermediate products must
  // saturate upward for deconvolution (envelope side) and never
  // overflow into small values for convolution (service side).
  const PiecewiseLinear far_service = PiecewiseLinear::from_service_curve(
      ServiceCurve{gbps(80), kTimeInfinity - 1, gbps(80)});
  const PiecewiseLinear tb =
      PiecewiseLinear::token_bucket(5000, gbps(40));
  const PiecewiseLinear c = tb.convolve(far_service);
  EXPECT_LE(c.eval(msec(1)), tb.eval(msec(1)));
  const auto d = tb.deconvolve(far_service);
  ASSERT_TRUE(d.has_value());
  EXPECT_GE(d->eval(0), tb.eval(0));

  // A service curve whose own values saturate: every derived bound must
  // stay on the conservative side without UB (ASan/UBSan gate this file
  // in the sanitize CI stage).
  const PiecewiseLinear sat_arrival =
      PiecewiseLinear::token_bucket(kBytesInfinity - 1, gbps(100));
  const auto gap = sat_arrival.max_vertical_gap(far_service);
  if (gap) {
    EXPECT_GE(*gap, sat_arrival.eval(0) - far_service.eval(0));
  }
}

}  // namespace
}  // namespace hfsc
