#include "curve/runtime_curve.hpp"

namespace hfsc {

void RuntimeCurve::min_with(const ServiceCurve& s, TimeNs x0,
                            Bytes y0) noexcept {
  const RuntimeCurve fresh(s, x0, y0);

  if (s.m1 <= s.m2) {
    // Convex (or linear) service curve.  The old curve is an earlier-
    // anchored copy of the same slope profile: at every t >= x0 its local
    // slope is >= the fresh copy's.  Hence if the fresh copy starts at or
    // below the old curve it stays below forever and replaces it; if it
    // starts above, the old curve remains the minimum.
    if (x2y(x0) >= y0) *this = fresh;
    return;
  }

  // Concave service curve (m1 > m2).
  const Bytes y1 = x2y(x0);
  if (y1 <= y0) {
    // Old curve is below the fresh copy at the anchor; being concave and
    // older (its slope at any t >= x0 is already in the <= m1 regime and
    // >= ... no greater than the fresh copy's), it stays below.
    return;
  }
  const Bytes y2 = x2y(sat_add(x0, s.d));
  if (y2 >= sat_add(y0, fresh.dy())) {
    // Old curve is above the fresh copy for the whole first segment and —
    // both tails having slope m2 — forever after: replace.
    *this = fresh;
    return;
  }

  // The curves cross while the fresh copy is on its first segment.  The
  // fresh copy (slope m1) gains on the old curve's tail (slope m2) at rate
  // m1 - m2 from an initial deficit of y1 - y0:
  //     cross_dx = (y1 - y0) / (m1 - m2).
  TimeNs cross_dx = muldiv_floor(y1 - y0, kNsPerSec, s.m1 - s.m2);
  // If the old curve is still on its own first segment at x0, its tail
  // only starts at x_ + dx_; the gap closes that much later.
  if (sat_add(x_, dx_) > x0) {
    cross_dx = sat_add(cross_dx, sat_add(x_, dx_) - x0);
  }
  x_ = x0;
  y_ = y0;
  dx_ = cross_dx;
  dy_ = seg_x2y(cross_dx, s.m1);
  m1_ = s.m1;
  m2_ = s.m2;
}

}  // namespace hfsc
