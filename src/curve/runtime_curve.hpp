// Runtime service curves (paper Section V, Fig. 8).
//
// A RuntimeCurve is a two-piece linear curve anchored at an arbitrary point
// (x, y) instead of the origin:
//
//     C(t) = y + m1 * (t - x)             for x <= t < x + dx
//     C(t) = y + dy + m2 * (t - x - dx)   for t >= x + dx
//
// (dy == m1 * dx up to rounding; it is stored so evaluation is exact.)
//
// H-FSC keeps three of these per class: the deadline curve D, the eligible
// curve E (both against wall-clock time and the cumulative work counters c
// resp. c+l), and the virtual curve V (against parent virtual time and the
// total work w).  Each becomes-active event folds a freshly anchored copy
// of the class's service curve into the runtime curve with the pointwise
// minimum (eqs. (7) and (12)); min_with() implements that update in O(1)
// for the supported curve family, generalizing Fig. 8's update_dc.
#pragma once

#include "curve/service_curve.hpp"
#include "util/types.hpp"

namespace hfsc {

class RuntimeCurve {
 public:
  RuntimeCurve() = default;

  // The curve S anchored at (x0, y0): C(t) = y0 + S(t - x0).
  RuntimeCurve(const ServiceCurve& s, TimeNs x0, Bytes y0) noexcept
      : x_(x0), y_(y0), dx_(s.d), dy_(seg_x2y(s.d, s.m1)), m1_(s.m1),
        m2_(s.m2) {}

  // Rebuilds a curve from its raw coefficients (checkpoint restore; see
  // core/checkpoint.hpp).  The fields must come from a prior curve's
  // accessors — no derivation such as dy = m1 * dx is re-applied, so a
  // flattened eligible curve round-trips exactly.
  static RuntimeCurve from_parts(TimeNs x, Bytes y, TimeNs dx, Bytes dy,
                                 RateBps m1, RateBps m2) noexcept {
    RuntimeCurve c;
    c.x_ = x;
    c.y_ = y;
    c.dx_ = dx;
    c.dy_ = dy;
    c.m1_ = m1;
    c.m2_ = m2;
    return c;
  }

  // C(t); values left of the anchor clamp to y (the algorithm never
  // queries there, but clamping keeps the function total and monotone).
  Bytes x2y(TimeNs t) const noexcept {
    if (t <= x_) return y_;
    const TimeNs rel = t - x_;
    if (rel < dx_) return sat_add(y_, seg_x2y(rel, m1_));
    return sat_add(sat_add(y_, dy_), seg_x2y(rel - dx_, m2_));
  }

  // Smallest t with C(t) >= v (clamped to the anchor); kTimeInfinity when
  // the curve never reaches v.  Closed form on each segment: a query costs
  // one 128-by-64-bit divide and writes nothing.
  TimeNs y2x(Bytes v) const noexcept {
    if (v <= y_) return x_;
    const Bytes rel = v - y_;
    if (rel <= dy_) return sat_add(x_, seg_y2x(rel, m1_));
    return sat_add(sat_add(x_, dx_), seg_y2x(rel - dy_, m2_));
  }

  // Pointwise minimum with the curve S re-anchored at (x0, y0), i.e. the
  // becomes-active update  C <- min(C, y0 + S(. - x0))  of eqs. (7)/(12).
  //
  // For concave S the result is exact and stays in the two-piece family
  // (Fig. 8).  For convex S (flat first segment) the new copy either lies
  // entirely below the old curve — the old curve is further along an
  // identical slope profile — and replaces it, or the old curve is kept
  // (the specialization the authors shipped in ALTQ).
  void min_with(const ServiceCurve& s, TimeNs x0, Bytes y0) noexcept;

  // Collapses the first segment: the curve becomes the line of slope m2
  // through (x, y).  Used to derive the eligible curve of a convex session
  // (Section V: "a line that starts at the same point as the first segment
  // of the deadline curve, with the slope of the second segment").
  void flatten_to_second_slope() noexcept {
    dx_ = 0;
    dy_ = 0;
  }

  TimeNs x() const noexcept { return x_; }
  Bytes y() const noexcept { return y_; }
  TimeNs dx() const noexcept { return dx_; }
  Bytes dy() const noexcept { return dy_; }
  RateBps m1() const noexcept { return m1_; }
  RateBps m2() const noexcept { return m2_; }

 private:
  TimeNs x_ = 0;   // anchor time
  Bytes y_ = 0;    // anchor service amount
  TimeNs dx_ = 0;  // length of the first segment
  Bytes dy_ = 0;   // rise of the first segment
  RateBps m1_ = 0;
  RateBps m2_ = 0;
};

}  // namespace hfsc
