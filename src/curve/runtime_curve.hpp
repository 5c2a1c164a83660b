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
  // the curve never reaches v.
  //
  // Hot-path note: the scheduler queries each curve with monotonically
  // non-decreasing v (cumulative service only grows between re-anchors),
  // and in steady state the query sits on the second segment.  The
  // division ceil(rel * 1e9 / m2) — a 128-by-64-bit divide — dominates
  // the cost, so the active segment caches its last (quotient, remainder)
  // pair and advances it incrementally with one 64-bit divmod per query.
  // The cached path computes bit-identical results to the cold path.
  TimeNs y2x(Bytes v) const noexcept {
    if (v <= y_) return x_;
    const Bytes rel = v - y_;
    if (rel <= dy_) {
      const TimeNs t = seg_y2x(rel, m1_);
      return t == kTimeInfinity ? kTimeInfinity : sat_add(x_, t);
    }
    return second_seg_y2x(rel - dy_);
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
    inv_valid_ = false;
  }

  TimeNs x() const noexcept { return x_; }
  Bytes y() const noexcept { return y_; }
  TimeNs dx() const noexcept { return dx_; }
  Bytes dy() const noexcept { return dy_; }
  RateBps m1() const noexcept { return m1_; }
  RateBps m2() const noexcept { return m2_; }

 private:
  // Inverse on the second segment (rel2 = v - y_ - dy_ > 0): computes
  // ceil(rel2 * 1e9 / m2_) either incrementally from the cached divmod
  // state or from scratch, re-seeding the cache.
  //
  // The fast-path admission test is branchless: all four conditions are
  // evaluated unconditionally and folded into one well-predicted branch.
  // The subtraction and multiplication feeding the mask may wrap when a
  // condition is false; that is defined (unsigned) and their results are
  // only consumed when every condition holds.
  TimeNs second_seg_y2x(Bytes rel2) const noexcept {
    if (m2_ == 0) return kTimeInfinity;
    const Bytes delta = rel2 - inv_rel_;        // valid iff rel2 >= inv_rel_
    const std::uint64_t grow = delta * kNsPerSec;  // valid iff delta small
    const bool ok = inv_valid_ & (rel2 >= inv_rel_) &
                    (delta <= kMaxIncrDelta) &
                    (grow <= ~std::uint64_t{0} - inv_rem_);
    if (__builtin_expect(ok, 1)) {
      const std::uint64_t a = grow + inv_rem_;
      const std::uint64_t add = a / m2_;
      // The cold path refuses to seed the cache at quotients >= 2^62, but
      // incremental advances can still march the cached quotient toward
      // the top of the 64-bit range, where `inv_q_ += add` — or the + 1
      // ceil carry in the return — would wrap and silently disagree with
      // the cold path's saturating arithmetic (a curve with a tiny m2
      // gets there in two queries).  Hand such advances back to the cold
      // path, which computes the saturated result and drops the cache.
      if (__builtin_expect(add <= ~std::uint64_t{0} - 1 - inv_q_, 1)) {
        inv_q_ += add;
        inv_rem_ = a % m2_;
        inv_rel_ = rel2;
        return sat_add(sat_add(x_, dx_), inv_q_ + (inv_rem_ != 0 ? 1 : 0));
      }
    }
    // Cold path: full 128-bit divide, then seed the incremental cache
    // (only while the quotient is far from saturation, so the cached and
    // saturating arithmetic can never disagree).
    const unsigned __int128 p =
        static_cast<unsigned __int128>(rel2) * kNsPerSec;
    const unsigned __int128 q = p / m2_;
    if (q >= (std::uint64_t{1} << 62)) {
      inv_valid_ = false;
      const TimeNs t = seg_y2x(rel2, m2_);
      return t == kTimeInfinity ? kTimeInfinity
                                : sat_add(sat_add(x_, dx_), t);
    }
    inv_valid_ = true;
    inv_rel_ = rel2;
    inv_q_ = static_cast<std::uint64_t>(q);
    inv_rem_ = static_cast<std::uint64_t>(p - q * m2_);
    return sat_add(sat_add(x_, dx_), inv_q_ + (inv_rem_ != 0 ? 1 : 0));
  }

  // Largest delta with delta * 1e9 guaranteed to fit in 64 bits.
  static constexpr Bytes kMaxIncrDelta =
      ~std::uint64_t{0} / kNsPerSec - 1;

  TimeNs x_ = 0;   // anchor time
  Bytes y_ = 0;    // anchor service amount
  TimeNs dx_ = 0;  // length of the first segment
  Bytes dy_ = 0;   // rise of the first segment
  RateBps m1_ = 0;
  RateBps m2_ = 0;

  // Incremental-inverse cache for the second segment (see y2x).  Mutable:
  // pure memoization, never observable through the public interface.
  mutable bool inv_valid_ = false;
  mutable Bytes inv_rel_ = 0;          // last second-segment offset queried
  mutable std::uint64_t inv_q_ = 0;    // floor(inv_rel_ * 1e9 / m2_)
  mutable std::uint64_t inv_rem_ = 0;  // inv_rel_ * 1e9 - inv_q_ * m2_
};

}  // namespace hfsc
