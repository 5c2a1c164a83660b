// General piecewise-linear nondecreasing curves.
//
// The two-piece family (service_curve.hpp) is closed under the runtime
// min-fold, but two jobs in the paper need full piecewise-linear
// arithmetic:
//
//  * upper-limit feasibility — SCED/H-FSC can guarantee real-time curves
//    iff their SUM stays below the server's curve (Section II, eq. (5)'s
//    discussion); the analyzer applies this to a subtree capped by an
//    upper-limit curve, and sums of two-piece curves have up to one
//    breakpoint per session (the link-level check is AdmissionControl
//    below, which keeps its sum exactly instead);
//
//  * analytical delay bounds — for a session with arrival envelope A
//    (e.g. a token bucket) and guaranteed service curve S, the
//    worst-case delay is the maximum horizontal deviation
//    h(A, S) = sup_t inf { d : A(t) <= S(t + d) }  (Cruz's calculus,
//    the foundation cited in Section II).
//
// A curve is stored as breakpoints (x_i, y_i) with a slope after each;
// it is defined for x >= 0, starts at (0, y_0) and extends to infinity
// with the last slope.  All values use the same fixed-point conventions
// as the rest of the library.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "curve/service_curve.hpp"
#include "util/errors.hpp"
#include "util/types.hpp"

namespace hfsc {

class PiecewiseLinear {
 public:
  struct Piece {
    TimeNs x = 0;      // start of the piece
    Bytes y = 0;       // value at x
    RateBps slope = 0; // slope on [x, next x)

    friend bool operator==(const Piece&, const Piece&) noexcept = default;
  };

  PiecewiseLinear() : pieces_{Piece{0, 0, 0}} {}
  explicit PiecewiseLinear(std::vector<Piece> pieces);

  // The service curve S(t) of Fig. 7 as a piecewise curve.
  static PiecewiseLinear from_service_curve(const ServiceCurve& sc);

  // Token-bucket arrival envelope A(t) = burst + rate * t (A(0) = burst).
  static PiecewiseLinear token_bucket(Bytes burst, RateBps rate);

  Bytes eval(TimeNs t) const noexcept;

  // Smallest t with eval(t) >= y; kTimeInfinity if never reached.
  TimeNs inverse(Bytes y) const noexcept;

  // Pointwise sum (for admission: the aggregate obligation).
  PiecewiseLinear sum(const PiecewiseLinear& other) const;

  // Pointwise minimum.  Breakpoints are computed symbolically: within each
  // segment where both curves are linear the crossing instant is solved
  // exactly in 128-bit "nanobyte" units (1e-9 bytes, so a slope in bytes/s
  // is exactly nanobytes per nanosecond) and the switch lands on the first
  // integer nanosecond where the ordering flips — never sampled.  The
  // value stored at a synthesized crossing breakpoint is floored to whole
  // bytes, so eval() of the result may read up to one byte BELOW the
  // exact pointwise minimum, never above it — a conservative slack for
  // the analyzer's delay bounds (a lower service curve only widens a
  // bound).  Used by the static analyzer for the effective guarantee of
  // an upper-limited class, min(rt, ul_self, ul_ancestors...).
  PiecewiseLinear min(const PiecewiseLinear& other) const;

  // True iff this(t) >= other(t) for all t >= 0 (including the tails).
  bool dominates(const PiecewiseLinear& other) const;

  // Maximum horizontal deviation sup_t [ S^{-1}(A(t)) - t ]: the
  // worst-case delay of a session with arrival envelope *this guaranteed
  // service curve `service`.  nullopt when unbounded (arrival tail rate
  // exceeds the service tail rate, or service flatlines below the
  // envelope).
  std::optional<TimeNs> max_horizontal_gap(
      const PiecewiseLinear& service) const;

  // Maximum vertical deviation sup_t [ this(t) - service(t) ], rounded UP
  // to whole bytes: the worst-case backlog of a session with arrival
  // envelope *this and guaranteed service curve `service` (Cruz's backlog
  // bound v(A, S)).  nullopt when unbounded (arrival tail rate exceeds
  // the service tail rate).
  std::optional<Bytes> max_vertical_gap(const PiecewiseLinear& service) const;

  // True iff the stored breakpoints describe a concave function: slopes
  // nonincreasing and every breakpoint value continuous with its
  // predecessor piece.  Synthesized crossings from min() may sit one byte
  // below the exact continuation and then fail the continuity test; the
  // algebra below only uses concavity to pick exact shortcuts, so a false
  // negative costs a little precision, never soundness.
  bool is_concave() const noexcept;

  // The curve delayed by d: (delta_d (*) this)(t) = this((t - d)^+), flat
  // at this(0) on [0, d) and the original shape shifted right by d after.
  // Exact (the min-plus convolution with the pure-delay curve delta_d).
  PiecewiseLinear delayed(TimeNs d) const;

  // The curve raised by a constant: this(t) + c, saturating.  Exact.
  PiecewiseLinear plus(Bytes c) const;

  // Min-plus convolution
  //     (this (*) other)(t) = inf_{0 <= s <= t} this(s) + other(t - s).
  // Computed symbolically: the objective is linear in s wherever neither
  // operand crosses a breakpoint, so the infimum always lands with s on a
  // breakpoint of *this or t - s on a breakpoint of other.  The
  // convolution is therefore exactly the pointwise minimum of the n + m
  // whole-curve terms  other.delayed(x_i).plus(y_i)  and
  // this.delayed(x_j).plus(y_j)  over both operands' breakpoints — for
  // any piecewise-linear operands, concave or not.  Each fold step goes
  // through min(), so the result inherits its discipline: values at
  // synthesized crossings may sit a few bytes BELOW the exact convolution,
  // never above — conservative for service curves, where a lower
  // guarantee only widens the analyzer's delay and backlog bounds.
  PiecewiseLinear convolve(const PiecewiseLinear& other) const;

  // Min-plus deconvolution
  //     (this (/) other)(t) = sup_{u >= 0} this(t + u) - other(u),
  // the tightest envelope of a flow with arrival envelope *this after a
  // server guaranteeing service curve `other`.  Returns a curve that is
  // >= the exact deconvolution everywhere (conservative for envelopes: a
  // larger envelope only widens downstream bounds), exact modulo <= 2
  // bytes of deliberate upward rounding when *this is affine — which the
  // analyzer's propagated envelopes always are, since the result of an
  // affine deconvolution is again a single token bucket.  Concave
  // multi-piece envelopes decompose into affine components l_i with
  // (min_i l_i) (/) g <= min_i (l_i (/) g); non-concave envelopes fall
  // back to one affine majorant.  nullopt when the deviation is unbounded
  // (arrival tail rate exceeds the service tail rate, or the majorant
  // outruns the service tail).
  std::optional<PiecewiseLinear> deconvolve(const PiecewiseLinear& other) const;

  const std::vector<Piece>& pieces() const noexcept { return pieces_; }
  RateBps tail_rate() const noexcept { return pieces_.back().slope; }

  // Normalized representations are canonical, so piece-wise equality is
  // curve equality (used by the auditor's admission bookkeeping check).
  // Manual (not defaulted): the memoized segment hints are not part of a
  // curve's value.
  friend bool operator==(const PiecewiseLinear& a,
                         const PiecewiseLinear& b) noexcept {
    return a.pieces_ == b.pieces_;
  }

 private:
  void normalize();

  std::vector<Piece> pieces_;  // sorted by x; pieces_[0].x == 0

  // Active-segment memoization for eval(): consecutive queries at
  // monotone (or nearby) arguments resolve in O(1) instead of
  // re-searching the piece list, as the sum/min/dominates sweeps make
  // them.  A pure cache — mutable, reset by normalize(), never observable
  // through results.
  mutable std::size_t eval_hint_ = 0;
};

// Admission control for a link's real-time obligations (Section II's
// feasibility condition): a set of curves S_i is admissible on a link of
// rate R iff  sum_i S_i(t) <= R * t  for all t >= 0.
//
// The aggregate is kept exactly (a sum of floored PiecewiseLinear values
// would depend on the order curves were added): the total first-segment
// slope sum m1, a map from knee time d to the net slope change there
// (m2 - m1 summed over the curves with that knee), and a count per
// admitted curve.  The condition is checked in 128-bit
// nanobytes (1e-9 bytes, the unit of nanobytes_at in piecewise.cpp, so a
// slope in bytes/s is exactly nanobytes per nanosecond):
//
//     sum_i S_i(x) * 1e9 <= R * x   at every knee x,  and
//     the tail slope sum_i m2 <= R.
//
// Both sides are linear between knees and meet at 0, so this is the whole
// condition, checked in O(B) for B distinct knee times.  Adding or
// releasing a curve is O(log n + log B) integer arithmetic, so the
// aggregate — and every verdict — is independent of the order curves
// arrived in, and release() is an exact subtraction.  The analyzer's
// check_link_admissibility runs this same class, so it and the runtime
// share one order-independent verdict.
//
// Hfsc::enable_admission_control wires an instance into the control
// plane (core/txn.cpp), which applies only each op's or batch's delta
// through replace(), so the scheduler refuses configurations whose
// guarantees it cannot honour.
class AdmissionControl {
 public:
  // Throws Error{kInvalidArgument} if link_rate == 0 (a zero-rate link
  // can admit nothing, so constructing one is always a config mistake).
  explicit AdmissionControl(RateBps link_rate)
      : link_rate_((ensure(link_rate > 0, Errc::kInvalidArgument,
                           "admission link rate must be > 0"),
                    link_rate)) {}

  // Attempts to admit; returns false (and changes nothing) if the
  // aggregate would exceed the link curve somewhere.
  bool admit(const ServiceCurve& sc);

  // Releases a previously admitted curve (sessions leaving).  Throws
  // Error{kInvalidArgument} if no matching curve is currently admitted —
  // silently shrinking the bookkeeping would let later admits overcommit
  // the link.
  void release(const ServiceCurve& sc);

  // Adds a curve without checking the link curve: for building an
  // aggregate from many curves and checking fits() once.
  void add(const ServiceCurve& sc);

  // Adds every curve of `in` and releases every curve of `out` — in that
  // order, so `out` may name a curve that `in` brings — then checks the
  // link curve once.  On a misfit the aggregate is restored exactly
  // (== its previous value) and false is returned.  Throws like
  // release() — changing nothing — if some curve of `out` is not
  // admitted.
  bool replace(const std::vector<ServiceCurve>& out,
               const std::vector<ServiceCurve>& in);

  // True iff the aggregate stays below the link curve (see above); O(B).
  bool fits() const noexcept;

  // Fraction of the link's long-term rate currently reserved, in
  // [0, 1+] (long-term slopes only).
  double utilization() const noexcept;

  RateBps link_rate() const noexcept { return link_rate_; }
  std::size_t admitted() const noexcept { return admitted_count_; }

  // Exact: equal aggregates of equal curve multisets on equal links.
  friend bool operator==(const AdmissionControl&,
                         const AdmissionControl&) noexcept = default;

 private:
  struct CurveLess {
    bool operator()(const ServiceCurve& a,
                    const ServiceCurve& b) const noexcept {
      return std::tie(a.m1, a.d, a.m2) < std::tie(b.m1, b.d, b.m2);
    }
  };
  // Adds (sign = +1) or removes (sign = -1) one curve's slopes.
  void shift(const ServiceCurve& sc, int sign);

  RateBps link_rate_;
  __int128 slope0_ = 0;  // sum of the first-segment slopes
  std::map<TimeNs, __int128> knees_;  // knee time -> net slope change; no 0s
  std::map<ServiceCurve, std::size_t, CurveLess> counts_;  // no 0s
  std::size_t admitted_count_ = 0;
};

// Worst-case queueing delay of a session with token-bucket envelope
// (burst, rate) under guaranteed service curve sc, plus one max-packet
// transmission time (Theorem 2's non-preemption term).  nullopt when the
// envelope overruns the curve.
std::optional<TimeNs> delay_bound(Bytes burst, RateBps rate,
                                  const ServiceCurve& sc, Bytes max_pkt,
                                  RateBps link_rate);

}  // namespace hfsc
