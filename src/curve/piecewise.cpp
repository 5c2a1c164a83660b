#include "curve/piecewise.hpp"

#include <algorithm>
#include <cassert>

namespace hfsc {

PiecewiseLinear::PiecewiseLinear(std::vector<Piece> pieces)
    : pieces_(std::move(pieces)) {
  assert(!pieces_.empty() && pieces_.front().x == 0);
  normalize();
}

void PiecewiseLinear::normalize() {
  // Drop zero-length pieces and merge consecutive pieces with equal
  // slopes; keep values consistent.
  std::vector<Piece> out;
  for (const Piece& p : pieces_) {
    if (!out.empty() && p.x == out.back().x) {
      out.back() = p;  // later piece at the same x wins
      continue;
    }
    if (!out.empty() && p.slope == out.back().slope) {
      // Only merge when the value is continuous (it always is for curves
      // built through the public constructors).
      const Piece& prev = out.back();
      const Bytes expect = sat_add(prev.y, seg_x2y(p.x - prev.x, prev.slope));
      if (expect == p.y) continue;
    }
    out.push_back(p);
  }
  pieces_ = std::move(out);
  eval_hint_ = 0;
}

PiecewiseLinear PiecewiseLinear::from_service_curve(const ServiceCurve& sc) {
  if (sc.is_linear()) {
    return PiecewiseLinear({Piece{0, 0, sc.d == 0 ? sc.m2 : sc.m1}});
  }
  return PiecewiseLinear(
      {Piece{0, 0, sc.m1}, Piece{sc.d, seg_x2y(sc.d, sc.m1), sc.m2}});
}

PiecewiseLinear PiecewiseLinear::token_bucket(Bytes burst, RateBps rate) {
  return PiecewiseLinear({Piece{0, burst, rate}});
}

Bytes PiecewiseLinear::eval(TimeNs t) const noexcept {
  // Find the piece containing t (last piece with x <= t), resuming from
  // the memoized segment of the previous query when it still applies.
  std::size_t i = eval_hint_;
  if (i >= pieces_.size() || pieces_[i].x > t) i = 0;
  while (i + 1 < pieces_.size() && pieces_[i + 1].x <= t) ++i;
  eval_hint_ = i;
  const Piece& p = pieces_[i];
  return sat_add(p.y, seg_x2y(t - p.x, p.slope));
}

TimeNs PiecewiseLinear::inverse(Bytes y) const noexcept {
  if (y <= pieces_.front().y) return 0;
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    const Piece& p = pieces_[i];
    const Bytes end_val = i + 1 < pieces_.size()
                              ? pieces_[i + 1].y
                              : kBytesInfinity;
    if (y <= end_val || i + 1 == pieces_.size()) {
      const TimeNs dt = seg_y2x(y - p.y, p.slope);
      if (dt == kTimeInfinity) {
        // Flat piece: the target may still be reached by a later piece.
        if (i + 1 < pieces_.size()) continue;
        return kTimeInfinity;
      }
      const TimeNs t = sat_add(p.x, dt);
      // Clamp into the piece (rounding may push just past the boundary —
      // the next piece handles the remainder exactly).
      if (i + 1 < pieces_.size() && t > pieces_[i + 1].x) continue;
      return t;
    }
  }
  return kTimeInfinity;
}

PiecewiseLinear PiecewiseLinear::sum(const PiecewiseLinear& other) const {
  std::vector<TimeNs> xs;
  for (const Piece& p : pieces_) xs.push_back(p.x);
  for (const Piece& p : other.pieces_) xs.push_back(p.x);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  auto slope_at = [](const PiecewiseLinear& c, TimeNs x) {
    const Piece* p = &c.pieces_.front();
    for (const Piece& q : c.pieces_) {
      if (q.x > x) break;
      p = &q;
    }
    return p->slope;
  };

  std::vector<Piece> out;
  for (const TimeNs x : xs) {
    out.push_back(Piece{x, sat_add(eval(x), other.eval(x)),
                        slope_at(*this, x) + slope_at(other, x)});
  }
  return PiecewiseLinear(std::move(out));
}

namespace {

// Exact value of a curve at time t in "nanobytes" (1e-9 bytes): the
// breakpoint value scaled by 1e9 plus slope * dt with no floor, so
// within-segment comparisons between two curves are exact.  Saturates at
// the 128-bit maximum (curves extend to "infinity" on purpose).
unsigned __int128 nanobytes_at(const std::vector<PiecewiseLinear::Piece>& ps,
                               TimeNs t) {
  const PiecewiseLinear::Piece* p = &ps.front();
  for (const PiecewiseLinear::Piece& q : ps) {
    if (q.x > t) break;
    p = &q;
  }
  constexpr unsigned __int128 kMax = ~static_cast<unsigned __int128>(0);
  const unsigned __int128 base =
      static_cast<unsigned __int128>(p->y) * kNsPerSec;
  const std::uint64_t dt = t - p->x;
  if (p->slope != 0 &&
      static_cast<unsigned __int128>(dt) > (kMax - base) / p->slope) {
    return kMax;
  }
  return base + static_cast<unsigned __int128>(p->slope) * dt;
}

RateBps slope_after(const std::vector<PiecewiseLinear::Piece>& ps, TimeNs t) {
  const PiecewiseLinear::Piece* p = &ps.front();
  for (const PiecewiseLinear::Piece& q : ps) {
    if (q.x > t) break;
    p = &q;
  }
  return p->slope;
}

}  // namespace

PiecewiseLinear PiecewiseLinear::min(const PiecewiseLinear& other) const {
  // Candidate breakpoints of the minimum: every breakpoint of either
  // curve, plus the first integer nanosecond after each exact crossing.
  std::vector<TimeNs> xs;
  for (const Piece& p : pieces_) xs.push_back(p.x);
  for (const Piece& p : other.pieces_) xs.push_back(p.x);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  // Within [x0, x1) both curves are linear; solve for the first integer t
  // where the ordering of the exact (un-floored) values flips.
  std::vector<TimeNs> crossings;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const TimeNs x0 = xs[i];
    const bool last = i + 1 == xs.size();
    const unsigned __int128 a0 = nanobytes_at(pieces_, x0);
    const unsigned __int128 b0 = nanobytes_at(other.pieces_, x0);
    const RateBps sa = slope_after(pieces_, x0);
    const RateBps sb = slope_after(other.pieces_, x0);
    if (sa == sb) continue;  // parallel: no crossing inside the segment
    // diff(k) = (a0 - b0) + (sa - sb) * k for t = x0 + k.  The curve that
    // is lower (ties: smaller slope) can only be overtaken when the other
    // one's slope is smaller, i.e. when diff moves towards zero.
    unsigned __int128 gap;   // |a0 - b0|
    std::uint64_t closing;   // slope difference closing the gap
    if (a0 > b0 ? sa > sb : (a0 < b0 ? sa < sb : true)) continue;
    if (a0 == b0) continue;  // tie at x0: the lower-slope curve stays lower
    if (a0 > b0) {
      gap = a0 - b0;
      closing = sb - sa;
    } else {
      gap = b0 - a0;
      closing = sa - sb;
    }
    // First k with gap - closing * k <= 0, i.e. k = ceil(gap / closing).
    const unsigned __int128 k =
        (gap + closing - 1) / static_cast<unsigned __int128>(closing);
    if (k > kTimeInfinity - x0) continue;  // crossing beyond the time domain
    const TimeNs tc = x0 + static_cast<TimeNs>(k);
    if (last || tc < xs[i + 1]) crossings.push_back(tc);
  }
  xs.insert(xs.end(), crossings.begin(), crossings.end());
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  std::vector<Piece> out;
  out.reserve(xs.size());
  for (const TimeNs x : xs) {
    const unsigned __int128 a = nanobytes_at(pieces_, x);
    const unsigned __int128 b = nanobytes_at(other.pieces_, x);
    const RateBps sa = slope_after(pieces_, x);
    const RateBps sb = slope_after(other.pieces_, x);
    // The lower curve carries the piece; on a value tie the smaller slope
    // stays lower on [x, next candidate).
    const bool use_a = a < b || (a == b && sa <= sb);
    out.push_back(Piece{x, std::min(eval(x), other.eval(x)),
                        use_a ? sa : sb});
  }
  return PiecewiseLinear(std::move(out));
}

bool PiecewiseLinear::dominates(const PiecewiseLinear& other) const {
  // Piecewise linear: it suffices to compare at every breakpoint of both
  // curves and the tail slopes.  (A crossing inside a segment implies one
  // endpoint of that segment already violates.)
  auto check_points = [&](const PiecewiseLinear& c) {
    for (const Piece& p : c.pieces_) {
      if (eval(p.x) < other.eval(p.x)) return false;
    }
    return true;
  };
  if (!check_points(*this) || !check_points(other)) return false;
  if (tail_rate() < other.tail_rate()) return false;
  // Equal tail rates: values at the last breakpoint already compared.
  return true;
}

std::optional<TimeNs> PiecewiseLinear::max_horizontal_gap(
    const PiecewiseLinear& service) const {
  const PiecewiseLinear& arrival = *this;
  if (arrival.tail_rate() > service.tail_rate()) return std::nullopt;

  TimeNs worst = 0;
  // Candidate maxima occur at breakpoints of the arrival curve (where A
  // jumps slope) and at arrival times mapping to service breakpoints.
  auto consider = [&](TimeNs t) -> bool {
    const Bytes a = arrival.eval(t);
    const TimeNs reach = service.inverse(a);
    if (reach == kTimeInfinity) return false;
    worst = std::max(worst, reach > t ? reach - t : 0);
    return true;
  };
  for (const Piece& p : arrival.pieces_) {
    if (!consider(p.x)) return std::nullopt;
  }
  for (const Piece& p : service.pieces_) {
    // The arrival instant whose cumulative value the service curve
    // reaches exactly at this breakpoint.
    const TimeNs t = arrival.inverse(p.y);
    if (t != kTimeInfinity && !consider(t)) return std::nullopt;
    // Also probe just after the last arrival breakpoint region: tails are
    // handled below.
  }
  // Tail: if the tail rates are equal the gap can keep growing towards a
  // limit; probe a far point to capture the asymptotic gap.
  const TimeNs far =
      std::max(arrival.pieces_.back().x, service.pieces_.back().x) + sec(10);
  if (!consider(far)) return std::nullopt;
  return worst;
}

std::optional<Bytes> PiecewiseLinear::max_vertical_gap(
    const PiecewiseLinear& service) const {
  const PiecewiseLinear& arrival = *this;
  if (arrival.tail_rate() > service.tail_rate()) return std::nullopt;
  // The difference A - S is piecewise linear, so its maximum lands on a
  // breakpoint of either curve; with the arrival tail rate <= the service
  // tail rate it cannot keep growing beyond the last breakpoint of both.
  unsigned __int128 worst = 0;  // nanobytes
  auto consider = [&](TimeNs t) {
    const unsigned __int128 a = nanobytes_at(arrival.pieces_, t);
    const unsigned __int128 s = nanobytes_at(service.pieces_, t);
    if (a > s) worst = std::max(worst, a - s);
  };
  for (const Piece& p : arrival.pieces_) consider(p.x);
  for (const Piece& p : service.pieces_) consider(p.x);
  // Round up to whole bytes: the backlog bound may overshoot by < 1 byte,
  // never undershoot.
  const unsigned __int128 bytes = (worst + (kNsPerSec - 1)) / kNsPerSec;
  if (bytes > kBytesInfinity) return kBytesInfinity;
  return static_cast<Bytes>(bytes);
}

bool PiecewiseLinear::is_concave() const noexcept {
  for (std::size_t i = 0; i + 1 < pieces_.size(); ++i) {
    const Piece& p = pieces_[i];
    const Piece& q = pieces_[i + 1];
    if (q.slope > p.slope) return false;
    if (q.y != sat_add(p.y, seg_x2y(q.x - p.x, p.slope))) return false;
  }
  return true;
}

PiecewiseLinear PiecewiseLinear::delayed(TimeNs d) const {
  if (d == 0) return *this;
  std::vector<Piece> out;
  out.reserve(pieces_.size() + 1);
  out.push_back(Piece{0, pieces_.front().y, 0});
  for (const Piece& p : pieces_) {
    out.push_back(Piece{sat_add(p.x, d), p.y, p.slope});
  }
  return PiecewiseLinear(std::move(out));
}

PiecewiseLinear PiecewiseLinear::plus(Bytes c) const {
  if (c == 0) return *this;
  std::vector<Piece> out = pieces_;
  for (Piece& p : out) p.y = sat_add(p.y, c);
  return PiecewiseLinear(std::move(out));
}

PiecewiseLinear PiecewiseLinear::convolve(const PiecewiseLinear& other) const {
  // See the header: the infimum of the linear-in-s objective always lands
  // on an operand breakpoint, so each breakpoint (x, y) contributes the
  // whole-curve term other.delayed(x).plus(y) (and symmetrically).  For
  // t < x such a term evaluates to y + other(0), which the x = 0 term
  // already dominates, so folding full curves keeps the result exact.
  std::optional<PiecewiseLinear> acc;
  auto fold = [&acc](PiecewiseLinear term) {
    acc = acc ? acc->min(term) : std::move(term);
  };
  for (const Piece& p : pieces_) fold(other.delayed(p.x).plus(p.y));
  for (const Piece& p : other.pieces_) fold(delayed(p.x).plus(p.y));
  return *acc;  // both operands always have at least one piece
}

std::optional<PiecewiseLinear> PiecewiseLinear::deconvolve(
    const PiecewiseLinear& service) const {
  if (tail_rate() > service.tail_rate()) return std::nullopt;

  // Affine components l_i = sigma_i + rho_i * t covering the arrival
  // curve: exactly the extended pieces when the curve is concave
  // (arrival = min_i l_i, all intercepts exact in nanobytes), a single
  // dominating majorant line otherwise.
  struct Line {
    unsigned __int128 sigma_nb = 0;  // intercept at t = 0, nanobytes
    RateBps rho = 0;
  };
  constexpr unsigned __int128 kMax = ~static_cast<unsigned __int128>(0);
  std::vector<Line> lines;
  if (is_concave()) {
    for (const Piece& p : pieces_) {
      const unsigned __int128 y_nb =
          static_cast<unsigned __int128>(p.y) * kNsPerSec;
      const unsigned __int128 run =
          static_cast<unsigned __int128>(p.slope) * p.x;
      lines.push_back(Line{y_nb > run ? y_nb - run : 0, p.slope});
    }
  } else {
    Line maj;
    for (const Piece& p : pieces_) maj.rho = std::max(maj.rho, p.slope);
    for (const Piece& p : pieces_) {
      const unsigned __int128 y_nb =
          static_cast<unsigned __int128>(p.y) * kNsPerSec;
      const unsigned __int128 run =
          static_cast<unsigned __int128>(maj.rho) * p.x;
      if (y_nb > run) maj.sigma_nb = std::max(maj.sigma_nb, y_nb - run);
    }
    lines.push_back(maj);
  }

  // l (/) g = (sigma + D) + rho * t with D = sup_u [rho * u - g(u)]:
  // piecewise linear in u, so the supremum lands on a breakpoint of g
  // (for rho equal to g's tail rate the objective is constant beyond the
  // last breakpoint, already covered; components with rho above the tail
  // rate diverge and are dropped — dropping a term of the min is exact,
  // their deviation is infinite).
  std::optional<PiecewiseLinear> acc;
  for (const Line& l : lines) {
    if (l.rho > service.tail_rate()) continue;
    unsigned __int128 dev = 0;  // D, nanobytes, clamped at >= 0
    for (const Piece& p : service.pieces_) {
      if (l.rho != 0 &&
          static_cast<unsigned __int128>(p.x) > kMax / l.rho) {
        dev = kMax;  // saturate upward: conservative for an envelope
        break;
      }
      const unsigned __int128 ru =
          static_cast<unsigned __int128>(l.rho) * p.x;
      const unsigned __int128 y_nb =
          static_cast<unsigned __int128>(p.y) * kNsPerSec;
      if (ru > y_nb) dev = std::max(dev, ru - y_nb);
    }
    // Component burst, rounded up, plus one byte of padding so the min()
    // fold below (which may floor synthesized crossings one byte down)
    // can never dip under the exact deconvolution.
    const unsigned __int128 total_nb =
        l.sigma_nb > kMax - dev ? kMax : l.sigma_nb + dev;
    unsigned __int128 burst = (total_nb + (kNsPerSec - 1)) / kNsPerSec;
    burst = burst >= kBytesInfinity ? kBytesInfinity : burst + 1;
    const PiecewiseLinear term =
        PiecewiseLinear::token_bucket(static_cast<Bytes>(burst), l.rho);
    acc = acc ? acc->min(term) : term;
  }
  // A concave arrival always keeps its tail component (rho == tail rate,
  // checked above); only the non-concave majorant can outrun the service.
  if (!acc) return std::nullopt;
  return acc;
}

void AdmissionControl::shift(const ServiceCurve& sc, int sign) {
  // S(t) = first * t up to the knee d, then m2 * (t - d) more: a curve
  // with d == 0 or m1 == m2 is linear and has no knee.
  const bool knee = sc.d != 0 && sc.m1 != sc.m2;
  const __int128 first = knee ? sc.m1 : sc.m2;
  slope0_ += sign * first;
  if (!knee) return;
  const __int128 delta = sign * (static_cast<__int128>(sc.m2) - sc.m1);
  const auto [it, inserted] = knees_.try_emplace(sc.d, delta);
  if (!inserted && (it->second += delta) == 0) knees_.erase(it);
}

void AdmissionControl::add(const ServiceCurve& sc) {
  shift(sc, +1);
  ++counts_[sc];
  ++admitted_count_;
}

void AdmissionControl::release(const ServiceCurve& sc) {
  const auto it = counts_.find(sc);
  ensure(it != counts_.end(), Errc::kInvalidArgument,
         "releasing a service curve that was never admitted: " +
             to_string(sc));
  if (--it->second == 0) counts_.erase(it);
  --admitted_count_;
  shift(sc, -1);
}

bool AdmissionControl::fits() const noexcept {
  // Walk the knees in time order carrying the exact aggregate value (in
  // nanobytes) and slope.  The value never exceeds R * x < 2^128 before a
  // knee is checked, so an addition that would overflow is a misfit.
  constexpr unsigned __int128 kMax = ~static_cast<unsigned __int128>(0);
  unsigned __int128 value = 0;
  __int128 slope = slope0_;  // never negative: a sum of curve slopes
  TimeNs x = 0;
  for (const auto& [knee, delta] : knees_) {
    const auto s = static_cast<unsigned __int128>(slope);
    const std::uint64_t dx = knee - x;
    if (s != 0 && static_cast<unsigned __int128>(dx) > (kMax - value) / s) {
      return false;
    }
    value += s * dx;
    x = knee;
    if (value > static_cast<unsigned __int128>(link_rate_) * x) return false;
    slope += delta;
  }
  return slope <= static_cast<__int128>(link_rate_);
}

bool AdmissionControl::admit(const ServiceCurve& sc) {
  assert(sc.is_supported());
  add(sc);
  if (fits()) return true;
  release(sc);
  return false;
}

bool AdmissionControl::replace(const std::vector<ServiceCurve>& out,
                               const std::vector<ServiceCurve>& in) {
  for (const ServiceCurve& sc : in) add(sc);
  std::size_t released = 0;
  try {
    for (; released < out.size(); ++released) release(out[released]);
  } catch (...) {
    for (std::size_t i = 0; i < released; ++i) add(out[i]);
    for (const ServiceCurve& sc : in) release(sc);
    throw;
  }
  if (fits()) return true;
  for (const ServiceCurve& sc : out) add(sc);
  for (const ServiceCurve& sc : in) release(sc);
  return false;
}

double AdmissionControl::utilization() const noexcept {
  __int128 tail = slope0_;
  for (const auto& knee : knees_) tail += knee.second;
  return static_cast<double>(tail) / static_cast<double>(link_rate_);
}

std::optional<TimeNs> delay_bound(Bytes burst, RateBps rate,
                                  const ServiceCurve& sc, Bytes max_pkt,
                                  RateBps link_rate) {
  const auto gap = PiecewiseLinear::token_bucket(burst, rate)
                       .max_horizontal_gap(
                           PiecewiseLinear::from_service_curve(sc));
  if (!gap) return std::nullopt;
  return sat_add(*gap, tx_time(max_pkt, link_rate));
}

}  // namespace hfsc
