#include "gps.hpp"

#include <algorithm>

namespace hfsc {

void FluidGps::advance(TimeNs t) {
  if (t <= now_) return;
  double remaining_s =
      static_cast<double>(t - now_) / static_cast<double>(kNsPerSec);
  now_ = t;

  // Piecewise-constant share evolution: serve until the next session
  // drains, redistribute, repeat.
  while (remaining_s > 1e-15) {
    double total_w = 0.0;
    for (const Session& s : sessions_) {
      if (s.backlog > 1e-9) total_w += s.weight;
    }
    if (total_w <= 0.0) return;  // idle

    // Time until the first backlogged session drains at current shares.
    double first_drain = remaining_s;
    for (const Session& s : sessions_) {
      if (s.backlog <= 1e-9) continue;
      const double rate = capacity_ * s.weight / total_w;  // bytes/s
      if (rate <= 0.0) continue;
      first_drain = std::min(first_drain, s.backlog / rate);
    }
    const double step = std::min(remaining_s, first_drain);
    for (Session& s : sessions_) {
      if (s.backlog <= 1e-9) continue;
      const double rate = capacity_ * s.weight / total_w;
      const double amount = std::min(s.backlog, rate * step);
      s.backlog -= amount;
      s.served += amount;
      if (s.backlog < 1e-9) s.backlog = 0.0;
    }
    remaining_s -= step;
    // Guard against numerical stalls when a drain time rounds to ~0.
    if (step <= 1e-15) break;
  }
}

}  // namespace hfsc
