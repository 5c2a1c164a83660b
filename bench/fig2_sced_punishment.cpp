// Experiment E1/E2 — Fig. 2 of the paper.
//
// Two sessions on a unit-capacity link (8 Mb/s here):
//   session 1: convex  S1 = {0 until 200 ms, then 6 Mb/s}
//   session 2: concave S2 = {8 Mb/s for 200 ms, then 4 Mb/s}
// Session 1 is alone during (0, t1 = 500 ms] and consumes the whole link;
// session 2 becomes active at t1 and stays backlogged.
//
// Under SCED (Fig. 2(b)(c)) session 1 is punished: it receives no service
// from t1 until the wall clock catches up with its deadline curve.  Under
// the fair service-curve scheduler (Fig. 2(d)) session 1 keeps receiving
// service right after session 2's burst phase; the price is a bounded
// violation of session 2's curve — the fairness/guarantee tradeoff of
// Section III-C(a).  H-FSC (third column pair) honours session 2's burst
// via the real-time criterion, then resumes sharing immediately.
//
// Output: cumulative service (kB) per 50 ms for each scheduler.
#include <cstdio>
#include <map>

#include "core/hfsc.hpp"
#include "sched/sced.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

using namespace hfsc;

namespace {

constexpr RateBps kLink = mbps(8);
constexpr TimeNs kT1 = msec(500);
constexpr TimeNs kEnd = msec(1400);
const ServiceCurve kS1{0, msec(200), mbps(6)};        // convex
const ServiceCurve kS2{mbps(8), msec(200), mbps(4)};  // concave

struct Series {
  std::map<std::size_t, Bytes> cum1, cum2;  // window -> cumulative bytes
};

Series run(Scheduler& sched, ClassId c1, ClassId c2) {
  Simulator sim(kLink, sched, msec(50));
  sim.add<GreedySource>(c1, 1000, 4, 0, kEnd);
  sim.add<GreedySource>(c2, 1000, 4, kT1, kEnd);
  Series out;
  Bytes w1 = 0, w2 = 0;
  sim.link().add_departure_hook([&](TimeNs t, const Packet& p) {
    (p.cls == c1 ? w1 : w2) += p.len;
    const std::size_t win = static_cast<std::size_t>(t / msec(50));
    out.cum1[win] = w1;
    out.cum2[win] = w2;
  });
  sim.run(kEnd);
  return out;
}

}  // namespace

int main() {
  std::printf("Fig. 2 reproduction: punishment under SCED vs fair FSC vs "
              "H-FSC\n");
  std::printf("  S1 (convex) : %s\n", to_string(kS1).c_str());
  std::printf("  S2 (concave): %s\n", to_string(kS2).c_str());
  std::printf("  session 1 active from 0; session 2 from t1 = 500 ms\n\n");

  Sced sced;
  const ClassId s1 = sced.add_session(kS1);
  const ClassId s2 = sced.add_session(kS2);
  const Series a = run(sced, s1, s2);

  // The fair flat FSC of Fig. 2(d) is H-FSC's link-sharing criterion at
  // one level: ls-only leaves under the root.
  Hfsc fsc(kLink);
  const ClassId f1 =
      fsc.add_class(kRootClass, ClassConfig::link_share_only(kS1));
  const ClassId f2 =
      fsc.add_class(kRootClass, ClassConfig::link_share_only(kS2));
  const Series b = run(fsc, f1, f2);

  Hfsc hf(kLink);
  const ClassId h1 = hf.add_class(kRootClass, ClassConfig::both(kS1));
  const ClassId h2 = hf.add_class(kRootClass, ClassConfig::both(kS2));
  const Series c = run(hf, h1, h2);

  TablePrinter table({"t_ms", "sced_w1_kB", "sced_w2_kB", "fsc_w1_kB",
                      "fsc_w2_kB", "hfsc_w1_kB", "hfsc_w2_kB"});
  auto at = [](const std::map<std::size_t, Bytes>& m, std::size_t w) {
    // Cumulative value at the end of window w (carry the last known).
    Bytes v = 0;
    for (const auto& [win, bytes] : m) {
      if (win > w) break;
      v = bytes;
    }
    return static_cast<double>(v) / 1000.0;
  };
  for (std::size_t w = 1; w < kEnd / msec(50); w += 2) {
    table.add_row({std::to_string((w + 1) * 50),
                   TablePrinter::fmt(at(a.cum1, w), 1),
                   TablePrinter::fmt(at(a.cum2, w), 1),
                   TablePrinter::fmt(at(b.cum1, w), 1),
                   TablePrinter::fmt(at(b.cum2, w), 1),
                   TablePrinter::fmt(at(c.cum1, w), 1),
                   TablePrinter::fmt(at(c.cum2, w), 1)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Headline numbers: how long was session 1 completely starved after t1?
  auto starved_ms = [&](const Series& s) {
    const std::size_t w_t1 = kT1 / msec(50);
    Bytes at_t1 = 0;
    std::size_t until = w_t1;
    for (std::size_t w = w_t1; w < kEnd / msec(50); ++w) {
      const Bytes now = static_cast<Bytes>(at(s.cum1, w) * 1000.0);
      if (w == w_t1) {
        at_t1 = now;
      } else if (now > at_t1 + 2000) {  // >2 packets of progress
        until = w;
        break;
      }
    }
    return (until - w_t1) * 50;
  };
  std::printf("session-1 starvation after t1:  SCED ~%zu ms   "
              "FSC ~%zu ms   H-FSC ~%zu ms\n",
              starved_ms(a), starved_ms(b), starved_ms(c));
  std::printf("(paper: SCED punishes session 1 well past session 2's burst; "
              "fair variants resume service immediately / after the "
              "burst)\n");
  return 0;
}
