// Experiment E9 — the paper's measurement experiments (Section VII /
// Table-I shape): per-packet scheduling overhead as a function of the
// number of classes, for H-FSC and every baseline.
//
// The authors measured enqueue+dequeue microseconds in a NetBSD kernel on
// a Pentium; we measure ns/op of the identical algorithmic code in user
// space (substitution documented in DESIGN.md).  The comparable result is
// the *shape*: O(log n) growth for the heap-based schedulers, flat for
// FIFO, and the constant factors between disciplines.
//
// Each iteration performs one enqueue and one dequeue in steady state with
// all classes backlogged, advancing simulated time so curve updates and
// eligibility migrations are exercised.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/hfsc.hpp"
#include "sched/fifo.hpp"
#include "sched/hpfq.hpp"
#include "sched/sced.hpp"
#include "sched/virtual_clock.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

constexpr RateBps kLink = gbps(1);
constexpr Bytes kPkt = 1000;

// Drives one enqueue+dequeue per iteration with `n` backlogged classes.
template <typename MakeSched, typename AddClass>
void drive(benchmark::State& state, MakeSched make, AddClass add) {
  const int n = static_cast<int>(state.range(0));
  auto sched = make();
  std::vector<ClassId> cls;
  cls.reserve(n);
  for (int i = 0; i < n; ++i) cls.push_back(add(*sched, n));
  // Pre-fill: 4 packets per class.
  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int r = 0; r < 4; ++r) {
    for (ClassId c : cls) {
      sched->enqueue(now, Packet{c, kPkt, now, seq++});
    }
  }
  Rng rng(42);
  const TimeNs step = tx_time(kPkt, kLink);
  std::size_t i = 0;
  for (auto _ : state) {
    now += step;
    sched->enqueue(now, Packet{cls[i % cls.size()], kPkt, now, seq++});
    auto p = sched->dequeue(now);
    benchmark::DoNotOptimize(p);
    ++i;
  }
  state.SetLabel(std::string(sched->name()));
}

void BM_Fifo(benchmark::State& state) {
  drive(
      state, [] { return std::make_unique<Fifo>(); },
      [](Fifo&, int) { return ClassId{1}; });
}

void BM_VirtualClock(benchmark::State& state) {
  drive(
      state, [] { return std::make_unique<VirtualClock>(); },
      [](VirtualClock& s, int n) {
        return s.add_session(kLink / static_cast<RateBps>(n));
      });
}

void BM_Sced(benchmark::State& state) {
  drive(
      state, [] { return std::make_unique<Sced>(); },
      [](Sced& s, int n) {
        const RateBps r = kLink / static_cast<RateBps>(n);
        return s.add_session(ServiceCurve{2 * r, msec(5), r});
      });
}

void BM_Wf2qPlus(benchmark::State& state) {
  // Flat WF2Q+: every class directly under H-PFQ's root.
  drive(
      state, [] { return std::make_unique<HPfq>(kLink, PfqPolicy::SEFF); },
      [](HPfq& s, int n) {
        return s.add_class(kRootClass, kLink / static_cast<RateBps>(n));
      });
  state.SetLabel("WF2Q+");
}

void BM_HPfq(benchmark::State& state) {
  // Two-level tree: sqrt(n) orgs with sqrt(n) leaves each.
  const int n = static_cast<int>(state.range(0));
  int orgs = 1;
  while (orgs * orgs < n) ++orgs;
  auto sched = std::make_unique<HPfq>(kLink);
  std::vector<ClassId> cls;
  const RateBps org_rate = kLink / static_cast<RateBps>(orgs);
  for (int o = 0; o < orgs && static_cast<int>(cls.size()) < n; ++o) {
    const ClassId org = sched->add_class(kRootClass, org_rate);
    for (int l = 0; l < orgs && static_cast<int>(cls.size()) < n; ++l) {
      cls.push_back(sched->add_class(
          org, org_rate / static_cast<RateBps>(orgs)));
    }
  }
  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int r = 0; r < 4; ++r) {
    for (ClassId c : cls) sched->enqueue(now, Packet{c, kPkt, now, seq++});
  }
  const TimeNs step = tx_time(kPkt, kLink);
  std::size_t i = 0;
  for (auto _ : state) {
    now += step;
    sched->enqueue(now, Packet{cls[i % cls.size()], kPkt, now, seq++});
    auto p = sched->dequeue(now);
    benchmark::DoNotOptimize(p);
    ++i;
  }
  state.SetLabel("H-PFQ (2-level)");
}

void BM_Hfsc(benchmark::State& state) {
  drive(
      state,
      [] { return std::make_unique<Hfsc>(kLink); },
      [](Hfsc& s, int n) {
        const RateBps r = kLink / static_cast<RateBps>(n);
        return s.add_class(kRootClass,
                           ClassConfig::both(ServiceCurve{2 * r, msec(5), r}));
      });
}

void BM_HfscTwoLevel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  int orgs = 1;
  while (orgs * orgs < n) ++orgs;
  auto sched = std::make_unique<Hfsc>(kLink);
  std::vector<ClassId> cls;
  const RateBps org_rate = kLink / static_cast<RateBps>(orgs);
  for (int o = 0; o < orgs && static_cast<int>(cls.size()) < n; ++o) {
    const ClassId org = sched->add_class(
        kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(org_rate)));
    for (int l = 0; l < orgs && static_cast<int>(cls.size()) < n; ++l) {
      const RateBps r = org_rate / static_cast<RateBps>(orgs);
      cls.push_back(sched->add_class(
          org, ClassConfig::both(ServiceCurve{2 * r, msec(5), r})));
    }
  }
  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int r = 0; r < 4; ++r) {
    for (ClassId c : cls) sched->enqueue(now, Packet{c, kPkt, now, seq++});
  }
  const TimeNs step = tx_time(kPkt, kLink);
  std::size_t i = 0;
  for (auto _ : state) {
    now += step;
    sched->enqueue(now, Packet{cls[i % cls.size()], kPkt, now, seq++});
    auto p = sched->dequeue(now);
    benchmark::DoNotOptimize(p);
    ++i;
  }
  state.SetLabel("H-FSC (2-level)");
}

constexpr int kLo = 16;
constexpr int kHi = 4096;

BENCHMARK(BM_Fifo)->RangeMultiplier(4)->Range(kLo, kHi);
BENCHMARK(BM_VirtualClock)->RangeMultiplier(4)->Range(kLo, kHi);
BENCHMARK(BM_Sced)->RangeMultiplier(4)->Range(kLo, kHi);
BENCHMARK(BM_Wf2qPlus)->RangeMultiplier(4)->Range(kLo, kHi);
BENCHMARK(BM_HPfq)->RangeMultiplier(4)->Range(kLo, kHi);
BENCHMARK(BM_Hfsc)->RangeMultiplier(4)->Range(kLo, kHi);
BENCHMARK(BM_HfscTwoLevel)->RangeMultiplier(4)->Range(kLo, kHi);

}  // namespace
}  // namespace hfsc
