// Experiment E10 — Section V data-structure ablation: the dual heap
// ("calendar queue + deadline heap", the set H-FSC uses) and the
// augmented balanced tree (ref. [16]), as raw update / query cycles on
// the structures with synthetic (e, d) requests.  H-FSC itself runs only the dual heap, so the end-to-end cost
// of a dequeue is measured by bench_overhead and perfbench/.
#include <benchmark/benchmark.h>

#include "core/eligible_set.hpp"
#include "support/aug_tree_eligible_set.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

template <class Set>
void isolated(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Set set;
  Rng rng(7);
  TimeNs now = 0;
  // Steady state: n requests resident.
  for (int i = 1; i <= n; ++i) {
    set.update(static_cast<ClassId>(i), rng.uniform(0, msec(10)),
               rng.uniform(msec(10), msec(30)), now);
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    now += usec(10);
    const ClassId cls = 1 + (i % static_cast<std::uint32_t>(n));
    set.update(cls, now + rng.uniform(0, msec(10)),
               now + rng.uniform(msec(10), msec(30)), now);
    auto got = set.min_deadline_eligible(now);
    benchmark::DoNotOptimize(got);
    ++i;
  }
}

void BM_EligibleDualHeap(benchmark::State& state) {
  isolated<DualHeapEligibleSet>(state);
}
void BM_EligibleAugTree(benchmark::State& state) {
  isolated<AugTreeEligibleSet>(state);
}

BENCHMARK(BM_EligibleDualHeap)->RangeMultiplier(4)->Range(16, 65536);
BENCHMARK(BM_EligibleAugTree)->RangeMultiplier(4)->Range(16, 65536);

}  // namespace
}  // namespace hfsc
