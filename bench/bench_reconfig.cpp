// Live reconfiguration cost against hierarchy size: one Hfsc::Txn commit
// of delete + add + change (perfbench's churn_host cycle) on a flat
// hierarchy of N rt leaves whose curves share four knee times, with
// admission control off (arg 0) and on (arg 1).  A commit touches three
// classes, so its cost should not grow with N; docs/BENCH_NOTES.md
// ("Reconfiguration cost") records the table.
//
//   ./build/bench/bench_reconfig
#include <benchmark/benchmark.h>

#include <vector>

#include "core/hfsc.hpp"

namespace hfsc {
namespace {

void BM_TxnCommit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ServiceCurve curves[4] = {
      {kbps(320), msec(1), kbps(80)},
      {kbps(320), msec(2), kbps(80)},
      {kbps(320), msec(5), kbps(80)},
      {kbps(320), msec(10), kbps(80)},
  };
  Hfsc s(gbps(100));
  std::vector<ClassId> leaves;
  Hfsc::Txn bulk = s.begin();
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(
        bulk.add_class(kRootClass, ClassConfig::both(curves[i % 4])));
  }
  bulk.commit();
  if (state.range(1) != 0) s.enable_admission_control();

  std::size_t k = 0;
  for (auto _ : state) {
    Hfsc::Txn txn = s.begin();
    txn.delete_class(leaves[k]);
    leaves.push_back(
        txn.add_class(kRootClass, ClassConfig::both(curves[k % 4])));
    txn.change_class(0, leaves[k + 1],
                     ClassConfig::both(curves[(k + 2) % 4]));
    txn.commit();
    ++k;
  }
}

BENCHMARK(BM_TxnCommit)
    ->ArgsProduct({{10'000, 20'000, 100'000}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hfsc
