// Checkpoint cost against hierarchy size: checkpoint() into an
// ostringstream, restore_checkpoint() from an istringstream and
// state_digest() on a flat hierarchy of N rt = ls leaves shaped like
// perfbench's wide_rt (concave curves with four knee times, 4 packets
// queued per leaf, one packet per leaf already served so the runtime
// curves hold mid-run values).  docs/BENCH_NOTES.md ("Checkpoint cost")
// records the table; the image size is reported as the `bytes` counter.
//
//   ./build/bench/bench_checkpoint
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

Hfsc wide_rt(std::size_t n) {
  constexpr RateBps kLink = gbps(10);
  const TimeNs knees[] = {msec(2), msec(4), msec(6), msec(8)};
  Rng rng(1);
  Hfsc s(kLink);
  Hfsc::Txn bulk = s.begin();
  for (std::size_t i = 0; i < n; ++i) {
    const RateBps r = kLink / n * rng.uniform(1, 4) / 2;
    bulk.add_class(kRootClass,
                   ClassConfig::both(ServiceCurve{2 * r, knees[i % 4], r}));
  }
  bulk.commit();
  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int k = 0; k < 4; ++k) {
    for (ClassId c = 1; c <= n; ++c) {
      s.enqueue(now, Packet{c, rng.uniform(200, 1500), now, seq++});
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (const auto p = s.dequeue(now)) now += tx_time(p->len, kLink);
  }
  return s;
}

std::string image_of(const Hfsc& s) {
  std::ostringstream os;
  checkpoint(s, os);
  return std::move(os).str();
}

void BM_Checkpoint(benchmark::State& state) {
  const Hfsc s = wide_rt(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    checkpoint(s, os);
    bytes = static_cast<std::size_t>(os.tellp());
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}

void BM_Restore(benchmark::State& state) {
  const std::string image =
      image_of(wide_rt(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    std::istringstream is(image);
    const Hfsc r = restore_checkpoint(is);
    benchmark::DoNotOptimize(&r);
  }
}

void BM_Digest(benchmark::State& state) {
  const Hfsc s = wide_rt(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(state_digest(s));
}

BENCHMARK(BM_Checkpoint)->Arg(10'000)->Arg(100'000)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_Restore)->Arg(10'000)->Arg(100'000)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_Digest)->Arg(10'000)->Arg(100'000)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace hfsc
