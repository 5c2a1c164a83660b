// bench_throughput — the canonical hot-path benchmark (machine-readable).
//
// Drives a steady-state backlogged workload through H-FSC and reports
// dequeue throughput plus per-dequeue latency percentiles on two
// hierarchy shapes:
//
//   * wide1000 — 1000 leaves directly under the root (the eligible-set
//     and active-children heaps dominate);
//   * deep8    — a complete binary tree 8 levels deep, 256 leaves (the
//     per-level virtual-time bookkeeping of charge_total dominates).
//
// Unlike the google-benchmark binaries (bench_overhead,
// bench_eligible_ablation) this tool emits one JSON document so the repo
// can keep a trajectory of numbers across PRs: run it from the repo root
// and commit the refreshed BENCH_throughput.json.
//
// Besides the H-FSC row, each workload also runs once under H-PFQ and CBQ, compiled from the same HierarchySpec
// (config/hierarchy_spec.hpp), so the trajectory tracks the comparison
// families' hot paths too.  Those loops go through the virtual Scheduler
// interface and tolerate refused dequeues (CBQ shapes; it may idle while
// estimators recover), so their figure is served packets over wall time.
//
//   $ bench_throughput [--packets=N] [--smoke] [--out=FILE]
//                      [--workload=wide1000|deep8]
//
// --smoke cuts the packet count so CI can gate on "the bench still runs
// and produces sane JSON" without paying for a full measurement.
//
// Methodology: two phases per row.
// Phase A times the whole steady-state loop (one dequeue + one refill
// enqueue per packet) with two clock reads total, giving an undisturbed
// throughput figure.  Phase B re-runs a sample of the same loop with a
// clock read around each dequeue to collect the latency distribution;
// the two phases are reported separately because per-op timing itself
// costs tens of nanoseconds.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "config/hierarchy_spec.hpp"
#include "core/hfsc.hpp"
#include "curve/runtime_curve.hpp"
#include "runtime/host.hpp"
#include "runtime/supervisor.hpp"

namespace hfsc {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

constexpr RateBps kLink = gbps(10);
constexpr Bytes kPktLen = 1000;
constexpr int kBacklogPerLeaf = 4;

struct Workload {
  const char* name;
  std::vector<ClassId> (*build)(Hfsc&);
};

// 1000 leaves under the root, each with a concave rt+ls curve.
std::vector<ClassId> build_wide(Hfsc& s) {
  constexpr int kLeaves = 1000;
  const RateBps r = kLink / kLeaves;
  std::vector<ClassId> leaves;
  leaves.reserve(kLeaves);
  for (int i = 0; i < kLeaves; ++i) {
    leaves.push_back(s.add_class(
        kRootClass, ClassConfig::both(ServiceCurve{2 * r, msec(5), r})));
  }
  return leaves;
}

// Complete binary tree, 8 levels of classes below the root (256 leaves).
std::vector<ClassId> build_deep(Hfsc& s) {
  constexpr int kDepth = 8;
  std::vector<ClassId> level{kRootClass};
  for (int d = 1; d <= kDepth; ++d) {
    const std::size_t width = std::size_t{1} << d;
    const RateBps share = kLink / static_cast<RateBps>(width);
    std::vector<ClassId> next;
    next.reserve(width);
    for (const ClassId p : level) {
      for (int k = 0; k < 2; ++k) {
        next.push_back(s.add_class(
            p, d == kDepth
                   ? ClassConfig::both(ServiceCurve{2 * share, msec(5), share})
                   : ClassConfig::link_share_only(
                         ServiceCurve::linear(share))));
      }
    }
    level = std::move(next);
  }
  return level;
}

struct Result {
  std::string workload;
  std::string scheduler = "hfsc";
  // H-FSC's eligible set (core/eligible_set.hpp); "-" for non-H-FSC rows.
  std::string eligible_set = "dual_heap";
  int shards = 1;    // > 1 only for the supervised sharded-runtime rows
  std::uint64_t packets = 0;
  std::uint64_t wall_ns = 0;
  double pkts_per_sec = 0.0;
  std::uint64_t lat_samples = 0;
  double ns_mean = 0.0;
  std::uint64_t ns_p50 = 0;
  std::uint64_t ns_p99 = 0;
};

// One steady-state pass: each iteration dequeues a packet and refills the
// class it came from, so the per-leaf backlog stays constant.  Returns the
// number of packets actually dequeued (== iters unless the config is
// broken, which the caller checks).
template <class S>
std::uint64_t run_loop(S& s, TimeNs& now, const TimeNs step,
                       std::uint64_t iters, std::uint64_t& seq,
                       std::vector<std::uint32_t>* lat) {
  std::uint64_t served = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    now += step;
    std::optional<Packet> p;
    if (lat) {
      const std::uint64_t t0 = now_ns();
      p = s.dequeue(now);
      const std::uint64_t t1 = now_ns();
      lat->push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(t1 - t0, 0xFFFFFFFFu)));
    } else {
      p = s.dequeue(now);
    }
    if (p) {
      ++served;
      s.enqueue(now, Packet{p->cls, kPktLen, now, seq++});
    }
  }
  return served;
}

Result run_one(const Workload& w, std::uint64_t packets,
               std::uint64_t lat_samples) {
  Hfsc s(kLink);
  const std::vector<ClassId> leaves = w.build(s);
  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int r = 0; r < kBacklogPerLeaf; ++r) {
    for (const ClassId c : leaves) {
      s.enqueue(now, Packet{c, kPktLen, now, seq++});
    }
  }
  const TimeNs step = tx_time(kPktLen, kLink);

  // Warmup: reach the steady state (heaps at final size, curves past
  // their knees) before the timed phase.
  const std::uint64_t warm = std::min<std::uint64_t>(packets / 10, 100'000);
  run_loop(s, now, step, warm, seq, nullptr);

  Result res;
  res.workload = w.name;
  res.packets = packets;

  const std::uint64_t t0 = now_ns();
  const std::uint64_t served = run_loop(s, now, step, packets, seq, nullptr);
  res.wall_ns = now_ns() - t0;
  if (served != packets) {
    std::fprintf(stderr,
                 "FATAL: %s/hfsc served %llu of %llu packets — broken "
                 "config\n",
                 res.workload.c_str(),
                 static_cast<unsigned long long>(served),
                 static_cast<unsigned long long>(packets));
    std::exit(1);
  }
  res.pkts_per_sec =
      res.wall_ns == 0 ? 0.0 : 1e9 * static_cast<double>(packets) /
                                   static_cast<double>(res.wall_ns);

  std::vector<std::uint32_t> lat;
  lat.reserve(lat_samples);
  run_loop(s, now, step, lat_samples, seq, &lat);
  res.lat_samples = lat.size();
  if (!lat.empty()) {
    std::uint64_t sum = 0;
    for (const std::uint32_t v : lat) sum += v;
    res.ns_mean = static_cast<double>(sum) / static_cast<double>(lat.size());
    auto pct = [&](double q) {
      const std::size_t idx = static_cast<std::size_t>(
          q * static_cast<double>(lat.size() - 1));
      std::nth_element(lat.begin(), lat.begin() + idx, lat.end());
      return static_cast<std::uint64_t>(lat[idx]);
    };
    res.ns_p50 = pct(0.50);
    res.ns_p99 = pct(0.99);
  }
  return res;
}

// The same steady-state pass driven through RuntimeHost (runtime/host.hpp)
// with the overload governor enabled but idle at level 0: the row prices
// the resilience layer's hot-path tax (one threshold compare per enqueue
// plus the bounded-cadence sampling) against the bare scheduler.  The
// acceptance budget is < 3% off the matching hfsc/dual_heap row.
Result run_one_runtime(const Workload& w, std::uint64_t packets,
                       std::uint64_t lat_samples) {
  RuntimeOptions opts;
  opts.link_rate = kLink;
  // The benchmark intentionally holds a constant multi-megabyte backlog;
  // raise the ladder thresholds so the governor observes it and stays at
  // level 0 (the level-0 cost is what this row prices).
  opts.governor.enter_backlog[0] = 64 * 1024 * 1024;
  opts.governor.enter_backlog[1] = 128 * 1024 * 1024;
  opts.governor.enter_backlog[2] = 256 * 1024 * 1024;
  opts.governor.exit_backlog[0] = 32 * 1024 * 1024;
  opts.governor.exit_backlog[1] = 64 * 1024 * 1024;
  opts.governor.exit_backlog[2] = 128 * 1024 * 1024;
  opts.governor.class_threshold = 16 * 1024 * 1024;
  RuntimeHost host(opts);
  const std::vector<ClassId> leaves = w.build(host.sched());
  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int r = 0; r < kBacklogPerLeaf; ++r) {
    for (const ClassId c : leaves) {
      host.enqueue(now, Packet{c, kPktLen, now, seq++});
    }
  }
  const TimeNs step = tx_time(kPktLen, kLink);
  const std::uint64_t warm = std::min<std::uint64_t>(packets / 10, 100'000);
  run_loop(host, now, step, warm, seq, nullptr);

  Result res;
  res.workload = w.name;
  res.scheduler = "runtime";
  res.packets = packets;

  const std::uint64_t t0 = now_ns();
  const std::uint64_t served = run_loop(host, now, step, packets, seq, nullptr);
  res.wall_ns = now_ns() - t0;
  if (served != packets || host.gov_level() != 0) {
    std::fprintf(stderr,
                 "FATAL: %s/runtime served %llu of %llu at level %d — "
                 "broken config\n",
                 res.workload.c_str(),
                 static_cast<unsigned long long>(served),
                 static_cast<unsigned long long>(packets), host.gov_level());
    std::exit(1);
  }
  res.pkts_per_sec =
      res.wall_ns == 0 ? 0.0 : 1e9 * static_cast<double>(packets) /
                                   static_cast<double>(res.wall_ns);

  std::vector<std::uint32_t> lat;
  lat.reserve(lat_samples);
  run_loop(host, now, step, lat_samples, seq, &lat);
  res.lat_samples = lat.size();
  if (!lat.empty()) {
    std::uint64_t sum = 0;
    for (const std::uint32_t v : lat) sum += v;
    res.ns_mean = static_cast<double>(sum) / static_cast<double>(lat.size());
    auto pct = [&](double q) {
      const std::size_t idx = static_cast<std::size_t>(
          q * static_cast<double>(lat.size() - 1));
      std::nth_element(lat.begin(), lat.begin() + idx, lat.end());
      return static_cast<std::uint64_t>(lat[idx]);
    };
    res.ns_p50 = pct(0.50);
    res.ns_p99 = pct(0.99);
  }
  return res;
}

// The supervised sharded runtime (runtime/supervisor.hpp) on wide1000:
// the 1000 top-level leaves hash-partition across N shards, each shard a
// full RuntimeHost (+ heartbeat supervision) driven by its own worker
// thread in steady-state refill mode (checkpointing off, frontier gate
// off — pure hot-path).  The figure is total dequeues across shards over
// wall time, measured from the workers' cumulative sent counters.  On a
// single-core machine the grid records the isolation tax (threads +
// supervision vs the in-process runtime row), not a speedup.
Result run_one_sharded(const HierarchySpec& spec, int shards,
                       std::uint64_t packets) {
  ShardedOptions so;
  so.shards = shards;
  RuntimeOptions& o = so.shard.runtime;
  o.link_rate = kLink;
  // Same idle-governor thresholds as run_one_runtime: the constant
  // multi-megabyte backlog must read as steady state, not overload.
  o.governor.enter_backlog[0] = 64 * 1024 * 1024;
  o.governor.enter_backlog[1] = 128 * 1024 * 1024;
  o.governor.enter_backlog[2] = 256 * 1024 * 1024;
  o.governor.exit_backlog[0] = 32 * 1024 * 1024;
  o.governor.exit_backlog[1] = 64 * 1024 * 1024;
  o.governor.exit_backlog[2] = 128 * 1024 * 1024;
  o.governor.class_threshold = 16 * 1024 * 1024;
  so.shard.ring_capacity = 64;
  so.shard.checkpoint_every_pops = 0;  // never: hot path only
  so.shard.serve_burst = 64;
  so.shard.refill = true;
  ShardedRuntime rt(so, spec);

  // Pre-seed the per-leaf backlog directly into each shard's host (the
  // workers have not started; construction-time access is legal).
  std::uint64_t seq = 0;
  for (const auto& c : spec.classes) {
    const ClassId gid = rt.global_id(c.name);
    Shard& sh = rt.shard(rt.shard_of(gid));
    for (int r = 0; r < kBacklogPerLeaf; ++r) {
      sh.host().enqueue(0, Packet{rt.local_id(gid), kPktLen, 0, seq++});
    }
  }
  rt.start();

  auto total_sent = [&rt, shards] {
    std::uint64_t t = 0;
    for (int s = 0; s < shards; ++s) t += rt.shard(s).sent_total();
    return t;
  };
  const std::uint64_t warm = std::min<std::uint64_t>(packets / 10, 100'000);
  while (total_sent() < warm) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::uint64_t s0 = total_sent();
  const std::uint64_t t0 = now_ns();
  while (total_sent() < s0 + packets) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  const std::uint64_t wall = now_ns() - t0;
  const std::uint64_t served = total_sent() - s0;
  rt.stop();
  for (int s = 0; s < shards; ++s) {
    if (rt.shard(s).dead() || rt.shard(s).restarts() != 0) {
      std::fprintf(stderr,
                   "FATAL: sharded/%d shard %d died or restarted during a "
                   "steady-state bench\n",
                   shards, s);
      std::exit(1);
    }
  }

  Result res;
  res.workload = "wide1000";
  res.scheduler = "sharded";
  res.shards = shards;
  res.packets = served;
  res.wall_ns = wall;
  res.pkts_per_sec = wall == 0 ? 0.0
                               : 1e9 * static_cast<double>(served) /
                                     static_cast<double>(wall);
  return res;  // per-dequeue latency is in-thread; no samples from here
}

// The same hierarchies as build_wide/build_deep, as a HierarchySpec the
// comparison families compile from.
HierarchySpec spec_wide() {
  constexpr int kLeaves = 1000;
  const RateBps r = kLink / kLeaves;
  HierarchySpec spec;
  for (int i = 0; i < kLeaves; ++i) {
    HierarchySpec::ClassSpec c;
    c.name = "w";
    c.name += std::to_string(i);
    c.rt = c.ls = ServiceCurve{2 * r, msec(5), r};
    spec.add(std::move(c));
  }
  return spec;
}

HierarchySpec spec_deep() {
  constexpr int kDepth = 8;
  HierarchySpec spec;
  std::vector<std::string> level{""};
  for (int d = 1; d <= kDepth; ++d) {
    const std::size_t width = std::size_t{1} << d;
    const RateBps share = kLink / static_cast<RateBps>(width);
    std::vector<std::string> next;
    next.reserve(width);
    for (const std::string& p : level) {
      for (int k = 0; k < 2; ++k) {
        HierarchySpec::ClassSpec c;
        c.name = p.empty() ? "d" : p;
        c.name += std::to_string(k);
        c.parent = p;
        if (d == kDepth) {
          c.rt = c.ls = ServiceCurve{2 * share, msec(5), share};
        } else {
          c.ls = ServiceCurve::linear(share);
        }
        next.push_back(c.name);
        spec.add(std::move(c));
      }
    }
    level = std::move(next);
  }
  return spec;
}

Result run_one_family(const char* workload, const HierarchySpec& spec,
                      SchedulerKind kind, std::uint64_t packets,
                      std::uint64_t lat_samples) {
  HierarchySpec::Compiled compiled = spec.compile(kind, kLink);
  Scheduler& s = *compiled.sched;
  std::vector<ClassId> leaves;
  for (const auto& [cls_name, id] : compiled.ids) {
    if (spec.is_leaf(cls_name)) leaves.push_back(id);
  }
  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int r = 0; r < kBacklogPerLeaf; ++r) {
    for (const ClassId c : leaves) {
      s.enqueue(now, Packet{c, kPktLen, now, seq++});
    }
  }
  const TimeNs step = tx_time(kPktLen, kLink);
  const std::uint64_t warm = std::min<std::uint64_t>(packets / 10, 100'000);
  run_loop(s, now, step, warm, seq, nullptr);

  Result res;
  res.workload = workload;
  res.scheduler = std::string(to_string(kind));
  // Single-char assign dodges GCC 12's -Wrestrict false positive (PR
  // 105651) on string-from-short-literal at -O3 under -Werror.
  res.eligible_set = '-';
  res.packets = packets;

  const std::uint64_t t0 = now_ns();
  const std::uint64_t served = run_loop(s, now, step, packets, seq, nullptr);
  res.wall_ns = now_ns() - t0;
  if (served == 0) {
    std::fprintf(stderr, "FATAL: %s/%s served nothing — broken config\n",
                 res.workload.c_str(), res.scheduler.c_str());
    std::exit(1);
  }
  res.pkts_per_sec =
      res.wall_ns == 0 ? 0.0 : 1e9 * static_cast<double>(served) /
                                   static_cast<double>(res.wall_ns);

  std::vector<std::uint32_t> lat;
  lat.reserve(lat_samples);
  run_loop(s, now, step, lat_samples, seq, &lat);
  res.lat_samples = lat.size();
  if (!lat.empty()) {
    std::uint64_t sum = 0;
    for (const std::uint32_t v : lat) sum += v;
    res.ns_mean = static_cast<double>(sum) / static_cast<double>(lat.size());
    auto pct = [&](double q) {
      const std::size_t idx = static_cast<std::size_t>(
          q * static_cast<double>(lat.size() - 1));
      std::nth_element(lat.begin(), lat.begin() + idx, lat.end());
      return static_cast<std::uint64_t>(lat[idx]);
    };
    res.ns_p50 = pct(0.50);
    res.ns_p99 = pct(0.99);
  }
  return res;
}

void write_json(const std::vector<Result>& results, std::uint64_t packets,
                bool smoke, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "FATAL: cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_throughput\",\n");
  std::fprintf(f, "  \"schema_version\": 4,\n");
  std::fprintf(f, "  \"link_rate_bps\": %llu,\n",
               static_cast<unsigned long long>(kLink));
  std::fprintf(f, "  \"packet_len\": %llu,\n",
               static_cast<unsigned long long>(kPktLen));
  std::fprintf(f, "  \"packets_per_combo\": %llu,\n",
               static_cast<unsigned long long>(packets));
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    // "batch" stays in schema v4 as a constant: every row makes one
    // dequeue() call per packet.
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"scheduler\": \"%s\", "
        "\"eligible_set\": \"%s\", \"shards\": %d, \"batch\": 1, "
        "\"packets\": %llu, \"wall_ns\": %llu, \"pkts_per_sec\": %.0f, "
        "\"lat_samples\": %llu",
        r.workload.c_str(), r.scheduler.c_str(), r.eligible_set.c_str(),
        r.shards, static_cast<unsigned long long>(r.packets),
        static_cast<unsigned long long>(r.wall_ns), r.pkts_per_sec,
        static_cast<unsigned long long>(r.lat_samples));
    // Rows with no latency samples (the sharded runtime measures its
    // dequeues in-thread) omit the latency fields entirely: schema v3
    // printed them as literal zeros, which read as an impossible 0 ns.
    if (r.lat_samples > 0) {
      std::fprintf(f,
                   ", \"ns_per_dequeue_mean\": %.1f, "
                   "\"ns_per_dequeue_p50\": %llu, "
                   "\"ns_per_dequeue_p99\": %llu",
                   r.ns_mean, static_cast<unsigned long long>(r.ns_p50),
                   static_cast<unsigned long long>(r.ns_p99));
    }
    std::fprintf(f, "}%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace hfsc

int main(int argc, char** argv) {
  using namespace hfsc;
  std::uint64_t packets = 10'000'000;
  std::uint64_t lat_samples = 1'000'000;
  bool smoke = false;
  std::string out = "BENCH_throughput.json";
  std::string only_workload;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (const char* v = val("--packets=")) {
      packets = std::strtoull(v, nullptr, 10);
    } else if (const char* o = val("--out=")) {
      out = o;
    } else if (const char* w = val("--workload=")) {
      only_workload = w;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--packets=N] [--smoke] [--out=FILE]\n"
                   "          [--workload=wide1000|deep8]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) {
    packets = std::min<std::uint64_t>(packets, 200'000);
    lat_samples = 50'000;
  }
  lat_samples = std::min(lat_samples, packets);

  const Workload workloads[] = {
      {"wide1000", &build_wide},
      {"deep8", &build_deep},
  };

  std::vector<Result> results;
  auto show = [](const Result& r) {
    std::printf(
        "%-8s %-7s %-9s  %10.0f pkts/s  mean %6.1f ns  p50 %4llu ns  "
        "p99 %4llu ns\n",
        r.workload.c_str(), r.scheduler.c_str(), r.eligible_set.c_str(),
        r.pkts_per_sec, r.ns_mean,
        static_cast<unsigned long long>(r.ns_p50),
        static_cast<unsigned long long>(r.ns_p99));
  };
  for (const Workload& w : workloads) {
    if (!only_workload.empty() && only_workload != w.name) continue;
    const Result r = run_one(w, packets, lat_samples);
    show(r);
    results.push_back(r);
  }
  // Resilience-runtime rows: the same workloads through RuntimeHost with
  // the governor idle at level 0, plus the overhead vs the bare
  // hfsc/dual_heap row (budget: < 3%).
  for (const Workload& w : workloads) {
    if (!only_workload.empty() && only_workload != w.name) continue;
    const Result r = run_one_runtime(w, packets, lat_samples);
    show(r);
    for (const Result& base : results) {
      if (base.workload == r.workload && base.scheduler == "hfsc" &&
          base.pkts_per_sec > 0) {
        std::printf("%-8s governor-at-level-0 overhead vs hfsc/dual_heap: "
                    "%+.2f%%\n",
                    r.workload.c_str(),
                    100.0 * (base.pkts_per_sec - r.pkts_per_sec) /
                        base.pkts_per_sec);
      }
    }
    results.push_back(r);
  }
  // Supervised sharded-runtime rows: wide1000 hash-partitioned across
  // 1/2/4/8 shards, steady-state refill under live heartbeat
  // supervision (runtime/supervisor.hpp).
  if (only_workload.empty() || only_workload == "wide1000") {
    const HierarchySpec wide = spec_wide();
    for (const int n : {1, 2, 4, 8}) {
      const Result r = run_one_sharded(wide, n, packets);
      std::printf("%-8s sharded x%d dual_heap  %10.0f pkts/s\n",
                  r.workload.c_str(), r.shards, r.pkts_per_sec);
      results.push_back(r);
    }
  }
  // Comparison-family rows: the same hierarchies through H-PFQ and CBQ.
  const std::pair<const char*, HierarchySpec> specs[] = {
      {"wide1000", spec_wide()},
      {"deep8", spec_deep()},
  };
  for (const auto& [wname, spec] : specs) {
    if (!only_workload.empty() && only_workload != wname) continue;
    for (const SchedulerKind kind :
         {SchedulerKind::kHpfq, SchedulerKind::kCbq}) {
      const Result r = run_one_family(wname, spec, kind, packets, lat_samples);
      show(r);
      results.push_back(r);
    }
  }
  if (results.empty()) {
    std::fprintf(stderr, "no workload selected\n");
    return 2;
  }
#ifdef HFSC_CACHE_STATS
  {
    const auto& cs = curve_cache_stats();
    const std::uint64_t hits = cs.hits.load(std::memory_order_relaxed);
    const std::uint64_t misses = cs.misses.load(std::memory_order_relaxed);
    const std::uint64_t total = hits + misses;
    std::printf("curve-inverse cache: %llu hits / %llu misses (%.1f%% hit)\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(hits) /
                                 static_cast<double>(total));
  }
#endif
  write_json(results, packets, smoke, out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
