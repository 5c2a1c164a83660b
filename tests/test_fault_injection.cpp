// Op-level fault-injection fuzzing for the hardened H-FSC scheduler
// (tests/support/fault_injector.hpp + core/auditor.hpp).
//
// Test 1 drives >= 100k mixed operations through a FaultInjector that
// perturbs the clock (permanent jumps + transient regressions), injects
// malformed packets and churns the class tree mid-backlog, with the
// runtime invariant auditor enabled throughout — and differentially
// checks aggregate throughput against a DRR oracle fed the same (clean)
// arrival stream.  Every injected fault is guaranteed-rejected by the
// hardened data path and every churned class is traffic-less, so after a
// full drain both work-conserving schedulers must have served exactly
// the accepted arrivals: equal packet and byte totals.
//
// Test 2 adds queue-limit pressure and deliberate deletion of backlogged
// leaves (class churn on classes that are actually carrying traffic) and
// checks exact packet conservation — in == out + queued + dropped — with
// the auditor green across every mutation.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/auditor.hpp"
#include "core/hfsc.hpp"
#include "sched/drr.hpp"
#include "support/fault_injector.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

TEST(FaultInjection, HundredThousandOpsMatchDrrOracle) {
  const RateBps link = mbps(100);
  Hfsc sched(link);
  sched.enable_self_check(2048);

  // Two organizations, three leaves each; every leaf has a link-sharing
  // curve so the hierarchy is work-conserving like the DRR oracle.
  Drr oracle;
  std::vector<ClassId> leaves;       // H-FSC ids
  std::vector<ClassId> oracle_ids;   // DRR ids, same order
  ClassId churn_parent = kRootClass;
  for (int o = 0; o < 2; ++o) {
    const ClassId org = sched.add_class(
        kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(link / 2)));
    if (o == 0) churn_parent = org;
    for (int l = 0; l < 3; ++l) {
      const RateBps share = link / 6;
      const ClassConfig cfg =
          l % 2 == 0 ? ClassConfig::both(ServiceCurve::linear(share))
                     : ClassConfig::link_share_only(
                           ServiceCurve{share * 2, msec(2), share / 2});
      leaves.push_back(sched.add_class(org, cfg));
      oracle_ids.push_back(oracle.add_session(1500));
    }
  }

  FaultPlan plan;
  plan.p_clock_jump = 0.02;
  plan.p_clock_regress = 0.02;
  plan.p_bad_class = 0.01;
  plan.p_zero_len = 0.01;
  plan.p_oversized = 0.01;
  plan.p_class_churn = 0.02;  // ephemeral adds/deletes + leaf re-shaping
  plan.p_txn_commit = 0.01;   // transactional batches applied mid-backlog
  plan.p_txn_abort = 0.01;    // staged batches discarded mid-backlog
  plan.p_checkpoint = 0.001;  // checkpoint/restore round trip mid-backlog
  FaultInjector injector(sched, plan, /*seed=*/0xFA17);
  injector.enable_churn(sched, churn_parent, leaves);

  Rng rng(0xD1FF);
  TimeNs now = 0;
  std::uint64_t seq = 0;
  std::uint64_t in_pkts = 0, out_pkts = 0;
  Bytes in_bytes = 0, out_bytes_hfsc = 0, out_bytes_drr = 0;

  constexpr int kSteps = 110'000;  // >= 100k scheduler operations
  for (int step = 0; step < kSteps; ++step) {
    const int op = static_cast<int>(rng.uniform(0, 9));
    if (op <= 4) {  // enqueue the same packet to both schedulers
      const std::size_t i = rng.uniform(0, leaves.size() - 1);
      const Bytes len = 40 + rng.uniform(0, 1460);
      const std::size_t before = sched.backlog_packets();
      injector.enqueue(now, Packet{leaves[i], len, now, seq});
      // No queue limits in this test and injected packets are all
      // rejected, so exactly the real packet must have been admitted.
      ASSERT_EQ(sched.backlog_packets(), before + 1);
      oracle.enqueue(now, Packet{oracle_ids[i], len, now, seq});
      ++seq;
      ++in_pkts;
      in_bytes += len;
    } else if (op <= 8) {  // dequeue both
      const auto hp = injector.dequeue(now);
      const auto dp = oracle.dequeue(now);
      // Both are work-conserving with identical backlogs, so they must
      // agree on whether a packet is available.
      ASSERT_EQ(hp.has_value(), dp.has_value());
      if (hp) {
        out_bytes_hfsc += hp->len;
        out_bytes_drr += dp->len;
        ++out_pkts;
        now += tx_time(hp->len, link);
      }
    } else {  // idle gap
      now += usec(1) + rng.uniform(0, usec(100));
    }
    ASSERT_EQ(sched.backlog_packets(), oracle.backlog_packets());
    if (step % 8192 == 0) {
      const AuditReport report = audit(sched);
      ASSERT_TRUE(report.ok()) << report.to_string();
    }
  }

  // Drain both completely; every accepted byte must come back out.
  while (sched.backlog_packets() > 0) {
    const auto hp = injector.dequeue(now);
    const auto dp = oracle.dequeue(now);
    ASSERT_TRUE(hp.has_value());
    ASSERT_TRUE(dp.has_value());
    out_bytes_hfsc += hp->len;
    out_bytes_drr += dp->len;
    ++out_pkts;
    now += tx_time(hp->len, link);
  }
  EXPECT_EQ(oracle.backlog_packets(), 0u);
  EXPECT_EQ(out_pkts, in_pkts);
  EXPECT_EQ(out_bytes_hfsc, in_bytes);
  EXPECT_EQ(out_bytes_drr, in_bytes);

  const AuditReport final_report = audit(sched);
  EXPECT_TRUE(final_report.ok()) << final_report.to_string();
  EXPECT_GT(sched.self_checks_run(), 0u);

  // The run must actually have exercised every fault category.
  const FaultCounts& fc = injector.counts();
  EXPECT_GT(fc.clock_jumps, 0u);
  EXPECT_GT(fc.clock_regressions, 0u);
  EXPECT_GT(fc.bad_class_packets, 0u);
  EXPECT_GT(fc.zero_len_packets, 0u);
  EXPECT_GT(fc.oversized_packets, 0u);
  EXPECT_GT(fc.classes_added, 0u);
  EXPECT_GT(fc.classes_changed, 0u);
  EXPECT_GT(fc.classes_deleted, 0u);
  EXPECT_GT(fc.txn_commits, 0u);
  EXPECT_GT(fc.txn_aborts, 0u);
  EXPECT_GT(fc.checkpoint_roundtrips, 0u);
  EXPECT_EQ(fc.checkpoint_mismatches, 0u)
      << "a restored checkpoint diverged from the original's state digest";

  // ... and the hardened data path must have absorbed all of it.
  const DataPathCounters& dc = sched.data_path_counters();
  EXPECT_EQ(dc.rejected_packets(),
            fc.bad_class_packets + fc.zero_len_packets + fc.oversized_packets);
  EXPECT_GT(dc.clock_regressions, 0u);
}

TEST(FaultInjection, QueueLimitPressureAndBackloggedDeletesConserve) {
  const RateBps link = mbps(50);
  Hfsc sched(link);
  sched.enable_self_check(1024);

  // org1 holds stable leaves the injector may re-shape and limit-flap;
  // org2 holds victim leaves the test deletes while they are backlogged.
  const ClassId org1 = sched.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(link / 2)));
  const ClassId org2 = sched.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(link / 2)));
  std::vector<ClassId> stable;
  for (int l = 0; l < 3; ++l) {
    stable.push_back(sched.add_class(
        org1, ClassConfig::both(ServiceCurve::linear(link / 8))));
  }
  std::vector<ClassId> victims;
  auto add_victim = [&] {
    victims.push_back(sched.add_class(
        org2, ClassConfig::both(ServiceCurve{link / 4, msec(1), link / 16})));
  };
  for (int l = 0; l < 3; ++l) add_victim();

  FaultPlan plan;
  plan.p_clock_jump = 0.01;
  plan.p_clock_regress = 0.01;
  plan.p_bad_class = 0.01;
  plan.p_zero_len = 0.01;
  plan.p_oversized = 0.01;
  plan.p_queue_limit = 0.05;  // pressure: stable leaves flap 0..16 slots
  plan.p_class_churn = 0.02;
  FaultInjector injector(sched, plan, /*seed=*/0xBEEF);
  injector.enable_churn(sched, org1, stable);

  Rng rng(0xCAFE);
  TimeNs now = 0;
  std::uint64_t seq = 0;
  std::uint64_t in_pkts = 0, out_pkts = 0;
  std::uint64_t taildrops = 0;   // rejected at the door by a queue limit
  std::uint64_t del_drops = 0;   // admitted, then dropped by delete_class
  std::map<ClassId, std::uint64_t> queued;

  auto model_backlog = [&] {
    std::uint64_t sum = 0;
    for (const auto& [cls, n] : queued) sum += n;
    return sum;
  };

  constexpr int kSteps = 50'000;
  for (int step = 0; step < kSteps; ++step) {
    const int op = static_cast<int>(rng.uniform(0, 9));
    if (op <= 3) {  // enqueue to a random live leaf
      std::vector<ClassId>& pool = (rng.chance(0.5) || victims.empty())
                                       ? stable
                                       : victims;
      const ClassId cls = pool[rng.uniform(0, pool.size() - 1)];
      const Bytes len = 40 + rng.uniform(0, 1460);
      const std::size_t before = sched.backlog_packets();
      injector.enqueue(now, Packet{cls, len, now, seq++});
      // Injected packets never enter the queues, so the backlog delta
      // tells exactly whether the real packet was admitted or tail-
      // dropped by a queue limit.
      if (sched.backlog_packets() == before + 1) {
        ++in_pkts;
        ++queued[cls];
      } else {
        ASSERT_EQ(sched.backlog_packets(), before);
        ++taildrops;
      }
    } else if (op <= 6) {  // dequeue
      const auto p = injector.dequeue(now);
      if (p) {
        ASSERT_GT(queued[p->cls], 0u) << "served an empty leaf";
        --queued[p->cls];
        ++out_pkts;
        now += tx_time(p->len, link);
      }
    } else if (op == 7) {  // delete a victim leaf mid-backlog
      if (!victims.empty()) {
        const std::size_t i = rng.uniform(0, victims.size() - 1);
        const ClassId victim = victims[i];
        const std::size_t before = sched.backlog_packets();
        sched.delete_class(victim);
        ASSERT_EQ(before - sched.backlog_packets(), queued[victim]);
        del_drops += queued[victim];
        queued.erase(victim);
        victims.erase(victims.begin() + static_cast<long>(i));
        const AuditReport report = audit(sched);
        ASSERT_TRUE(report.ok()) << report.to_string();
      }
      if (victims.size() < 4 && rng.chance(0.8)) add_victim();
    } else {  // idle gap
      now += usec(1) + rng.uniform(0, usec(50));
    }
    ASSERT_EQ(sched.backlog_packets(), model_backlog());
    // Conservation: every admitted packet is out, queued, or delete-dropped.
    ASSERT_EQ(in_pkts, out_pkts + model_backlog() + del_drops);
    if (step % 4096 == 0) {
      const AuditReport report = audit(sched);
      ASSERT_TRUE(report.ok()) << report.to_string();
    }
  }

  while (sched.backlog_packets() > 0) {
    const auto p = injector.dequeue(now);
    ASSERT_TRUE(p.has_value());
    --queued[p->cls];
    ++out_pkts;
    now += tx_time(p->len, link);
  }
  EXPECT_EQ(in_pkts, out_pkts + del_drops);
  EXPECT_GT(taildrops, 0u);  // queue-limit pressure actually bit
  EXPECT_GT(del_drops, 0u);  // deletes actually hit backlogged victims

  const AuditReport final_report = audit(sched);
  EXPECT_TRUE(final_report.ok()) << final_report.to_string();
  EXPECT_GT(sched.self_checks_run(), 0u);
  EXPECT_GT(injector.counts().queue_limit_changes, 0u);
}

}  // namespace
}  // namespace hfsc
