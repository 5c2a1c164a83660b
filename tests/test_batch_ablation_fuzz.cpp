// Differential fuzz: RuntimeHost::dequeue_batch(k) vs k single dequeue()
// calls.
//
// dequeue() is the only way a scheduler releases a packet; the host's
// batch call is a plain loop over its own dequeue(now), so a caller may
// mix the two freely.  This fuzzer pins that: it drives two hosts built
// identically through the same random tape; at every service point one
// twin serves k packets with single calls and the other with one
// dequeue_batch(now, k), and the twins must agree exactly — packets,
// state_digest, governor state and journal bytes.  The governor is on
// with low thresholds and a short sample interval (zero for some seeds,
// so a sample falls due before every packet, mid-batch included), so its
// interventions land inside batches.  The tape interleaves the hard
// cases:
//
//   * enqueues (including queue-limit drop-tail pressure),
//   * clock jumps (idle gaps, watchdog and sampling cadence),
//   * commit_batch churn — committed batches and failing batches that
//     must roll back on both twins identically,
//   * save_checkpoint + recover round trips, applied to both twins at
//     the same step (recovery resets the sampling clock and the
//     governor's streaks, so a one-sided round trip would diverge),
//
// for k in {1, 2, 7, 32}.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "runtime/host.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

struct BatchFuzzCase {
  std::uint64_t seed;
};

// The "_kind0" suffix dates from when every seed also ran H-FSC on the
// other two eligible sets; it keeps the row names stable.
void PrintTo(const BatchFuzzCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_kind0";
}

class BatchAblationFuzz : public ::testing::TestWithParam<BatchFuzzCase> {};

// Builds one of a few random leaf configs under a 100 Mb/s link.
ClassConfig random_leaf_cfg(Rng& rng) {
  const RateBps share = mbps(static_cast<RateBps>(rng.uniform(1, 8)));
  switch (rng.uniform(0, 3)) {
    case 0:
      return ClassConfig::link_share_only(ServiceCurve::linear(share));
    case 1:
      return ClassConfig::both(
          ServiceCurve{share * 2, msec(rng.uniform(1, 4)), share});
    case 2:
      return ClassConfig::both(ServiceCurve{0, msec(rng.uniform(0, 3)),
                                            share});
    default: {
      ClassConfig cfg = ClassConfig::both(ServiceCurve::linear(share));
      cfg.ul = ServiceCurve::linear(share * 2);  // exercise upper limits
      return cfg;
    }
  }
}

// A governor that climbs its ladder at the fuzzer's few-kilobyte
// backlogs, with admission on so level 3 journals `adm` records.
RuntimeOptions fuzz_opts(Rng& rng) {
  RuntimeOptions o;
  o.link_rate = mbps(100);
  o.admission_rate = gbps(1);
  o.watchdog_horizon = msec(3);
  constexpr TimeNs kIntervals[] = {0, usec(20), usec(200)};
  o.sample_interval = kIntervals[static_cast<std::size_t>(rng.uniform(0, 2))];
  o.governor.enter_backlog[0] = 6 * 1024;
  o.governor.enter_backlog[1] = 12 * 1024;
  o.governor.enter_backlog[2] = 24 * 1024;
  o.governor.exit_backlog[0] = 3 * 1024;
  o.governor.exit_backlog[1] = 6 * 1024;
  o.governor.exit_backlog[2] = 12 * 1024;
  o.governor.class_threshold = 4 * 1024;
  return o;
}

::testing::AssertionResult twins_agree(const RuntimeHost& single,
                                       const RuntimeHost& batch) {
  if (single.digest() != batch.digest()) {
    return ::testing::AssertionFailure() << "state digests differ";
  }
  if (single.governor().serialize() != batch.governor().serialize()) {
    return ::testing::AssertionFailure() << "governor states differ";
  }
  if (single.journal_image() != batch.journal_image()) {
    return ::testing::AssertionFailure() << "journals differ";
  }
  return ::testing::AssertionSuccess();
}

TEST_P(BatchAblationFuzz, BatchIsBitIdenticalToSingles) {
  Rng rng(GetParam().seed);
  const RuntimeOptions opts = fuzz_opts(rng);
  std::optional<RuntimeHost> single(std::in_place, opts);
  std::optional<RuntimeHost> batch(std::in_place, opts);

  // Identical random hierarchy on both twins.
  std::vector<ClassId> leaves;
  const int num_orgs = rng.uniform(1, 3);
  for (int o = 0; o < num_orgs; ++o) {
    const ClassConfig org_cfg = ClassConfig::link_share_only(
        ServiceCurve::linear(opts.link_rate / static_cast<RateBps>(num_orgs)));
    // One single-op commit per mutation, the same on both twins.
    auto commit_both = [&](const RuntimeHost::BatchOp& op) {
      const std::vector<ClassId> ids = single->commit_batch({op});
      EXPECT_EQ(ids, batch->commit_batch({op}));
      return ids.empty() ? op.cls : ids.front();
    };
    using OpKind = RuntimeHost::BatchOp::Kind;
    const ClassId org = commit_both({.kind = OpKind::kAdd, .cfg = org_cfg});
    const int n_leaves = rng.uniform(2, 5);
    for (int l = 0; l < n_leaves; ++l) {
      const ClassId leaf = commit_both(
          {.kind = OpKind::kAdd, .parent = org, .cfg = random_leaf_cfg(rng)});
      if (rng.chance(0.3)) {
        commit_both({.kind = OpKind::kQueueLimit, .cls = leaf, .limit = 6});
      }
      leaves.push_back(leaf);
    }
  }

  constexpr std::size_t kBatchSizes[] = {1, 2, 7, 32};
  TimeNs now = 0;
  std::uint64_t seq = 0;
  std::vector<Packet> out;
  std::size_t got = 0;
  // One service point: `batch` takes one dequeue_batch(now, k) and
  // `single` the matching loop of dequeue(now) calls, failing call
  // included, so both twins make the same calls at the same instant.
  auto serve_both = [&](std::size_t k, int step) {
    out.clear();
    got = batch->dequeue_batch(now, k, out);
    ASSERT_EQ(got, out.size());
    std::size_t served = 0;
    for (; served < k; ++served) {
      std::optional<Packet> p = single->dequeue(now);
      if (!p) break;
      ASSERT_LT(served, got)
          << "singles served more than the batch at step " << step;
      EXPECT_EQ(p->cls, out[served].cls) << "order diverged, step " << step;
      EXPECT_EQ(p->seq, out[served].seq) << "order diverged, step " << step;
      EXPECT_EQ(p->len, out[served].len) << "order diverged, step " << step;
    }
    ASSERT_EQ(served, got) << "served-count diverged at step " << step;
    ASSERT_TRUE(twins_agree(*single, *batch))
        << "after k=" << k << " at step " << step;
  };

  for (int step = 0; step < 1200; ++step) {
    switch (rng.uniform(0, 9)) {
      case 0:
      case 1:
      case 2: {  // enqueue a small burst into both
        const int n = rng.uniform(1, 6);
        for (int i = 0; i < n; ++i) {
          const ClassId cls =
              leaves[static_cast<std::size_t>(rng.uniform(
                  0, static_cast<int>(leaves.size()) - 1))];
          const Bytes len = static_cast<Bytes>(rng.uniform(64, 1500));
          const Packet pkt{cls, len, now, seq++};
          single->enqueue(now, pkt);
          batch->enqueue(now, pkt);
        }
        break;
      }
      case 3: {  // idle gap (watchdog / sampling / eligibility flips)
        now += static_cast<TimeNs>(rng.uniform(0, static_cast<int>(msec(2))));
        break;
      }
      case 4: {  // commit_batch churn, identical on both twins
        const bool fail = rng.chance(0.3);
        RuntimeHost::BatchOp qlim;
        qlim.kind = RuntimeHost::BatchOp::Kind::kQueueLimit;
        qlim.cls = leaves[static_cast<std::size_t>(
            rng.uniform(0, static_cast<int>(leaves.size()) - 1))];
        qlim.limit = static_cast<std::size_t>(rng.uniform(4, 12));
        std::vector<RuntimeHost::BatchOp> ops{qlim};
        if (fail) {  // deleting the root is always rejected
          RuntimeHost::BatchOp del;
          del.kind = RuntimeHost::BatchOp::Kind::kDelete;
          del.cls = kRootClass;
          ops.push_back(del);
        }
        auto commit = [&](RuntimeHost& h) -> bool {
          try {
            h.commit_batch(ops);
            return true;
          } catch (const Error&) {
            return false;
          }
        };
        const bool ok_s = commit(*single);
        const bool ok_b = commit(*batch);
        ASSERT_EQ(ok_s, ok_b) << "commit outcome diverged at step " << step;
        ASSERT_EQ(ok_s, !fail) << "unexpected commit outcome at step " << step;
        ASSERT_TRUE(twins_agree(*single, *batch))
            << "after commit_batch at step " << step;
        break;
      }
      case 5: {  // checkpoint + recover both twins mid-run
        for (std::optional<RuntimeHost>* h : {&single, &batch}) {
          (*h)->save_checkpoint();
          const std::string cp = (*h)->checkpoint_image();
          const std::string journal = (*h)->journal_image();
          h->emplace(RuntimeHost::recover(opts, cp, journal));
        }
        ASSERT_TRUE(twins_agree(*single, *batch))
            << "after recovery at step " << step;
        break;
      }
      default: {  // the differential service point
        const std::size_t k =
            kBatchSizes[static_cast<std::size_t>(rng.uniform(0, 3))];
        ASSERT_NO_FATAL_FAILURE(serve_both(k, step));
        break;
      }
    }
  }

  // Drain both completely and compare the full remaining order plus
  // final counters.
  do {
    now += usec(200);
    ASSERT_NO_FATAL_FAILURE(serve_both(32, -1));
  } while (got > 0 || batch->sched().backlog_packets() > 0);
  ASSERT_TRUE(twins_agree(*single, *batch)) << "after the drain";
  for (const ClassId leaf : leaves) {
    EXPECT_EQ(single->sched().packets_sent(leaf),
              batch->sched().packets_sent(leaf));
    EXPECT_EQ(single->sched().class_drops(leaf),
              batch->sched().class_drops(leaf));
  }
}

std::vector<BatchFuzzCase> make_cases() {
  std::vector<BatchFuzzCase> cases;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    cases.push_back({seed * 0x9E37u});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchAblationFuzz,
                         ::testing::ValuesIn(make_cases()));

}  // namespace
}  // namespace hfsc
