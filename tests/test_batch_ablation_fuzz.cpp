// Differential fuzz: Hfsc::dequeue_batch(k) vs k single dequeue() calls.
//
// The batched hot path only earns its keep if it is *observably free*:
// the contract (core/hfsc.hpp) promises bit-identity with the single-
// dequeue loop — same packets in the same order, same state_digest, same
// counters — so callers can mix APIs freely and every existing proof
// about dequeue() transfers to the batch.  This fuzzer drives two
// schedulers built identically through the same random tape; at every
// service point one side serves k packets with single calls and the
// other with one dequeue_batch(now, k), and the digests must agree
// exactly.  The tape interleaves the hard cases:
//
//   * enqueues (including queue-limit drop-tail pressure),
//   * clock jumps (idle gaps, watchdog cadence),
//   * Txn churn — committed batches and failing batches that must
//     roll back on both sides identically,
//   * checkpoint/restore of the batch-side scheduler mid-run (the
//     restored instance must keep matching the never-restored one),
//
// for k in {1, 2, 7, 32}.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
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

TEST_P(BatchAblationFuzz, BatchIsBitIdenticalToSingles) {
  Rng rng(GetParam().seed);
  const RateBps link = mbps(100);
  Hfsc single(link);
  Hfsc batch(link);

  // Identical random hierarchy on both sides.
  std::vector<ClassId> leaves;
  const int num_orgs = rng.uniform(1, 3);
  for (int o = 0; o < num_orgs; ++o) {
    const ClassConfig org_cfg = ClassConfig::link_share_only(
        ServiceCurve::linear(link / static_cast<RateBps>(num_orgs)));
    const ClassId org_s = single.add_class(kRootClass, org_cfg);
    const ClassId org_b = batch.add_class(kRootClass, org_cfg);
    ASSERT_EQ(org_s, org_b);
    const int n_leaves = rng.uniform(2, 5);
    for (int l = 0; l < n_leaves; ++l) {
      const ClassConfig cfg = random_leaf_cfg(rng);
      const ClassId leaf = single.add_class(org_s, cfg);
      ASSERT_EQ(leaf, batch.add_class(org_b, cfg));
      if (rng.chance(0.3)) {
        single.set_queue_limit(leaf, 6);
        batch.set_queue_limit(leaf, 6);
      }
      leaves.push_back(leaf);
    }
  }

  constexpr std::size_t kBatchSizes[] = {1, 2, 7, 32};
  TimeNs now = 0;
  std::uint64_t seq = 0;
  std::vector<Packet> out;

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
          single.enqueue(now, pkt);
          batch.enqueue(now, pkt);
        }
        break;
      }
      case 3: {  // idle gap (watchdog / eligibility flips)
        now += static_cast<TimeNs>(rng.uniform(0, static_cast<int>(msec(2))));
        break;
      }
      case 4: {  // Txn churn, identical on both sides
        const bool fail = rng.chance(0.3);
        const ClassId victim =
            leaves[static_cast<std::size_t>(rng.uniform(
                0, static_cast<int>(leaves.size()) - 1))];
        auto run_txn = [&](Hfsc& s) -> bool {
          Hfsc::Txn txn = s.begin();
          txn.set_queue_limit(victim, static_cast<std::size_t>(
                                          rng.uniform(4, 12)));
          if (fail) txn.delete_class(kRootClass);  // always rejected
          try {
            txn.commit();
            return true;
          } catch (const Error&) {
            return false;
          }
        };
        // One rng tape: draw the limit once, replay on both.
        Rng fork = rng;
        const bool ok_s = run_txn(single);
        rng = fork;
        const bool ok_b = run_txn(batch);
        ASSERT_EQ(ok_s, ok_b) << "txn outcome diverged at step " << step;
        break;
      }
      case 5: {  // checkpoint/restore the batch side mid-run
        std::ostringstream img;
        checkpoint(batch, img);
        std::istringstream in(img.str());
        batch = restore_checkpoint(in);
        ASSERT_EQ(state_digest(single), state_digest(batch))
            << "restore broke digest parity at step " << step;
        break;
      }
      default: {  // the differential service point
        const std::size_t k =
            kBatchSizes[static_cast<std::size_t>(rng.uniform(0, 3))];
        out.clear();
        const std::size_t got = batch.dequeue_batch(now, k, out);
        ASSERT_EQ(got, out.size());
        std::size_t served = 0;
        for (; served < k; ++served) {
          std::optional<Packet> p = single.dequeue(now);
          if (!p) break;
          ASSERT_LT(served, got)
              << "singles served more than the batch at step " << step;
          EXPECT_EQ(p->cls, out[served].cls) << "order diverged, step " << step;
          EXPECT_EQ(p->seq, out[served].seq) << "order diverged, step " << step;
          EXPECT_EQ(p->len, out[served].len) << "order diverged, step " << step;
        }
        ASSERT_EQ(served, got) << "served-count diverged at step " << step;
        ASSERT_EQ(state_digest(single), state_digest(batch))
            << "state digest diverged after k=" << k << " at step " << step;
        break;
      }
    }
  }

  // Drain both completely through opposite APIs and compare the full
  // remaining order plus final counters.
  for (;;) {
    now += usec(200);
    out.clear();
    const std::size_t got = batch.dequeue_batch(now, 32, out);
    for (std::size_t i = 0; i < got; ++i) {
      std::optional<Packet> p = single.dequeue(now);
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(p->seq, out[i].seq);
    }
    if (got == 0) {
      ASSERT_FALSE(single.dequeue(now).has_value());
      if (batch.backlog_packets() == 0) break;
    }
  }
  ASSERT_EQ(state_digest(single), state_digest(batch));
  for (const ClassId leaf : leaves) {
    EXPECT_EQ(single.packets_sent(leaf), batch.packets_sent(leaf));
    EXPECT_EQ(single.class_drops(leaf), batch.class_drops(leaf));
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
