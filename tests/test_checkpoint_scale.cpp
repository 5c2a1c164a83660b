// Checkpoint scale gate: a 100k-leaf scheduler with a full backlog goes
// through checkpoint() and back through both restore entry points (the
// string_view parser and its istream wrapper).  Both copies must carry
// the live state digest and serve the next 1000 packets exactly as the
// live scheduler does.  The row runs under the "scale" label's explicit
// TIMEOUT (tests/CMakeLists.txt), so a codec that regresses to per-token
// stream overhead or quadratic growth fails it.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

TEST(CheckpointScale, HundredThousandLeavesRoundTrip) {
  constexpr std::size_t kLeaves = 100'000;
  constexpr RateBps kLink = gbps(10);
  const TimeNs knees[] = {msec(2), msec(4), msec(6), msec(8)};
  Rng rng(7);
  Hfsc live(kLink);
  Hfsc::Txn bulk = live.begin();
  for (std::size_t i = 0; i < kLeaves; ++i) {
    const RateBps r = kLink / kLeaves * rng.uniform(1, 4) / 4;
    bulk.add_class(kRootClass,
                   ClassConfig::both(ServiceCurve{2 * r, knees[i % 4], r}));
  }
  bulk.commit();
  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int k = 0; k < 4; ++k) {
    for (ClassId c = 1; c <= kLeaves; ++c) {
      live.enqueue(now, Packet{c, rng.uniform(200, 1500), now, seq++});
    }
  }
  ASSERT_EQ(live.backlog_packets(), 4 * kLeaves);

  std::string image;
  checkpoint(live, image);
  Hfsc from_view = restore_checkpoint(image);
  std::istringstream in(image);
  Hfsc from_stream = restore_checkpoint(in);
  const std::uint64_t digest = state_digest(live);
  EXPECT_EQ(state_digest(from_view), digest);
  EXPECT_EQ(state_digest(from_stream), digest);

  for (int i = 0; i < 1000; ++i) {
    const auto p = live.dequeue(now);
    const auto a = from_view.dequeue(now);
    const auto b = from_stream.dequeue(now);
    ASSERT_TRUE(p && a && b) << "dequeue " << i;
    ASSERT_EQ(a->seq, p->seq) << "dequeue " << i;
    ASSERT_EQ(b->seq, p->seq) << "dequeue " << i;
    now += tx_time(p->len, kLink);
  }
  EXPECT_EQ(state_digest(from_view), state_digest(live));
}

}  // namespace
}  // namespace hfsc
