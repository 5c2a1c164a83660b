// The hardened error model (util/errors.hpp): every public mutator
// rejects misuse with a typed hfsc::Error even in NDEBUG builds, and the
// data path absorbs malformed events (drop/clamp + count) instead of
// throwing or corrupting state.
#include <gtest/gtest.h>

#include "core/auditor.hpp"
#include "core/hfsc.hpp"
#include "sched/cbq.hpp"
#include "sched/hpfq.hpp"
#include "util/errors.hpp"

namespace hfsc {
namespace {

// Runs `op` and asserts it throws Error with the expected code.
template <typename Fn>
void expect_error(Errc code, Fn&& op) {
  try {
    op();
    FAIL() << "expected Error{" << to_string(code) << "}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

TEST(HfscErrors, ConstructorRejectsZeroLinkRate) {
  expect_error(Errc::kInvalidArgument, [] { Hfsc s(0); });
}

TEST(HfscErrors, AddClassMisuse) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(5))));
  const ClassId leaf = s.add_class(
      org, ClassConfig::both(ServiceCurve::linear(mbps(1))));

  // Unknown parent.
  expect_error(Errc::kInvalidClass, [&] {
    s.add_class(99, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  });
  // Parent with queued packets must stay a leaf.
  s.enqueue(0, Packet{leaf, 100, 0, 0});
  expect_error(Errc::kHasBacklog, [&] {
    s.add_class(leaf, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  });
  // Interior parent without a link-sharing curve.
  const ClassId rt_only = s.add_class(
      kRootClass, ClassConfig::real_time_only(ServiceCurve::linear(mbps(1))));
  expect_error(Errc::kMissingCurve, [&] {
    s.add_class(rt_only, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  });
  // Unsupported (convex with m1 > 0 is outside the algebra when m1 < m2).
  expect_error(Errc::kUnsupportedCurve, [&] {
    s.add_class(kRootClass, ClassConfig::both(
                                ServiceCurve{kbps(1), msec(5), mbps(5)}));
  });
  // Neither rt nor ls.
  expect_error(Errc::kMissingCurve,
               [&] { s.add_class(kRootClass, ClassConfig{}); });
  // Deleted parent.
  const ClassId doomed = s.add_class(
      kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  s.delete_class(doomed);
  expect_error(Errc::kInvalidClass, [&] {
    s.add_class(doomed, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  });
}

TEST(HfscErrors, ChangeClassMisuse) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(5))));
  const ClassId leaf =
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(1))));

  expect_error(Errc::kInvalidClass, [&] {
    s.change_class(0, 99, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  });
  expect_error(Errc::kInvalidClass, [&] {
    s.change_class(0, kRootClass,
                   ClassConfig::both(ServiceCurve::linear(mbps(1))));
  });
  // Interior must keep an ls curve.
  expect_error(Errc::kMissingCurve, [&] {
    s.change_class(0, org,
                   ClassConfig::real_time_only(ServiceCurve::linear(mbps(1))));
  });
  // A leaf needs at least one curve.
  expect_error(Errc::kMissingCurve,
               [&] { s.change_class(0, leaf, ClassConfig{}); });
  // Unsupported shape.
  expect_error(Errc::kUnsupportedCurve, [&] {
    s.change_class(0, leaf,
                   ClassConfig::both(ServiceCurve{kbps(1), msec(5), mbps(2)}));
  });
  // Deleted class.
  s.delete_class(leaf);
  expect_error(Errc::kInvalidClass, [&] {
    s.change_class(0, leaf, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  });
}

TEST(HfscErrors, DeleteAndQueueLimitMisuse) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(5))));
  const ClassId leaf =
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(1))));

  expect_error(Errc::kInvalidClass, [&] { s.delete_class(99); });
  expect_error(Errc::kInvalidClass, [&] { s.delete_class(kRootClass); });
  expect_error(Errc::kHasChildren, [&] { s.delete_class(org); });
  expect_error(Errc::kInvalidClass, [&] { s.set_queue_limit(99, 4); });
  expect_error(Errc::kInvalidClass, [&] { s.set_queue_limit(kRootClass, 4); });
  s.delete_class(leaf);
  expect_error(Errc::kInvalidClass, [&] { s.delete_class(leaf); });
  expect_error(Errc::kInvalidClass, [&] { s.set_queue_limit(leaf, 4); });
}

TEST(HfscErrors, DataPathAbsorbsMalformedPackets) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(5))));
  const ClassId leaf =
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(1))));

  // Unknown id, root, interior class, deleted class.
  s.enqueue(0, Packet{12345, 100, 0, 0});
  s.enqueue(0, Packet{kRootClass, 100, 0, 0});
  s.enqueue(0, Packet{org, 100, 0, 0});
  const ClassId dead =
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  s.delete_class(dead);
  s.enqueue(0, Packet{dead, 100, 0, 0});
  EXPECT_EQ(s.data_path_counters().bad_class, 4u);

  // Zero-length and oversized.
  s.enqueue(0, Packet{leaf, 0, 0, 0});
  s.enqueue(0, Packet{leaf, s.max_packet_len() + 1, 0, 0});
  EXPECT_EQ(s.data_path_counters().zero_len, 1u);
  EXPECT_EQ(s.data_path_counters().oversized, 1u);

  // Nothing entered the queues; state is still clean.
  EXPECT_EQ(s.backlog_packets(), 0u);
  EXPECT_TRUE(audit(s).ok());

  // A legitimate packet still flows.
  s.enqueue(0, Packet{leaf, 500, 0, 1});
  auto p = s.dequeue(0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->len, 500u);
}

TEST(HfscErrors, ClockRegressionIsClampedNotObeyed) {
  Hfsc s(mbps(10));
  const ClassId leaf = s.add_class(
      kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(10))));

  s.enqueue(msec(10), Packet{leaf, 1000, msec(10), 0});
  ASSERT_TRUE(s.dequeue(msec(10)).has_value());
  // The clock now runs backwards; the scheduler must clamp to the last
  // time it saw and keep serving correctly.
  s.enqueue(msec(2), Packet{leaf, 1000, msec(2), 1});
  EXPECT_EQ(s.data_path_counters().clock_regressions, 1u);
  EXPECT_TRUE(audit(s).ok());
  auto p = s.dequeue(msec(3));  // still before the watermark: clamped again
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->seq, 1u);
  EXPECT_EQ(s.data_path_counters().clock_regressions, 2u);
  EXPECT_TRUE(audit(s).ok());
}

TEST(HfscErrors, SetMaxPacketLenValidated) {
  Hfsc s(mbps(10));
  expect_error(Errc::kInvalidArgument, [&] { s.set_max_packet_len(0); });
  s.set_max_packet_len(200);
  const ClassId leaf = s.add_class(
      kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(10))));
  s.enqueue(0, Packet{leaf, 201, 0, 0});
  EXPECT_EQ(s.data_path_counters().oversized, 1u);
  s.enqueue(0, Packet{leaf, 200, 0, 1});
  EXPECT_EQ(s.backlog_packets(), 1u);
}

TEST(PfqSchedErrors, ControlThrowsDataPathCounts) {
  // Flat WF2Q+ is a one-level H-PFQ; a non-default policy goes through the
  // same validation.
  expect_error(Errc::kInvalidArgument, [] { HPfq s(0, PfqPolicy::SEFF); });
  HPfq s(mbps(10), PfqPolicy::SEFF);
  expect_error(Errc::kInvalidArgument,
               [&] { s.add_class(kRootClass, 0); });
  const ClassId a = s.add_class(kRootClass, mbps(5));
  s.enqueue(0, Packet{99, 100, 0, 0});
  s.enqueue(0, Packet{a, 0, 0, 0});
  s.enqueue(0, Packet{a, kMaxSanePacketLen + 1, 0, 0});
  EXPECT_EQ(s.data_path_counters().bad_class, 1u);
  EXPECT_EQ(s.data_path_counters().zero_len, 1u);
  EXPECT_EQ(s.data_path_counters().oversized, 1u);
  EXPECT_EQ(s.backlog_packets(), 0u);
  s.enqueue(0, Packet{a, 100, 0, 0});
  EXPECT_TRUE(s.dequeue(0).has_value());
}

TEST(HpfqErrors, ControlThrowsDataPathCounts) {
  expect_error(Errc::kInvalidArgument, [] { HPfq s(0); });
  HPfq s(mbps(10));
  expect_error(Errc::kInvalidClass, [&] { s.add_class(42, mbps(1)); });
  expect_error(Errc::kInvalidArgument, [&] { s.add_class(kRootClass, 0); });
  const ClassId a = s.add_class(kRootClass, mbps(5));
  s.enqueue(0, Packet{a, 100, 0, 0});
  expect_error(Errc::kHasBacklog, [&] { s.add_class(a, mbps(1)); });
  s.enqueue(0, Packet{99, 100, 0, 0});     // unknown
  s.enqueue(0, Packet{kRootClass, 100, 0, 0});  // interior
  s.enqueue(0, Packet{a, 0, 0, 0});
  s.enqueue(0, Packet{a, kMaxSanePacketLen + 1, 0, 0});
  EXPECT_EQ(s.data_path_counters().bad_class, 2u);
  EXPECT_EQ(s.data_path_counters().zero_len, 1u);
  EXPECT_EQ(s.data_path_counters().oversized, 1u);
  EXPECT_EQ(s.backlog_packets(), 1u);
  EXPECT_TRUE(s.dequeue(0).has_value());
  EXPECT_FALSE(s.dequeue(0).has_value());
}

TEST(CbqErrors, ControlThrowsDataPathCounts) {
  expect_error(Errc::kInvalidArgument, [] { Cbq s(0); });
  expect_error(Errc::kInvalidArgument, [] { Cbq s(mbps(10), 1); });
  Cbq s(mbps(10));
  expect_error(Errc::kInvalidClass, [&] { s.add_class(42, mbps(1)); });
  expect_error(Errc::kInvalidArgument, [&] { s.add_class(kRootClass, 0); });
  const ClassId a = s.add_class(kRootClass, mbps(5));
  s.enqueue(0, Packet{99, 100, 0, 0});
  s.enqueue(0, Packet{kRootClass, 100, 0, 0});
  s.enqueue(0, Packet{a, 0, 0, 0});
  s.enqueue(0, Packet{a, kMaxSanePacketLen + 1, 0, 0});
  EXPECT_EQ(s.data_path_counters().bad_class, 2u);
  EXPECT_EQ(s.data_path_counters().zero_len, 1u);
  EXPECT_EQ(s.data_path_counters().oversized, 1u);
  EXPECT_EQ(s.backlog_packets(), 0u);
}

}  // namespace
}  // namespace hfsc
