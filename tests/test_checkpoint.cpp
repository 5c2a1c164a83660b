// Checkpoint/restore tests (core/checkpoint.{hpp,cpp}): a mid-backlog
// round trip must audit clean, match the original's state digest, and
// dequeue packet-for-packet identically until drain, also from images
// whose `link` line carries a legacy eligible-set kind; malformed streams
// must throw Error{kBadCheckpoint}.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "core/auditor.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

// A busy two-org hierarchy with rt/ls/ul curves, deletions (tombstones),
// queue limits, dropped packets and a partially drained backlog — the
// checkpoint must capture all of it.
struct Busy {
  Hfsc sched;
  std::vector<ClassId> leaves;
  TimeNs now = 0;
  std::uint64_t seq = 0;

  Busy() : sched(mbps(20)) {
    const RateBps link = mbps(20);
    const ClassId org1 = sched.add_class(
        kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(link / 2)));
    const ClassId org2 = sched.add_class(
        kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(link / 2)));
    leaves.push_back(sched.add_class(
        org1, ClassConfig::both(ServiceCurve{link / 4, msec(2), link / 8})));
    leaves.push_back(sched.add_class(
        org1, ClassConfig::link_share_only(ServiceCurve::linear(link / 8))));
    leaves.push_back(sched.add_class(
        org2, ClassConfig{ServiceCurve::linear(link / 8),
                          ServiceCurve::linear(link / 8),
                          ServiceCurve::linear(link / 4)}));
    sched.set_queue_limit(leaves[1], 16);
    sched.enable_admission_control();
    sched.enable_starvation_watchdog(sec(1));
    // A tombstone: restore must keep dense ids across it.
    const ClassId doomed = sched.add_class(
        org2, ClassConfig::link_share_only(ServiceCurve::linear(kbps(100))));
    sched.delete_class(doomed);

    Rng rng(0xC0FFEE);
    for (int i = 0; i < 400; ++i) {
      const std::size_t l = rng.uniform(0, leaves.size() - 1);
      sched.enqueue(now, Packet{leaves[l], 40 + rng.uniform(0, 1460),
                                now, seq++});
      if (rng.chance(0.4)) {
        const auto p = sched.dequeue(now);
        if (p) now += tx_time(p->len, mbps(20));
      }
      now += rng.uniform(0, usec(200));
    }
    // An anomaly for the data-path counters.
    sched.enqueue(now, Packet{9999, 100, now, seq++});
  }
};

// Replaces the eligible-set kind (the second field of the `link` line)
// in a checkpoint image.
std::string with_kind(const std::string& image, const std::string& kind) {
  const std::size_t line = image.find("\nlink ") + 1;
  const std::size_t from = image.find(' ', line + 5) + 1;
  const std::size_t to = image.find(' ', from);
  return image.substr(0, from) + kind + image.substr(to);
}

// The eligible-set kind an image's `link` line carries.  Builds that let
// H-FSC run the augmented tree (1) or the calendar queue (2) wrote those
// values; the set is rebuilt from the restored requests, so every kind
// must restore exactly.  (A bare struct prints as its bytes, which keeps
// the row names of the suite that ran each kind natively.)
struct KindTag {
  std::int32_t value;
};

class CheckpointRoundTrip : public ::testing::TestWithParam<KindTag> {};

TEST_P(CheckpointRoundTrip, MidBacklogRestoreIsExact) {
  Busy b;
  ASSERT_GT(b.sched.backlog_packets(), 0u);

  std::stringstream buf;
  checkpoint(b.sched, buf);
  std::istringstream tagged(
      with_kind(buf.str(), std::to_string(GetParam().value)));
  Hfsc restored = restore_checkpoint(tagged);

  const AuditReport report = audit(restored);
  ASSERT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(state_digest(restored), state_digest(b.sched));

  // Statistics and configuration survive.
  EXPECT_EQ(restored.num_classes(), b.sched.num_classes());
  EXPECT_EQ(restored.backlog_packets(), b.sched.backlog_packets());
  EXPECT_EQ(restored.backlog_bytes(), b.sched.backlog_bytes());
  EXPECT_TRUE(restored.admission_enabled());
  EXPECT_DOUBLE_EQ(restored.admission_utilization(),
                   b.sched.admission_utilization());
  EXPECT_EQ(restored.starvation_horizon(), b.sched.starvation_horizon());
  EXPECT_EQ(restored.link_rate(), b.sched.link_rate());
  for (ClassId c = 1; c < b.sched.num_classes(); ++c) {
    EXPECT_EQ(restored.is_deleted(c), b.sched.is_deleted(c));
    if (b.sched.is_deleted(c)) continue;
    EXPECT_EQ(restored.packets_sent(c), b.sched.packets_sent(c));
    EXPECT_EQ(restored.packets_dropped(c), b.sched.packets_dropped(c));
    EXPECT_EQ(restored.total_work(c), b.sched.total_work(c));
    EXPECT_EQ(restored.rt_work(c), b.sched.rt_work(c));
    EXPECT_EQ(restored.vtime(c), b.sched.vtime(c));
  }
  EXPECT_EQ(restored.data_path_counters().bad_class,
            b.sched.data_path_counters().bad_class);

  // Packet-for-packet identical dequeue order until drain, including
  // fresh arrivals landing on both after the restore.
  TimeNs now = b.now;
  std::uint64_t seq = b.seq;
  Rng rng(0xF00D);
  int served = 0;
  while (b.sched.backlog_packets() > 0) {
    if (seq < b.seq + 100 && rng.chance(0.2)) {  // bounded, then drain out
      const std::size_t l = rng.uniform(0, b.leaves.size() - 1);
      const Bytes len = 40 + rng.uniform(0, 1460);
      b.sched.enqueue(now, Packet{b.leaves[l], len, now, seq});
      restored.enqueue(now, Packet{b.leaves[l], len, now, seq});
      ++seq;
    }
    const auto po = b.sched.dequeue(now);
    const auto pr = restored.dequeue(now);
    ASSERT_EQ(po.has_value(), pr.has_value());
    if (po) {
      ASSERT_EQ(po->cls, pr->cls) << "diverged after " << served << " packets";
      ASSERT_EQ(po->seq, pr->seq);
      ASSERT_EQ(po->len, pr->len);
      now += tx_time(po->len, mbps(20));
      ++served;
    } else {
      now += usec(100);
    }
  }
  EXPECT_EQ(restored.backlog_packets(), 0u);
  EXPECT_GT(served, 0);
  EXPECT_EQ(state_digest(restored), state_digest(b.sched));
}

INSTANTIATE_TEST_SUITE_P(AllEligibleSets, CheckpointRoundTrip,
                         ::testing::Values(KindTag{0}, KindTag{1},
                                           KindTag{2}));

TEST(Checkpoint, RejectsUnknownKindField) {
  Busy b;
  std::stringstream buf;
  checkpoint(b.sched, buf);
  for (const char* kind : {"3", "-1"}) {
    std::istringstream in(with_kind(buf.str(), kind));
    try {
      restore_checkpoint(in);
      FAIL() << "eligible-set kind " << kind << " must be rejected";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kBadCheckpoint);
      EXPECT_NE(std::string(e.what()).find("eligible-set kind"),
                std::string::npos)
          << e.what();
    }
  }
}

// Replaces field `index` (0 is the keyword) of the first line that
// starts with `prefix`; `at` receives the field's byte offset.
std::string with_field(const std::string& image, const std::string& prefix,
                       int index, const std::string& value,
                       std::size_t* at = nullptr) {
  std::size_t from = image.find("\n" + prefix) + 1;
  for (int i = 0; i < index; ++i) from = image.find(' ', from) + 1;
  const std::size_t to = image.find_first_of(" \n", from);
  if (at) *at = from;
  return image.substr(0, from) + value + image.substr(to);
}

TEST(Checkpoint, RejectsSignedNumerals) {
  // libstdc++'s `>>` into an unsigned field accepts "-5" and wraps it
  // modulo 2^64 (a node's pkts_dropped restored as 18446744073709551611
  // and audited clean).  The writer never emits a sign, so every signed
  // numeral is malformed, named by its field.
  Busy b;
  std::stringstream buf;
  checkpoint(b.sched, buf);
  struct Case {
    const char* prefix;
    int index;
    const char* value;
    const char* field;
  };
  const Case cases[] = {
      {"node 4 ", 17, "-5", "pkts_dropped"},
      {"node 4 ", 17, "+5", "pkts_dropped"},
      {"node 3 ", 2, "-0", "parent"},
      {"clock ", 1, "-1", "last_now"},
      {"pkt ", 1, "-1500", "pkt.len"},
      {"queue ", 2, "+1", "queue length"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.prefix) + c.value);
    std::istringstream in(with_field(buf.str(), c.prefix, c.index, c.value));
    try {
      restore_checkpoint(in);
      ADD_FAILURE() << "a signed numeral restored";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kBadCheckpoint);
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
}

TEST(Checkpoint, ErrorsEndWithTheByteOffset) {
  Busy b;
  std::string image;
  checkpoint(b.sched, image);
  auto message = [](const std::string& bad) {
    try {
      restore_checkpoint(bad);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kBadCheckpoint);
      return std::string(e.what());
    }
    ADD_FAILURE() << "restored";
    return std::string();
  };
  auto ends_at = [](const std::string& what, std::size_t at) {
    const std::string tail = " at byte " + std::to_string(at);
    return what.size() >= tail.size() &&
           what.compare(what.size() - tail.size(), tail.size(), tail) == 0;
  };
  // A malformed numeral, an overflow, a wrong keyword: the offset is the
  // offending token's first byte.
  for (const char* value : {"12x", "18446744073709551616", "curve"}) {
    std::size_t at = 0;
    const std::string what =
        message(with_field(image, "node 2 ", 12, value, &at));
    EXPECT_TRUE(ends_at(what, at)) << what;
    EXPECT_NE(what.find("total"), std::string::npos) << what;
  }
  std::size_t at = 0;
  const std::string keyword = message(with_field(image, "cfg ", 0, "cgf", &at));
  EXPECT_TRUE(ends_at(keyword, at)) << keyword;
  // Truncation points at the end of the image; a structural fault at the
  // record that breaks the structure.
  const std::string cut = message(image.substr(0, image.size() - 5));
  EXPECT_TRUE(ends_at(cut, image.size() - 5)) << cut;
  const std::string self = message(with_field(image, "node 3 ", 2, "3", &at));
  EXPECT_TRUE(ends_at(self, image.find("\nnode 3 ") + 1)) << self;
}

// A literal image pinned byte for byte, independent of any scenario: a
// root and two leaves whose fields hold 0, UINT32_MAX and UINT64_MAX,
// plus a runtime-style ext payload.
TEST(Checkpoint, GoldenImageIsPinned) {
  constexpr auto u32 = std::numeric_limits<std::uint32_t>::max();
  constexpr auto u64 = std::numeric_limits<std::uint64_t>::max();
  Hfsc s(gbps(1));
  s.set_max_packet_len(u64);
  const ClassId a = s.add_class(
      kRootClass, ClassConfig::both(ServiceCurve{mbps(8), msec(5), mbps(2)}));
  const ClassId b = s.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(1))));
  s.set_queue_limit(b, u64);
  s.enable_starvation_watchdog(u64);
  s.enqueue(u32, Packet{a, u32, u32, u64});
  s.enqueue(u32, Packet{b, 1500, u32, 0});

  const std::string golden =
      "hfsc-checkpoint 2\n"
      "link 125000000 0 2\n"
      "maxpkt 18446744073709551615\n"
      "clock 4294967295 18446744073709551615\n"
      "selections 0 0 1\n"
      "counters 0 0 0 0\n"
      "admission 0 0\n"
      "watchdog 18446744073709551615\n"
      "ext 7\n"
      "jseq 7\n"
      "\n"
      "classes 3\n"
      "node 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
      "cfg 0 0 0 0 0 0 0 0 0\n"
      "curve dc 0 0 0 0 0 0\n"
      "curve ec 0 0 0 0 0 0\n"
      "curve vc 0 0 0 0 0 0\n"
      "curve uc 0 0 0 0 0 0\n"
      "node 1 0 0 1 0 0 0 0 0 4294967295 17184149147295 0 0 0 0 0 0 0 "
      "4294967295\n"
      "cfg 1000000 5000000 250000 1000000 5000000 250000 0 0 0\n"
      "curve dc 4294967295 0 5000000 5000 1000000 250000\n"
      "curve ec 4294967295 0 5000000 5000 1000000 250000\n"
      "curve vc 0 0 5000000 5000 1000000 250000\n"
      "curve uc 0 0 0 0 0 0\n"
      "node 2 0 1 1 0 0 0 18446744073709551615 0 0 0 0 0 0 0 0 0 0 "
      "4294967295\n"
      "cfg 0 0 0 125000 0 125000 0 0 0\n"
      "curve dc 0 0 0 0 0 0\n"
      "curve ec 0 0 0 0 0 0\n"
      "curve vc 0 0 0 0 125000 125000\n"
      "curve uc 0 0 0 0 0 0\n"
      "queue 1 1\n"
      "pkt 4294967295 4294967295 18446744073709551615\n"
      "queue 2 1\n"
      "pkt 1500 4294967295 0\n"
      "end\n";
  std::string image;
  checkpoint(s, image, "jseq 7\n");
  EXPECT_EQ(image, golden);
  std::ostringstream os;
  checkpoint(s, os, "jseq 7\n");
  EXPECT_EQ(os.str(), golden);

  // Both readers take it back to the same state, and it writes back out
  // byte for byte.
  std::string ext;
  const Hfsc from_view = restore_checkpoint(golden, &ext);
  EXPECT_EQ(ext, "jseq 7\n");
  std::istringstream in(golden);
  const Hfsc from_stream = restore_checkpoint(in);
  EXPECT_TRUE(in.eof());
  EXPECT_EQ(state_digest(from_view), state_digest(s));
  EXPECT_EQ(state_digest(from_stream), state_digest(s));
  std::string again;
  checkpoint(from_view, again, ext);
  EXPECT_EQ(again, golden);
}

TEST(Checkpoint, RejectsForeignMagic) {
  std::istringstream in("not-a-checkpoint 1\n");
  try {
    restore_checkpoint(in);
    FAIL() << "foreign magic must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadCheckpoint);
  }
}

TEST(Checkpoint, RejectsUnknownVersion) {
  std::istringstream in("hfsc-checkpoint 999\n");
  try {
    restore_checkpoint(in);
    FAIL() << "future versions must be rejected, not misparsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadCheckpoint);
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Checkpoint, RejectsTruncation) {
  Busy b;
  std::stringstream buf;
  checkpoint(b.sched, buf);
  const std::string full = buf.str();
  // Chop at a few representative depths; every prefix must throw rather
  // than yield a half-restored scheduler.
  for (const double frac : {0.1, 0.5, 0.9, 0.99}) {
    std::istringstream cut(
        full.substr(0, static_cast<std::size_t>(full.size() * frac)));
    EXPECT_THROW(restore_checkpoint(cut), Error) << "fraction " << frac;
  }
}

TEST(Checkpoint, RejectsCorruptStructure) {
  // A parent pointing at itself.
  std::istringstream in(
      "hfsc-checkpoint 1\nlink 1000000 0 2\nmaxpkt 67108864\nclock 0 0\n"
      "selections 0 0 1\ncounters 0 0 0 0\nadmission 0 0\nwatchdog 0\n"
      "classes 2\n"
      "node 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
      "cfg 0 0 0 0 0 0 0 0 0\n"
      "curve dc 0 0 0 0 0 0\ncurve ec 0 0 0 0 0 0\n"
      "curve vc 0 0 0 0 0 0\ncurve uc 0 0 0 0 0 0\n"
      "node 1 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
      "cfg 0 0 0 0 0 125000 0 0 0\n"
      "curve dc 0 0 0 0 0 0\ncurve ec 0 0 0 0 0 0\n"
      "curve vc 0 0 0 0 0 0\ncurve uc 0 0 0 0 0 0\n"
      "end\n");
  try {
    restore_checkpoint(in);
    FAIL() << "self-parenting node must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadCheckpoint);
  }
}

TEST(Checkpoint, AdmissionControlSurvivesRestoreBehaviorally) {
  // A restored scheduler must not merely report admission as enabled —
  // its rebuilt bookkeeping must make the SAME admit/reject decisions a
  // never-checkpointed twin makes from identical state.
  Hfsc twin(mbps(10));
  const ClassId org = twin.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(10))));
  twin.enable_admission_control();
  twin.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(6))));

  std::stringstream ss;
  checkpoint(twin, ss);
  Hfsc restored = restore_checkpoint(ss);
  EXPECT_TRUE(restored.admission_enabled());
  EXPECT_DOUBLE_EQ(restored.admission_utilization(),
                   twin.admission_utilization());

  // Over capacity (6 + 5 > 10): both must reject with the typed code.
  const ClassConfig over = ClassConfig::both(ServiceCurve::linear(mbps(5)));
  for (Hfsc* s : {&twin, &restored}) {
    try {
      s->add_class(org, over);
      FAIL() << "oversubscribing rt flow admitted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kAdmissionRejected);
    }
  }
  EXPECT_EQ(restored.admission_rejections(), 1u);

  // Within capacity: both must admit, and the aggregates must agree.
  const ClassConfig fits = ClassConfig::both(ServiceCurve::linear(mbps(3)));
  const ClassId t_new = twin.add_class(org, fits);
  const ClassId r_new = restored.add_class(org, fits);
  EXPECT_EQ(t_new, r_new);
  EXPECT_DOUBLE_EQ(restored.admission_utilization(),
                   twin.admission_utilization());
  EXPECT_EQ(state_digest(restored), state_digest(twin));
}

TEST(Checkpoint, StarvationWatchdogSurvivesRestoreBehaviorally) {
  // Leave a backlogged leaf unserved, checkpoint mid-episode, and let
  // the horizon expire on both sides: the restored watchdog must flag
  // the same starved set at the same time as the twin.
  Hfsc twin(mbps(10));
  const ClassId a = twin.add_class(
      kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(5))));
  const ClassId b = twin.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(5))));
  twin.enable_starvation_watchdog(msec(10));

  // Backlog both leaves with zero service: the episode clocks start at
  // the first enqueue (t=0 for a, t=2ms for b) and keep ticking.
  std::uint64_t seq = 0;
  for (int i = 0; i < 4; ++i) {
    twin.enqueue(0, Packet{a, 500, 0, seq++});
    twin.enqueue(msec(2), Packet{b, 500, msec(2), seq++});
  }

  std::stringstream ss;
  checkpoint(twin, ss);
  Hfsc restored = restore_checkpoint(ss);
  EXPECT_EQ(restored.starvation_horizon(), twin.starvation_horizon());

  // Before a's horizon expires neither side flags anything; between the
  // two horizons both flag exactly {a}; past both, both flag {a, b} —
  // the episode clocks carried over exactly.
  for (const TimeNs t : {msec(9), msec(11), msec(13)}) {
    EXPECT_EQ(twin.starved_classes(t), restored.starved_classes(t)) << t;
  }
  ASSERT_EQ(restored.starved_classes(msec(11)).size(), 1u);
  EXPECT_EQ(restored.starved_classes(msec(11))[0], a);
  EXPECT_EQ(restored.starved_classes(msec(13)).size(), 2u);

  // Service on both sides clears the same flag identically.
  (void)twin.dequeue(msec(13));
  (void)restored.dequeue(msec(13));
  EXPECT_EQ(twin.starved_classes(msec(13) + usec(1)),
            restored.starved_classes(msec(13) + usec(1)));
  EXPECT_EQ(state_digest(restored), state_digest(twin));
}

TEST(Checkpoint, DigestIgnoresObservabilityCounters) {
  Hfsc s(mbps(10));
  const ClassId org = s.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(10))));
  s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(4))));
  s.enable_admission_control();
  const std::uint64_t before = state_digest(s);

  // A rejected direct mutation bumps admission_rejections() but must not
  // move the digest — that is exactly what makes the digest usable as the
  // Txn atomicity oracle.
  EXPECT_THROW(
      s.add_class(org, ClassConfig::both(ServiceCurve::linear(mbps(20)))),
      Error);
  EXPECT_EQ(s.admission_rejections(), 1u);
  EXPECT_EQ(state_digest(s), before);
}

}  // namespace
}  // namespace hfsc
