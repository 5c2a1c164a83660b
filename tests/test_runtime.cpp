// Unit tests for the resilience runtime (src/runtime/): the write-ahead
// journal's parse/torn-tail/compaction behavior, the overload governor's
// ladder and durable-state round trip, RuntimeHost crash recovery at
// every persistence boundary, and the journal's fsync boundary
// (SyncPolicy, durable_image).  The chaos harness (tests/test_chaos.cpp)
// composes these under randomized adversity; here each property is
// pinned deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/governor.hpp"
#include "runtime/host.hpp"
#include "runtime/journal.hpp"
#include "util/errors.hpp"

namespace hfsc {
namespace {

// --- Journal ---------------------------------------------------------------

TEST(Journal, AppendParseRoundTrip) {
  Journal j;
  j.append("add 1 2 3");
  j.append("chg 2");
  j.append(std::string("\0binary\xff", 8));  // payloads are opaque bytes
  const Journal back = Journal::parse(j.image());
  ASSERT_EQ(back.num_records(), 3u);
  EXPECT_EQ(back.records_after(0)[0].payload, "add 1 2 3");
  EXPECT_EQ(back.records_after(0)[2].payload, std::string("\0binary\xff", 8));
  EXPECT_EQ(back.last_seq(), 3u);
  EXPECT_EQ(back.truncated_bytes(), 0u);
}

TEST(Journal, TornTailIsTruncatedNotFatal) {
  Journal j;
  j.append("one");
  j.append("two");
  j.append("three");
  for (std::size_t chop = 1; chop < 3 + Journal::kRecordOverhead; ++chop) {
    std::string img = j.image();
    img.resize(img.size() - chop);  // tear inside the last record
    const Journal back = Journal::parse(img);
    EXPECT_EQ(back.num_records(), 2u) << "chop=" << chop;
    EXPECT_GT(back.truncated_bytes(), 0u);
    EXPECT_EQ(back.records_after(0)[1].payload, "two");
  }
}

TEST(Journal, InteriorBitFlipTruncatesFromTheDamage) {
  Journal j;
  j.append("aaaa");
  j.append("bbbb");
  j.append("cccc");
  std::string img = j.image();
  // Flip a payload bit of the SECOND record: its checksum fails, and the
  // scan must keep record one, dropping two and everything after.
  const std::size_t rec1 = Journal::kHeaderBytes + Journal::kRecordOverhead + 4;
  img[rec1 + Journal::kRecordOverhead + 1] ^= 0x10;
  const Journal back = Journal::parse(img);
  ASSERT_EQ(back.num_records(), 1u);
  EXPECT_EQ(back.records_after(0)[0].payload, "aaaa");
  EXPECT_GT(back.truncated_bytes(), 0u);
}

TEST(Journal, BadMagicOrVersionIsTyped) {
  Journal j;
  j.append("x");
  std::string img = j.image();
  img[0] = 'X';
  try {
    Journal::parse(img);
    FAIL() << "bad magic parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadJournal);
  }
  std::string img2 = j.image();
  img2[8] = 0x7f;  // absurd version
  try {
    Journal::parse(img2);
    FAIL() << "bad version parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadJournal);
  }
  try {
    Journal::parse("short");
    FAIL() << "truncated header parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadJournal);
  }
}

// Compaction drops the covered records and keeps the others' bytes as
// they were: after compact(k) the image is the header plus the
// pre-compaction image from record k+1 on, and it parses back to the
// same records.
TEST(Journal, CompactionKeepsTheSurvivingRecordBytes) {
  const std::vector<std::string> payloads = {
      "txn 1", "", std::string("\0binary\xff", 8), "gov 2\nabc", "r4",
      std::string(300, 'x')};
  Journal full;
  std::vector<std::size_t> starts;  // where record seq i + 1 starts
  for (const std::string& p : payloads) {
    starts.push_back(full.image().size());
    full.append(p);
  }
  starts.push_back(full.image().size());
  const std::string before = full.image();
  for (std::uint64_t k = 0; k <= payloads.size(); ++k) {
    Journal j = Journal::parse(before);
    j.compact(k);
    EXPECT_EQ(j.image(), before.substr(0, Journal::kHeaderBytes) +
                             before.substr(starts[k]))
        << "k=" << k;
    EXPECT_EQ(j.num_records(), payloads.size() - k);
    EXPECT_EQ(j.last_seq(), payloads.size());
    EXPECT_EQ(j.synced_bytes(), j.image().size());
    const Journal back = Journal::parse(j.image());
    EXPECT_EQ(back.truncated_bytes(), 0u);
    const std::vector<JournalRecord> got = back.records_after(0);
    ASSERT_EQ(got.size(), payloads.size() - k);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].seq, k + i + 1);
      EXPECT_EQ(got[i].payload, payloads[k + i]);
    }
  }
}

// The bytes a torn append leaves at the tail do not survive compaction.
TEST(Journal, CompactionDropsATornTail) {
  Journal j;
  for (const char* p : {"one", "two", "three", "four"}) j.append(p);
  const std::string whole = j.image();
  const std::size_t fourth = whole.size() - Journal::kRecordOverhead - 4;
  j.tear_tail(5);
  ASSERT_EQ(j.image().size(), whole.size() - 5);
  ASSERT_EQ(j.num_records(), 3u);
  j.compact(1);
  const std::size_t second =
      Journal::kHeaderBytes + Journal::kRecordOverhead + 3;
  EXPECT_EQ(j.image(), whole.substr(0, Journal::kHeaderBytes) +
                           whole.substr(second, fourth - second));
  EXPECT_EQ(Journal::parse(j.image()).truncated_bytes(), 0u);
  EXPECT_EQ(j.records_after(0).back().payload, "three");
}

TEST(Journal, CompactionKeepsSequenceNumbers) {
  Journal j;
  for (int i = 0; i < 5; ++i) {
    std::string payload = "r";
    payload += std::to_string(i);
    j.append(payload);
  }
  j.compact(3);  // checkpoint covered seqs 1..3
  EXPECT_EQ(j.num_records(), 2u);
  const auto rest = j.records_after(3);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].seq, 4u);
  EXPECT_EQ(rest[1].payload, "r4");
  // New appends continue the sequence, and the compacted image
  // round-trips even though it no longer starts at seq 1.
  j.append("r5");
  EXPECT_EQ(j.last_seq(), 6u);
  const Journal back = Journal::parse(j.image());
  EXPECT_EQ(back.num_records(), 3u);
  EXPECT_EQ(back.last_seq(), 6u);
}

// --- Governor durable state ------------------------------------------------

TEST(Governor, SerializeRestoreRoundTrip) {
  OverloadGovernor g{GovernorConfig{}};
  const std::string blob = g.serialize();
  OverloadGovernor back{GovernorConfig{}};
  back.restore(blob);
  EXPECT_EQ(back.level(), 0);
  EXPECT_EQ(back.serialize(), blob);
}

TEST(Governor, RestoreRejectsGarbage) {
  OverloadGovernor g{GovernorConfig{}};
  for (const char* bad :
       {"", "gov-state 2\n", "gov-state 1\nlevel 9 0\n",
        "gov-state 1\nlevel 1 0\nclamped zzz\n"}) {
    try {
      g.restore(bad);
      FAIL() << "restored from: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kBadCheckpoint);
    }
  }
}

// --- RuntimeHost recovery --------------------------------------------------

using Op = RuntimeHost::BatchOp;
using OpKind = Op::Kind;

// Single-op commits through the host's one journaled entry point.
ClassId add(RuntimeHost& h, ClassId parent, const ClassConfig& cfg) {
  return h.commit_batch({{.kind = OpKind::kAdd, .parent = parent, .cfg = cfg}})
      .at(0);
}
void qlim(RuntimeHost& h, ClassId cls, std::size_t limit) {
  h.commit_batch({{.kind = OpKind::kQueueLimit, .cls = cls, .limit = limit}});
}

RuntimeOptions small_opts() {
  RuntimeOptions o;
  o.link_rate = mbps(10);
  o.admission_rate = mbps(10);
  o.watchdog_horizon = msec(50);
  return o;
}

// A few journaled mutations plus traffic; returns the host for probing.
RuntimeHost busy_host() {
  RuntimeHost h(small_opts());
  const ClassId org = add(
      h, kRootClass,
      ClassConfig::link_share_only(ServiceCurve::linear(mbps(8))));
  const ClassId rt =
      add(h, kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(2))));
  const Op leaf{
      .kind = OpKind::kAdd,
      .parent = org,
      .cfg = ClassConfig::link_share_only(ServiceCurve::linear(mbps(2)))};
  EXPECT_EQ(h.commit_batch({leaf, leaf, leaf}),
            (std::vector<ClassId>{org + 2, org + 3, org + 4}));
  qlim(h, org + 1, 32);
  TimeNs now = usec(1);
  std::uint64_t seq = 1;
  for (int i = 0; i < 50; ++i) {
    h.enqueue(now, Packet{rt, 200, now, seq++});
    h.enqueue(now, Packet{org + 1 + static_cast<ClassId>(i % 3), 1200, now,
                          seq++});
    if (i % 2 == 0) (void)h.dequeue(now);
    now += usec(100);
  }
  return h;
}

TEST(RuntimeHost, RecoverFromJournalAloneMatchesLive) {
  RuntimeHost live = busy_host();
  // Never checkpointed: recovery replays the full journal from scratch.
  RuntimeHost back = RuntimeHost::recover(small_opts(), "", live.journal_image());
  // Control-plane state converges exactly; the (unjournaled) data path
  // does not travel, so compare structure via the audit + class configs.
  EXPECT_TRUE(back.audit_runtime().ok());
  EXPECT_EQ(back.sched().num_classes(), live.sched().num_classes());
  for (ClassId c = 1; c < live.sched().num_classes(); ++c) {
    EXPECT_EQ(back.sched().is_deleted(c), live.sched().is_deleted(c));
    if (live.sched().is_deleted(c)) continue;
    EXPECT_EQ(back.sched().queue_limit_of(c), live.sched().queue_limit_of(c));
  }
}

TEST(RuntimeHost, RecoverFromCheckpointPlusTailMatchesDigest) {
  RuntimeHost live = busy_host();
  live.save_checkpoint();
  // Post-checkpoint control-plane tail — exactly what replay must redo.
  qlim(live, 1, 64);
  live.commit_batch({{.kind = OpKind::kChange,
                      .cls = 2,
                      .cfg = ClassConfig::both(ServiceCurve::linear(mbps(1))),
                      .now = msec(100)}});
  RuntimeHost back = RuntimeHost::recover(small_opts(), live.checkpoint_image(),
                                          live.journal_image());
  EXPECT_EQ(back.digest(), live.digest());
  EXPECT_TRUE(back.audit_runtime().ok());
  EXPECT_EQ(back.governor().serialize(), live.governor().serialize());
}

TEST(RuntimeHost, EveryCrashPointRecoversClean) {
  for (const CrashPoint p : kAllCrashPoints) {
    RuntimeHost live = busy_host();
    live.save_checkpoint();
    live.arm_crash(p);
    bool crashed = false;
    try {
      // An op that crosses every boundary: a mutation for the journal
      // points, a snapshot for the checkpoint points.
      if (p == CrashPoint::kBeforeCheckpoint ||
          p == CrashPoint::kAfterCheckpoint || p == CrashPoint::kAfterCompact) {
        qlim(live, 1, 16);
        live.save_checkpoint();
      } else {
        qlim(live, 1, 16);
      }
    } catch (const CrashSignal& s) {
      crashed = true;
      EXPECT_EQ(s.point, p);
    }
    ASSERT_TRUE(crashed) << to_string(p);
    RuntimeHost back = RuntimeHost::recover(
        small_opts(), live.checkpoint_image(), live.journal_image());
    EXPECT_TRUE(back.audit_runtime().ok()) << to_string(p);
    // Recovery is deterministic: a second independent recovery agrees.
    RuntimeHost back2 = RuntimeHost::recover(
        small_opts(), live.checkpoint_image(), live.journal_image());
    EXPECT_EQ(back.digest(), back2.digest()) << to_string(p);
  }
}

TEST(RuntimeHost, TornAppendLosesOnlyTheTornRecord) {
  RuntimeHost live = busy_host();
  live.save_checkpoint();
  qlim(live, 1, 64);  // survives: appended whole
  live.tear_next_append(4);
  bool crashed = false;
  try {
    qlim(live, 1, 7);  // torn: must NOT survive
  } catch (const CrashSignal&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);
  RuntimeHost back = RuntimeHost::recover(small_opts(), live.checkpoint_image(),
                                          live.journal_image());
  EXPECT_EQ(back.sched().queue_limit_of(1), 64u);
  EXPECT_TRUE(back.audit_runtime().ok());
}

// A host whose governor has clamped a flooded bulk leaf (level 2): one
// rt leaf and four link-share leaves, flooded past the ladder thresholds
// until the first clamp lands.  `checkpoint_first` snapshots before the
// flood, so the clamp lives in the journal tail.
struct ClampedHost {
  RuntimeOptions opts;
  RuntimeHost host;
  ClassId victim = kRootClass;

  static RuntimeOptions overload_opts() {
    RuntimeOptions o;
    o.link_rate = mbps(100);
    o.admission_rate = mbps(100);
    o.watchdog_horizon = msec(20);
    o.sample_interval = usec(200);
    GovernorConfig& g = o.governor;
    g.enter_backlog[0] = 64 * 1024;
    g.enter_backlog[1] = 192 * 1024;
    g.enter_backlog[2] = 480 * 1024;
    g.exit_backlog[0] = 32 * 1024;
    g.exit_backlog[1] = 96 * 1024;
    g.exit_backlog[2] = 240 * 1024;
    g.class_threshold = 160 * 1024;
    g.quarantine_qlimit = 200;
    return o;
  }

  explicit ClampedHost(bool checkpoint_first)
      : opts(overload_opts()), host(opts) {
    const ServiceCurve rt = ServiceCurve::linear(mbps(20));
    add(host, kRootClass, ClassConfig::both(rt));
    std::vector<ClassId> bulk;
    for (int i = 0; i < 4; ++i) {
      bulk.push_back(add(
          host, kRootClass,
          ClassConfig::link_share_only(ServiceCurve::linear(mbps(20)))));
    }
    if (checkpoint_first) host.save_checkpoint();
    std::uint64_t seq = 1;
    TimeNs next_tx = usec(1);
    for (TimeNs now = usec(1);
         host.governor().clamped().empty() && now < msec(500);
         now += usec(100)) {
      while (next_tx <= now) {
        const std::optional<Packet> p = host.dequeue(next_tx);
        if (!p) {
          next_tx = now + 1;
          break;
        }
        next_tx += tx_time(p->len, opts.link_rate);
      }
      for (const ClassId b : bulk) {
        for (int k = 0; k < 3; ++k) {
          host.enqueue(now, Packet{b, 1200, now, seq++});
        }
      }
    }
    if (!host.governor().clamped().empty()) {
      victim = host.governor().clamped().begin()->first;
    }
  }
};

std::vector<Op> delete_op(ClassId cls) {
  return {{.kind = OpKind::kDelete, .cls = cls}};
}

TEST(RuntimeHost, BatchDeleteOfClampedClassRecovers) {
  // Deleting a governed class through commit_batch must drop its saved
  // state, live and on replay; otherwise
  // the audit finds a clamp on a dead class and recovery refuses a
  // durable, committed state.
  ClampedHost c(/*checkpoint_first=*/false);
  ASSERT_NE(c.victim, kRootClass) << "the flood never triggered a clamp";
  ASSERT_GE(c.host.gov_level(), 2);
  c.host.save_checkpoint();
  c.host.commit_batch(delete_op(c.victim));
  EXPECT_EQ(c.host.governor().clamped().count(c.victim), 0u);
  ASSERT_TRUE(c.host.audit_runtime().ok())
      << c.host.audit_runtime().to_string();

  // Checkpoint + journal: the tail replays the batch delete.
  RuntimeHost back = RuntimeHost::recover(c.opts, c.host.checkpoint_image(),
                                          c.host.journal_image());
  EXPECT_EQ(back.digest(), c.host.digest());
  EXPECT_EQ(back.governor().serialize(), c.host.governor().serialize());
}

TEST(RuntimeHost, ReplayedBatchDeleteOfClampedClassRecovers) {
  // Same, with the clamp itself in the journal: checkpoint before the
  // flood, and a never-checkpointed twin that replays everything.
  ClampedHost c(/*checkpoint_first=*/true);
  ASSERT_NE(c.victim, kRootClass) << "the flood never triggered a clamp";
  c.host.commit_batch(delete_op(c.victim));
  ASSERT_TRUE(c.host.audit_runtime().ok())
      << c.host.audit_runtime().to_string();

  const RuntimeHost from_cp = RuntimeHost::recover(
      c.opts, c.host.checkpoint_image(), c.host.journal_image());
  EXPECT_EQ(from_cp.governor().clamped().count(c.victim), 0u);
  EXPECT_TRUE(from_cp.sched().is_deleted(c.victim));

  ClampedHost twin(/*checkpoint_first=*/false);
  ASSERT_EQ(twin.victim, c.victim);
  twin.host.commit_batch(delete_op(twin.victim));
  const RuntimeHost from_journal =
      RuntimeHost::recover(twin.opts, "", twin.host.journal_image());
  EXPECT_EQ(from_journal.governor().clamped().count(c.victim), 0u);
  EXPECT_TRUE(from_journal.sched().is_deleted(c.victim));
  // The data path is not journaled, so both recoveries hold the same
  // control-plane state and an empty backlog: equal digests.
  EXPECT_EQ(from_journal.digest(), from_cp.digest());
}

TEST(RuntimeHost, RefusedAdmissionRetuneChangesNothing) {
  // Level 3 tightens admission to base * headroom (0.75) — unless the
  // live rt leaves do not fit the tighter rate, as 80 of 100 Mb/s here do
  // not.  The refused retune must leave the admission rate, the rejection
  // count and the governor's headroom state as they were.
  const RuntimeOptions opts = ClampedHost::overload_opts();
  RuntimeHost host(opts);
  add(host, kRootClass,
      ClassConfig::real_time_only(ServiceCurve::linear(mbps(80))));
  std::vector<ClassId> bulk;
  for (int i = 0; i < 4; ++i) {
    bulk.push_back(add(
        host, kRootClass,
        ClassConfig::link_share_only(ServiceCurve::linear(mbps(20)))));
  }
  std::uint64_t seq = 1;
  TimeNs next_tx = usec(1);
  for (TimeNs now = usec(1); host.gov_level() < 3 && now < msec(500);
       now += usec(100)) {
    while (next_tx <= now) {
      const std::optional<Packet> p = host.dequeue(next_tx);
      if (!p) {
        next_tx = now + 1;
        break;
      }
      next_tx += tx_time(p->len, opts.link_rate);
    }
    for (const ClassId b : bulk) {
      for (int k = 0; k < 3; ++k) {
        host.enqueue(now, Packet{b, 1200, now, seq++});
      }
    }
  }
  ASSERT_EQ(host.gov_level(), 3) << "the flood never reached level 3";
  EXPECT_FALSE(host.governor().admission_tightened());
  ASSERT_TRUE(host.sched().admission_enabled());
  EXPECT_EQ(host.sched().admission_control()->link_rate(), mbps(100));
  EXPECT_EQ(host.sched().admission_rejections(), 0u);
  EXPECT_TRUE(host.audit_runtime().ok()) << host.audit_runtime().to_string();
}

TEST(RuntimeHost, CorruptImagesRaiseTypedErrors) {
  RuntimeHost live = busy_host();
  live.save_checkpoint();
  std::string bad_cp = live.checkpoint_image();
  bad_cp[0] = 'X';
  try {
    RuntimeHost::recover(small_opts(), bad_cp, live.journal_image());
    FAIL() << "corrupt checkpoint recovered";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadCheckpoint);
  }
  try {
    RuntimeHost::recover(small_opts(), live.checkpoint_image(), "garbage!");
    FAIL() << "corrupt journal recovered";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadJournal);
  }
}

// A journal image holding a valid `add` of class 1 followed by `record`.
std::string journal_after_add(const std::string& record) {
  RuntimeHost h(small_opts());
  add(h, kRootClass,
      ClassConfig::link_share_only(ServiceCurve::linear(mbps(1))));
  Journal j;
  j.append(h.journal().records_after(0).at(0).payload);
  j.append(record);
  return j.image();
}

TEST(RuntimeHost, TrailingTokensInJournalRecordsAreRejected) {
  const std::string gov_state = OverloadGovernor{GovernorConfig{}}.serialize();
  // Each well-formed record recovers; the same record with one more
  // token anywhere is a corrupt journal, not a silent partial replay.
  const std::pair<std::string, std::string> cases[] = {
      {"txn 1\nadd 1 0 0 0 1000 0 1000 0 0 0\n",
       "txn 1\nadd 1 0 0 0 1000 0 1000 0 0 0 junk\n"},
      {"txn 1\nqlim 1 5\n", "txn 1\nqlim 1 5 junk\n"},
      {"txn 1\ndel 1\n", "txn 1\ndel 1 junk\n"},
      {"txn 1\ndel 1\n", "txn 1 junk\ndel 1\n"},
      {"txn 1\ndel 1\n", "txn 1\ndel 1\njunk"},
      {"gov 1\nqlim 1 5\n" + gov_state, "gov 1\nqlim 1 5 junk\n" + gov_state},
  };
  for (const auto& [good, bad] : cases) {
    SCOPED_TRACE(bad);
    EXPECT_NO_THROW(RuntimeHost::recover(small_opts(), "",
                                         journal_after_add(good)));
    try {
      RuntimeHost::recover(small_opts(), "", journal_after_add(bad));
      ADD_FAILURE() << "a record with a trailing token recovered";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kBadJournal) << e.what();
    }
  }
}

TEST(RuntimeHost, SignedNumeralsInJournalRecordsAreRejected) {
  // libstdc++'s `>>` into an unsigned field accepts a sign: "-1" wraps to
  // 2^64-1, "-4294967295" to class 1, "+3" to 3.  The writers never emit
  // a sign, so each of these is a corrupt journal, not an op to replay.
  const std::string gov_state = OverloadGovernor{GovernorConfig{}}.serialize();
  std::string signed_blob = gov_state;
  signed_blob.replace(signed_blob.find("level 0"), 7, "level -0");
  const std::pair<std::string, std::string> cases[] = {
      {"txn 1\nqlim 1 3\n", "txn 1\nqlim 1 +3\n"},
      {"txn 1\ndel 1\n", "txn 1\ndel -4294967295\n"},
      {"txn 1\ndel 1\n", "txn 1\ndel +1\n"},
      {"txn 1\nqlim 1 1\n", "txn 1\nqlim 1 -1\n"},
      {"txn 1\ndel 1\n", "txn +1\ndel 1\n"},
      {"gov 1\nqlim 1 5\n" + gov_state, "gov 1\nqlim 1 -5\n" + gov_state},
      {"gov 0\n" + gov_state, "gov 0\n" + signed_blob},
  };
  for (const auto& [good, bad] : cases) {
    SCOPED_TRACE(bad);
    EXPECT_NO_THROW(RuntimeHost::recover(small_opts(), "",
                                         journal_after_add(good)));
    try {
      RuntimeHost::recover(small_opts(), "", journal_after_add(bad));
      ADD_FAILURE() << "a record with a signed numeral recovered";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kBadJournal) << e.what();
    }
  }
  // The same governor blob inside a checkpoint is a checkpoint fault.
  OverloadGovernor gov{GovernorConfig{}};
  try {
    gov.restore(signed_blob);
    FAIL() << "a governor blob with a signed numeral restored";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadCheckpoint) << e.what();
  }
}

TEST(RuntimeHost, BareOpRecordsAreRejected) {
  // Every user mutation is journaled inside a `txn` record, so an op
  // line at the top level of a record is a corrupt journal.
  for (const char* bare :
       {"add 1 0 0 0 1000 0 1000 0 0 0", "chg 0 1 0 0 0 1000 0 1000 0 0 0",
        "del 1", "qlim 1 5"}) {
    SCOPED_TRACE(bare);
    try {
      RuntimeHost::recover(small_opts(), "", journal_after_add(bare));
      ADD_FAILURE() << "a bare op record recovered";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kBadJournal) << e.what();
    }
  }
}

TEST(RuntimeHost, MalformedGovernorBlobInJournalIsBadJournal) {
  // The checkpoint is fine (there is none); the fault is in a journal
  // record, so it must be reported as one.
  try {
    RuntimeHost::recover(small_opts(), "",
                         journal_after_add("gov 0\nnot-a-gov-state"));
    FAIL() << "a gov record with a malformed governor blob recovered";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadJournal) << e.what();
  }
}

// --- Journal fsync boundary (SyncPolicy) ---------------------------------

TEST(JournalSync, TearStopsAtDurableWatermark) {
  Journal j;
  j.append("alpha");
  j.sync();  // the fsync for "alpha" returned
  j.append("beta");
  const std::size_t synced = j.synced_bytes();
  ASSERT_LT(synced, j.image().size());

  // A torn write can only damage the unsynced suffix: tearing "more
  // than everything" still leaves the durable prefix byte-identical.
  j.tear_tail(1u << 20);
  EXPECT_EQ(j.image().size(), synced);
  EXPECT_EQ(j.num_records(), 1u);

  const Journal back = Journal::parse(j.image());
  EXPECT_EQ(back.num_records(), 1u);
  EXPECT_EQ(back.truncated_bytes(), 0u);
  ASSERT_EQ(back.records_after(0).size(), 1u);
  EXPECT_EQ(back.records_after(0)[0].payload, "alpha");
}

TEST(JournalSync, FullySyncedJournalCannotBeTorn) {
  Journal j;
  j.append("alpha");
  j.append("beta");
  j.sync();
  const std::string before = j.image();
  j.tear_tail(1u << 20);
  EXPECT_EQ(j.image(), before);
  EXPECT_EQ(j.num_records(), 2u);
}

TEST(JournalSync, DurableImageIsTheSyncedPrefix) {
  Journal j;
  EXPECT_EQ(j.durable_image().size(), j.image().size());  // header synced
  j.append("alpha");
  EXPECT_LT(j.durable_image().size(), j.image().size());
  const Journal crash = Journal::parse(std::string(j.durable_image()));
  EXPECT_EQ(crash.num_records(), 0u);  // unsynced append gone
  j.sync();
  EXPECT_EQ(j.durable_image().size(), j.image().size());
  const Journal after = Journal::parse(std::string(j.durable_image()));
  EXPECT_EQ(after.num_records(), 1u);
}

RuntimeOptions small_host_options(SyncPolicy sync) {
  RuntimeOptions o;
  o.link_rate = mbps(10);
  o.sync_policy = sync;
  return o;
}

ClassConfig ls_class(RateBps rate) {
  ClassConfig cfg;
  cfg.ls = ServiceCurve::linear(rate);
  return cfg;
}

TEST(JournalSync, PolicyNoneLosesEverythingSinceTheCheckpoint) {
  RuntimeOptions opts = small_host_options(SyncPolicy::kNone);
  RuntimeHost h(opts);
  const ClassId a = add(h, kRootClass, ls_class(mbps(4)));
  h.save_checkpoint();  // checkpointing always syncs (see journal.hpp)
  const std::uint64_t at_checkpoint = h.digest();

  add(h, a, ls_class(mbps(2)));  // journaled but never synced
  ASSERT_NE(h.digest(), at_checkpoint);
  ASSERT_LT(h.durable_journal_image().size(), h.journal_image().size());

  // Honest crash: only the durable prefix survives — the post-
  // checkpoint mutation is gone, by design of kNone.
  RuntimeHost crashed = RuntimeHost::recover(opts, h.checkpoint_image(),
                                             h.durable_journal_image());
  EXPECT_EQ(crashed.digest(), at_checkpoint);

  // Lucky crash (the OS happened to write the tail): full state back.
  RuntimeHost lucky = RuntimeHost::recover(opts, h.checkpoint_image(),
                                           h.journal_image());
  EXPECT_EQ(lucky.digest(), h.digest());
}

TEST(JournalSync, PolicyOnCommitKeepsEveryCompletedAppend) {
  RuntimeOptions opts = small_host_options(SyncPolicy::kOnCommit);
  RuntimeHost h(opts);
  const ClassId a = add(h, kRootClass, ls_class(mbps(4)));
  h.save_checkpoint();
  add(h, a, ls_class(mbps(2)));
  add(h, a, ls_class(mbps(1)));

  // Every completed append is behind the fsync: the durable image IS
  // the image, and recovery from it reproduces the live scheduler.
  EXPECT_EQ(h.durable_journal_image(), h.journal_image());
  RuntimeHost crashed = RuntimeHost::recover(opts, h.checkpoint_image(),
                                             h.durable_journal_image());
  EXPECT_EQ(crashed.digest(), h.digest());
  EXPECT_TRUE(crashed.audit_runtime().ok());
}

}  // namespace
}  // namespace hfsc
