// Mutation fuzz over journal images (runtime/journal.hpp): truncation at
// every byte, every bit of the magic/version header, every bit of each
// record's length, seq and checksum fields, and random payload flips,
// applied to a multi-record journal compacted behind a checkpoint.
//
// The contract under test, for every mutant:
//   * Journal::parse either throws Error{kBadJournal} or returns records
//     whose payloads are a prefix of the original's;
//   * RuntimeHost::recover(checkpoint, mutant) either throws a typed
//     hfsc::Error or returns an auditor-clean host whose digest equals a
//     recovery from the original journal cut after some k records, k at
//     most the number of records parse() kept.
// The checksum covers only the payload, so a flipped seq in the first
// record passes the scan; recovery then skips it (k = 0) or replays it
// (k = 1), and the contract above still has to hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/host.hpp"
#include "runtime/journal.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

RuntimeOptions opts() {
  RuntimeOptions o;
  o.link_rate = mbps(10);
  o.admission_rate = mbps(10);
  o.watchdog_horizon = msec(50);
  return o;
}

// The seed: a host checkpointed mid-backlog, whose journal was compacted
// by that checkpoint and then took one `txn` record per op kind.  `cuts[k]`
// is the digest of a recovery from the journal cut after k records.
struct Seed {
  std::string checkpoint;
  std::string journal;
  std::vector<std::string> payloads;
  std::vector<std::size_t> record_offsets;  // start of each record
  std::vector<std::uint64_t> cuts;
};

Seed make_seed() {
  using OpKind = RuntimeHost::BatchOp::Kind;
  RuntimeHost h(opts());
  auto add = [&](ClassId parent, const ClassConfig& cfg) {
    return h
        .commit_batch({{.kind = OpKind::kAdd, .parent = parent, .cfg = cfg}})
        .at(0);
  };
  auto qlim = [&](ClassId cls, std::size_t limit) {
    h.commit_batch({{.kind = OpKind::kQueueLimit, .cls = cls, .limit = limit}});
  };
  const ClassId org = add(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(6))));
  const ClassId rt = add(
      kRootClass, ClassConfig::both(ServiceCurve{mbps(3), msec(2), mbps(1)}));
  const ClassId bulk =
      add(org, ClassConfig::link_share_only(ServiceCurve::linear(mbps(2))));
  TimeNs now = usec(1);
  std::uint64_t pseq = 1;
  for (int i = 0; i < 40; ++i) {
    h.enqueue(now, Packet{rt, 200, now, pseq++});
    h.enqueue(now, Packet{bulk, 1200, now, pseq++});
    if (i % 3 == 0) (void)h.dequeue(now);
    now += usec(150);
  }
  h.save_checkpoint();

  // Post-checkpoint control-plane tail: a one-op `txn` record per op
  // kind, and one two-op batch.
  const ClassId extra =
      add(org, ClassConfig::link_share_only(ServiceCurve::linear(mbps(1))));
  qlim(bulk, 16);
  h.commit_batch({{.kind = OpKind::kChange,
                   .cls = rt,
                   .cfg = ClassConfig::both(ServiceCurve::linear(mbps(2))),
                   .now = now}});
  h.commit_batch(
      {{.kind = OpKind::kAdd,
        .parent = org,
        .cfg = ClassConfig::link_share_only(ServiceCurve::linear(mbps(1)))},
       {.kind = OpKind::kQueueLimit, .cls = extra, .limit = 8}});
  h.commit_batch({{.kind = OpKind::kDelete, .cls = extra}});
  qlim(bulk, 0);

  Seed s;
  s.checkpoint = h.checkpoint_image();
  s.journal = h.journal_image();
  std::size_t off = Journal::kHeaderBytes;
  for (const JournalRecord& r : Journal::parse(s.journal).records_after(0)) {
    s.payloads.push_back(r.payload);
    s.record_offsets.push_back(off);
    off += Journal::kRecordOverhead + r.payload.size();
  }
  for (std::size_t k = 0; k <= s.payloads.size(); ++k) {
    const std::size_t end =
        k < s.payloads.size() ? s.record_offsets[k] : s.journal.size();
    s.cuts.push_back(
        RuntimeHost::recover(opts(), s.checkpoint, s.journal.substr(0, end))
            .digest());
  }
  // The uncut recovery is the live host: nothing since the checkpoint
  // touched the data path.
  EXPECT_EQ(s.cuts.back(), h.digest());
  return s;
}

const Seed& seed() {
  static const Seed s = make_seed();
  return s;
}

// Parses and recovers `image`, checking the contract.  Returns whether
// recovery produced a host.
bool check(const std::string& image) {
  const Seed& s = seed();
  std::optional<std::size_t> kept;
  // An exact-size heap copy, so a read past the image's end is an
  // out-of-bounds access under ASan rather than a read of the string's
  // terminator.
  const std::vector<char> bytes(image.begin(), image.end());
  try {
    const Journal j =
        Journal::parse(std::string_view(bytes.data(), bytes.size()));
    const std::vector<JournalRecord> recs = j.records_after(0);
    kept = recs.size();
    EXPECT_LE(recs.size(), s.payloads.size());
    for (std::size_t i = 0; i < recs.size() && i < s.payloads.size(); ++i) {
      EXPECT_EQ(recs[i].payload, s.payloads[i]) << "record " << i;
    }
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadJournal) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped escape from parse: " << e.what();
  }

  std::optional<RuntimeHost> r;
  try {
    r.emplace(RuntimeHost::recover(opts(), s.checkpoint, image));
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped escape from recover: " << e.what();
    return false;
  }
  EXPECT_TRUE(kept.has_value()) << "recover accepted what parse rejected";
  const AuditReport report = r->audit_runtime();
  EXPECT_TRUE(report.ok()) << report.to_string();
  const std::uint64_t d = r->digest();
  bool matched = false;
  for (std::size_t k = 0; k <= kept.value_or(0); ++k) {
    matched = matched || s.cuts[k] == d;
  }
  EXPECT_TRUE(matched) << "digest matches no cut after <= "
                       << kept.value_or(0) << " records";
  return true;
}

std::string flip(const std::string& image, std::size_t at, int bit) {
  std::string m = image;
  m[at] = static_cast<char>(m[at] ^ (1 << bit));
  return m;
}

TEST(JournalFuzz, SeedIsMultiRecordAndCompacted) {
  const Seed& s = seed();
  EXPECT_GE(s.payloads.size(), 6u);
  // Compaction dropped the pre-checkpoint records: the first survivor's
  // seq is past 1.
  EXPECT_GT(Journal::parse(s.journal).records_after(0).front().seq, 1u);
  EXPECT_TRUE(check(s.journal));
  // Every cut is a distinct state, so a digest names its k.
  for (std::size_t k = 1; k < s.cuts.size(); ++k) {
    EXPECT_NE(s.cuts[k], s.cuts[k - 1]) << "cut " << k;
  }
}

TEST(JournalFuzz, EveryTruncation) {
  const std::string& image = seed().journal;
  for (std::size_t n = 0; n < image.size(); ++n) {
    check(image.substr(0, n));
    if (::testing::Test::HasFailure()) FAIL() << "truncated at byte " << n;
  }
}

TEST(JournalFuzz, EveryHeaderBitIsBadJournal) {
  const std::string& image = seed().journal;
  for (std::size_t at = 0; at < Journal::kHeaderBytes; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      EXPECT_FALSE(check(flip(image, at, bit)));
      if (::testing::Test::HasFailure()) {
        FAIL() << "flipped bit " << bit << " of header byte " << at;
      }
    }
  }
}

TEST(JournalFuzz, EveryFramingBitOfEveryRecord) {
  // Length, seq and checksum: the record's first kRecordOverhead bytes.
  const Seed& s = seed();
  std::size_t recovered = 0;
  for (std::size_t rec = 0; rec < s.record_offsets.size(); ++rec) {
    for (std::size_t i = 0; i < Journal::kRecordOverhead; ++i) {
      const std::size_t at = s.record_offsets[rec] + i;
      for (int bit = 0; bit < 8; ++bit) {
        recovered += check(flip(s.journal, at, bit)) ? 1 : 0;
        if (::testing::Test::HasFailure()) {
          FAIL() << "flipped bit " << bit << " of byte " << i << " of record "
                 << rec << " (image byte " << at << ")";
        }
      }
    }
  }
  // A damaged record truncates the journal there; it never stops
  // recovery.
  EXPECT_EQ(recovered, s.record_offsets.size() * Journal::kRecordOverhead * 8);
}

TEST(JournalFuzz, RandomPayloadFlips) {
  constexpr int kMutants = 4000;
  const Seed& s = seed();
  Rng rng(0xF0221);
  for (int i = 0; i < kMutants; ++i) {
    std::string m = s.journal;
    const int flips = static_cast<int>(rng.uniform(1, 3));
    for (int f = 0; f < flips; ++f) {
      const std::size_t rec = rng.uniform(0, s.payloads.size() - 1);
      const std::size_t at = s.record_offsets[rec] + Journal::kRecordOverhead +
                             rng.uniform(0, s.payloads[rec].size() - 1);
      m = flip(m, at, static_cast<int>(rng.uniform(0, 7)));
    }
    check(m);
    if (::testing::Test::HasFailure()) FAIL() << "mutant " << i;
  }
}

}  // namespace
}  // namespace hfsc
