// Mutation fuzz over checkpoint images (core/checkpoint.hpp): bit flips,
// truncation at many depths, token swaps, duplications and deletions,
// keywords in the wrong place, and huge or signed numerals, applied to
// images of four seed schedulers — a busy mid-backlog hierarchy, a
// tombstoned tree, one with admission control and the starvation
// watchdog on, and one whose ext payload holds `end\n`, NUL bytes and
// checkpoint keywords.
//
// The contract under test: restore_checkpoint either throws
// Error{kBadCheckpoint} whose message ends with a byte offset, or
// returns a scheduler that audits clean and is a fixpoint — its own
// checkpoint restores to the same state_digest and writes back byte for
// byte.  No other exception type may escape (a bad_alloc from a huge
// count included), and tools/ci_check.sh runs this under ASan/UBSan.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/auditor.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

struct Seed {
  const char* name;
  std::string image;
};

// Enqueues and partly drains random traffic on `leaves`.
void traffic(Hfsc& s, const std::vector<ClassId>& leaves, Rng& rng, int n) {
  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int i = 0; i < n; ++i) {
    const ClassId c = leaves[rng.uniform(0, leaves.size() - 1)];
    s.enqueue(now, Packet{c, 40 + rng.uniform(0, 1460), now, seq++});
    if (rng.chance(0.4)) {
      if (const auto p = s.dequeue(now)) now += tx_time(p->len, s.link_rate());
    }
    now += rng.uniform(0, usec(200));
  }
}

std::vector<Seed> seeds() {
  std::vector<Seed> out;
  Rng rng(0x5EED);
  {
    // Busy: rt/ls/ul curves, a queue limit, drops, a partial drain.
    Hfsc s(mbps(20));
    const ClassId org = s.add_class(
        kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(
                        mbps(10))));
    const std::vector<ClassId> leaves = {
        s.add_class(org, ClassConfig::both(
                             ServiceCurve{mbps(5), msec(2), mbps(2)})),
        s.add_class(org, ClassConfig::link_share_only(
                             ServiceCurve::linear(mbps(2)))),
        s.add_class(kRootClass,
                    ClassConfig{ServiceCurve::linear(mbps(2)),
                                ServiceCurve::linear(mbps(2)),
                                ServiceCurve::linear(mbps(4))}),
    };
    s.set_queue_limit(leaves[1], 8);
    traffic(s, leaves, rng, 300);
    std::string image;
    checkpoint(s, image);
    out.push_back({"busy", std::move(image)});
  }
  {
    // Tombstones: deleted leaves and a deleted interior class keep
    // their dense ids between live ones.
    Hfsc s(mbps(10));
    std::vector<ClassId> live;
    for (int i = 0; i < 3; ++i) {
      const ClassId org = s.add_class(
          kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(
                          mbps(3))));
      const ClassId a = s.add_class(
          org, ClassConfig::link_share_only(ServiceCurve::linear(mbps(1))));
      const ClassId b = s.add_class(
          org, ClassConfig::both(ServiceCurve::linear(mbps(1))));
      if (i == 1) {
        s.delete_class(a);
        s.delete_class(b);
        s.delete_class(org);
      } else {
        s.delete_class(a);
        live.push_back(b);
      }
    }
    traffic(s, live, rng, 100);
    std::string image;
    checkpoint(s, image);
    out.push_back({"tombstoned", std::move(image)});
  }
  {
    // Admission control and the starvation watchdog on.
    Hfsc s(mbps(10));
    s.enable_admission_control();
    s.enable_starvation_watchdog(msec(5));
    const std::vector<ClassId> leaves = {
        s.add_class(kRootClass, ClassConfig::both(
                                    ServiceCurve{mbps(4), msec(1), mbps(2)})),
        s.add_class(kRootClass,
                    ClassConfig::both(ServiceCurve::linear(mbps(3)))),
        s.add_class(kRootClass, ClassConfig::link_share_only(
                                    ServiceCurve::linear(mbps(1)))),
    };
    traffic(s, leaves, rng, 200);
    std::string image;
    checkpoint(s, image);
    out.push_back({"admission+watchdog", std::move(image)});
  }
  {
    // An ext payload that looks like the rest of a checkpoint.
    Hfsc s(mbps(10));
    const ClassId a = s.add_class(
        kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(5))));
    traffic(s, {a}, rng, 20);
    const std::string ext("end\n\0\0node 1 0 0\nqueue 1 1\npkt 9 9 9\n"
                          "hfsc-checkpoint 2\next 4\n\0end\n",
                          63);
    std::string image;
    checkpoint(s, image, ext);
    out.push_back({"ext", std::move(image)});
  }
  return out;
}

// Start offsets of the image's whitespace-separated tokens.
std::vector<std::pair<std::size_t, std::size_t>> tokens(
    const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n')) ++i;
    const std::size_t from = i;
    while (i < s.size() && s[i] != ' ' && s[i] != '\n') ++i;
    if (i > from) out.emplace_back(from, i - from);
  }
  return out;
}

std::string mutate(const std::string& image, Rng& rng) {
  static const char* const kReplacements[] = {
      "18446744073709551615", "18446744073709551616",
      "99999999999999999999999999", "4294967295", "4294967296",
      "16777216", "0", "1", "2", "-1", "-0", "+1", "-18446744073709551615",
      "end", "queue", "node", "pkt", "curve", "cfg", "ext", "", "1e3",
      "0x10", "07",
  };
  std::string m = image;
  const auto toks = tokens(image);
  const auto pick = [&] { return toks[rng.uniform(0, toks.size() - 1)]; };
  switch (rng.uniform(0, 6)) {
    case 0: {  // bit flip
      const std::size_t at = rng.uniform(0, m.size() - 1);
      m[at] = static_cast<char>(m[at] ^ (1 << rng.uniform(0, 7)));
      break;
    }
    case 1:  // truncation
      m.resize(rng.uniform(0, m.size() - 1));
      break;
    case 2: {  // swap two tokens
      auto a = pick();
      auto b = pick();
      if (a.first > b.first) std::swap(a, b);
      if (a.first == b.first) break;
      m = image.substr(0, a.first) + image.substr(b.first, b.second) +
          image.substr(a.first + a.second, b.first - a.first - a.second) +
          image.substr(a.first, a.second) + image.substr(b.first + b.second);
      break;
    }
    case 3: {  // duplicate a token
      const auto t = pick();
      m.insert(t.first, image.substr(t.first, t.second) + " ");
      break;
    }
    case 4: {  // delete a token
      const auto t = pick();
      m.erase(t.first, t.second + (t.first + t.second < m.size() ? 1 : 0));
      break;
    }
    case 5: {  // replace a token: huge, signed, malformed, a keyword
      const auto t = pick();
      m.replace(t.first, t.second,
                kReplacements[rng.uniform(0, std::size(kReplacements) - 1)]);
      break;
    }
    case 6: {  // sign a numeral in place
      const auto t = pick();
      m.insert(t.first, rng.chance(0.5) ? "-" : "+");
      break;
    }
  }
  return m;
}

// Restores `image`; on success checks the audit and the fixpoint.
// Returns whether it restored.
bool check(const std::string& image) {
  std::string ext;
  std::optional<Hfsc> r;
  try {
    r.emplace(restore_checkpoint(image, &ext));
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.code(), Errc::kBadCheckpoint) << what;
    EXPECT_NE(what.find(" at byte "), std::string::npos) << what;
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped escape: " << e.what();
    return false;
  }
  const AuditReport report = audit(*r);
  EXPECT_TRUE(report.ok()) << report.to_string();
  std::string again;
  checkpoint(*r, again, ext);
  std::string ext2;
  try {
    const Hfsc r2 = restore_checkpoint(again, &ext2);
    EXPECT_EQ(state_digest(r2), state_digest(*r));
    std::string third;
    checkpoint(r2, third, ext2);
    EXPECT_EQ(third, again);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "a restored mutant's own checkpoint failed: "
                  << e.what();
  }
  EXPECT_EQ(ext2, ext);
  return true;
}

TEST(CheckpointFuzz, SeedImagesRoundTrip) {
  for (const Seed& s : seeds()) {
    SCOPED_TRACE(s.name);
    EXPECT_TRUE(check(s.image));
  }
}

TEST(CheckpointFuzz, EveryTruncationIsTyped) {
  for (const Seed& s : seeds()) {
    SCOPED_TRACE(s.name);
    // Every prefix that stops before "end" lacks it; the last few bytes
    // cut into "end\n" itself.
    for (std::size_t n = 0; n + 4 <= s.image.size(); n += 7) {
      EXPECT_FALSE(check(s.image.substr(0, n))) << "prefix " << n;
    }
    for (std::size_t n = s.image.size() - 4; n < s.image.size() - 1; ++n) {
      EXPECT_FALSE(check(s.image.substr(0, n))) << "prefix " << n;
    }
  }
}

TEST(CheckpointFuzz, EveryTokenAtTheExtremes) {
  // Random mutants rarely hit one given field with one given value, so
  // every token of every seed also takes each boundary value in turn.
  for (const Seed& s : seeds()) {
    SCOPED_TRACE(s.name);
    for (const auto& [at, len] : tokens(s.image)) {
      for (const char* v : {"0", "4294967295", "18446744073709551615", "-1"}) {
        std::string m = s.image;
        m.replace(at, len, v);
        check(m);
        if (::testing::Test::HasFailure()) FAIL() << "mutant:\n" << m;
      }
    }
  }
}

TEST(CheckpointFuzz, MutantsThrowTypedOrRestoreToAFixpoint) {
  constexpr int kMutantsPerSeed = 10000;
  Rng rng(0xF0221);
  std::size_t restored = 0;
  std::size_t total = 0;
  for (const Seed& s : seeds()) {
    SCOPED_TRACE(s.name);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string m = mutate(s.image, rng);
      restored += check(m) ? 1 : 0;
      ++total;
      if (::testing::Test::HasFailure()) {
        FAIL() << "mutant " << i << ":\n" << m;
      }
    }
  }
  // Most mutants break the image; some (a flipped digit, an equal
  // token swapped) still describe a valid state.
  EXPECT_GT(restored, 0u);
  EXPECT_LT(restored, total);
}

}  // namespace
}  // namespace hfsc
