// Tests for the scheduler-agnostic hierarchy layer
// (config/hierarchy_spec.hpp): spec validation, the per-family compilers
// and their documented lossy-mapping rules, and the
// guarantee that a spec-compiled Hfsc is bit-identical to one built by
// hand through the raw API.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "config/hierarchy_spec.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "util/errors.hpp"

namespace hfsc {
namespace {

ServiceCurve audio_curve() { return from_udr(160, msec(5), kbps(64)); }

// See GoldenDigestRegression below; regenerate by printing
// state_digest() after the fixed drive when a justified semantic change
// lands.
constexpr std::uint64_t kGoldenDigest = 0x10c2974f32968a24;  // format v2

// The Fig. 1-style hierarchy used throughout: two organizations, an
// audio leaf with a concave curve, data leaves, an upper-limited leaf.
HierarchySpec fig1_spec() {
  HierarchySpec spec;
  HierarchySpec::ClassSpec cmu;
  cmu.name = "cmu";
  cmu.ls = ServiceCurve::linear(mbps(25));
  spec.add(cmu);
  HierarchySpec::ClassSpec pitt;
  pitt.name = "pitt";
  pitt.ls = ServiceCurve::linear(mbps(20));
  spec.add(pitt);
  HierarchySpec::ClassSpec audio;
  audio.name = "audio";
  audio.parent = "cmu";
  audio.rt = audio.ls = audio_curve();
  spec.add(audio);
  HierarchySpec::ClassSpec data;
  data.name = "data";
  data.parent = "cmu";
  data.ls = ServiceCurve::linear(mbps(20));
  data.qlimit = 50;
  spec.add(data);
  HierarchySpec::ClassSpec pitt_data;
  pitt_data.name = "pitt_data";
  pitt_data.parent = "pitt";
  pitt_data.ls = ServiceCurve::linear(mbps(20));
  pitt_data.ul = ServiceCurve::linear(mbps(10));
  spec.add(pitt_data);
  return spec;
}

// ---------------------------------------------------------------- add()

TEST(HierarchySpecAdd, RejectsDuplicateNames) {
  HierarchySpec spec;
  HierarchySpec::ClassSpec a;
  a.name = "a";
  a.ls = ServiceCurve::linear(mbps(1));
  spec.add(a);
  try {
    spec.add(a);
    FAIL() << "duplicate accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("duplicate class 'a'"),
              std::string::npos);
  }
}

TEST(HierarchySpecAdd, RejectsReservedRootName) {
  HierarchySpec spec;
  HierarchySpec::ClassSpec r;
  r.name = "root";
  r.ls = ServiceCurve::linear(mbps(1));
  EXPECT_THROW(spec.add(r), Error);
}

TEST(HierarchySpecAdd, RejectsChildBeforeParent) {
  HierarchySpec spec;
  HierarchySpec::ClassSpec c;
  c.name = "child";
  c.parent = "missing";
  c.ls = ServiceCurve::linear(mbps(1));
  try {
    spec.add(c);
    FAIL() << "orphan accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kInvalidClass);
    EXPECT_NE(std::string(e.what()).find("not declared before"),
              std::string::npos);
  }
}

TEST(HierarchySpecAdd, RequiresSomeService) {
  HierarchySpec spec;
  HierarchySpec::ClassSpec c;
  c.name = "empty";
  try {
    spec.add(c);
    FAIL() << "serviceless class accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kMissingCurve);
  }
}

TEST(HierarchySpecAdd, RejectsUnsupportedCurveShapes) {
  HierarchySpec spec;
  HierarchySpec::ClassSpec c;
  c.name = "bad";
  // Convex with a sloped first segment: outside the two-piece algebra.
  c.ls = ServiceCurve{kbps(64), msec(5), mbps(10)};
  try {
    spec.add(c);
    FAIL() << "unsupported shape accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kUnsupportedCurve);
  }
}

TEST(HierarchySpec, IsLeaf) {
  const HierarchySpec spec = fig1_spec();
  EXPECT_FALSE(spec.is_leaf("cmu"));
  EXPECT_FALSE(spec.is_leaf("pitt"));
  EXPECT_TRUE(spec.is_leaf("audio"));
  EXPECT_TRUE(spec.is_leaf("pitt_data"));
}

// ---------------------------------------------- SchedulerKind round trip

TEST(SchedulerKind, TokensRoundTrip) {
  for (const SchedulerKind k : all_scheduler_kinds()) {
    const auto back = parse_scheduler_kind(to_string(k));
    ASSERT_TRUE(back.has_value()) << to_string(k);
    EXPECT_EQ(*back, k);
  }
  EXPECT_EQ(parse_scheduler_kind("virtualclock"),
            SchedulerKind::kVirtualClock);
  EXPECT_FALSE(parse_scheduler_kind("wfq").has_value());
  EXPECT_FALSE(parse_scheduler_kind("").has_value());
}

// --------------------------------------- H-FSC: exactness and bit-identity

// The spec compiler must replicate the raw construction call-for-call:
// same ids, same state digest before traffic, same dequeue sequence and
// same digest after identical traffic.
TEST(HierarchySpecHfsc, DigestIdenticalToRawApi) {
  const RateBps link = mbps(45);

  Hfsc raw(link);
  const ClassId cmu = raw.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(25))));
  const ClassId pitt = raw.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(20))));
  const ClassId audio = raw.add_class(cmu, ClassConfig::both(audio_curve()));
  const ClassId data = raw.add_class(
      cmu, ClassConfig::link_share_only(ServiceCurve::linear(mbps(20))));
  raw.set_queue_limit(data, 50);
  const ClassId pitt_data = raw.add_class(
      pitt, ClassConfig{ServiceCurve{}, ServiceCurve::linear(mbps(20)),
                        ServiceCurve::linear(mbps(10))});

  const HierarchySpec spec = fig1_spec();
  HierarchySpec::Compiled compiled = spec.compile(SchedulerKind::kHfsc, link);
  ASSERT_NE(compiled.hfsc, nullptr);
  Hfsc* const built = compiled.hfsc;
  const HierarchySpec::IdMap& ids = compiled.ids;

  EXPECT_TRUE(compiled.notes.empty());  // H-FSC expresses the full spec
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(ids.at("cmu"), cmu);
  EXPECT_EQ(ids.at("audio"), audio);
  EXPECT_EQ(ids.at("pitt_data"), pitt_data);
  EXPECT_EQ(state_digest(raw), state_digest(*built));

  // Identical traffic must produce the identical dequeue sequence and
  // leave both instances digest-identical.
  const ClassId leaves[] = {audio, data, pitt_data};
  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int round = 0; round < 50; ++round) {
    for (const ClassId c : leaves) {
      const Packet p{c, 1000, now, seq++};
      raw.enqueue(now, p);
      built->enqueue(now, p);
    }
    now += usec(300);
    for (int k = 0; k < 2; ++k) {
      const auto a = raw.dequeue(now);
      const auto b = built->dequeue(now);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        EXPECT_EQ(a->cls, b->cls);
        EXPECT_EQ(a->seq, b->seq);
      }
    }
  }
  EXPECT_EQ(state_digest(raw), state_digest(*built));
}

TEST(HierarchySpecHfsc, CompileCheckpointRestoreRoundTrips) {
  const HierarchySpec spec = fig1_spec();
  HierarchySpec::Compiled compiled =
      spec.compile(SchedulerKind::kHfsc, mbps(45));
  ASSERT_NE(compiled.hfsc, nullptr);

  TimeNs now = 0;
  std::uint64_t seq = 0;
  for (int i = 0; i < 40; ++i) {
    compiled.sched->enqueue(now, Packet{compiled.ids.at("audio"), 160, now,
                                        seq++});
    compiled.sched->enqueue(now,
                            Packet{compiled.ids.at("data"), 1500, now, seq++});
    now += usec(500);
    compiled.sched->dequeue(now);
  }

  std::stringstream buf;
  checkpoint(*compiled.hfsc, buf);
  const Hfsc restored = restore_checkpoint(buf);
  EXPECT_EQ(state_digest(*compiled.hfsc), state_digest(restored));
  EXPECT_EQ(compiled.hfsc->backlog_packets(), restored.backlog_packets());
}

// Locks the absolute dequeue behaviour of a spec-compiled Hfsc: a fixed
// hierarchy and a fixed drive must keep producing the same state digest
// forever.  If this constant moves, the refactor changed H-FSC semantics
// (not just structure) and the change must be justified.
TEST(HierarchySpecHfsc, GoldenDigestRegression) {
  const HierarchySpec spec = fig1_spec();
  HierarchySpec::Compiled compiled =
      spec.compile(SchedulerKind::kHfsc, mbps(45));
  TimeNs now = 0;
  std::uint64_t seq = 0;
  const ClassId leaves[] = {compiled.ids.at("audio"), compiled.ids.at("data"),
                            compiled.ids.at("pitt_data")};
  for (int round = 0; round < 200; ++round) {
    for (const ClassId c : leaves) {
      compiled.sched->enqueue(now, Packet{c, 1000, now, seq++});
    }
    now += usec(267);
    compiled.sched->dequeue(now);
  }
  EXPECT_EQ(state_digest(*compiled.hfsc), kGoldenDigest);
}

// ----------------------------------------------- H-PFQ / CBQ mapping rules

TEST(HierarchySpecHpfq, MapsRatesAndRecordsLossNotes) {
  const HierarchySpec spec = fig1_spec();
  HierarchySpec::Compiled compiled =
      spec.compile(SchedulerKind::kHpfq, mbps(45));
  Scheduler* const sched = compiled.sched.get();
  const HierarchySpec::IdMap& ids = compiled.ids;
  const std::vector<std::string>& notes = compiled.notes;

  ASSERT_EQ(ids.size(), 5u);  // hierarchy preserved, interior included
  EXPECT_EQ(sched->name(), "H-PFQ");
  // audio's concave curve degraded, pitt_data's ul dropped, data's qlimit
  // dropped: three distinct documented losses.
  auto has_note = [&](const char* frag) {
    return std::any_of(notes.begin(), notes.end(), [&](const std::string& n) {
      return n.find(frag) != std::string::npos;
    });
  };
  EXPECT_TRUE(has_note("'audio': non-linear"));
  EXPECT_TRUE(has_note("'pitt_data': ul curve dropped"));
  EXPECT_TRUE(has_note("'data': queue limit dropped"));

  // The compiled scheduler is live: traffic to a leaf flows.
  TimeNs now = 0;
  sched->enqueue(now, Packet{ids.at("audio"), 160, now, 0});
  const auto p = sched->dequeue(now);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cls, ids.at("audio"));
}

TEST(HierarchySpecCbq, UlCurveDisablesBorrowingAndClampsRate) {
  const HierarchySpec spec = fig1_spec();
  HierarchySpec::Compiled compiled =
      spec.compile(SchedulerKind::kCbq, mbps(45));
  Scheduler* const sched = compiled.sched.get();
  const HierarchySpec::IdMap& ids = compiled.ids;
  const std::vector<std::string>& notes = compiled.notes;
  ASSERT_EQ(ids.size(), 5u);
  const bool ul_note = std::any_of(
      notes.begin(), notes.end(), [](const std::string& n) {
        return n.find("'pitt_data': ul curve became borrow=off") !=
               std::string::npos;
      });
  EXPECT_TRUE(ul_note);
  // The clamp picked min(ls rate 20Mbps, ul rate 10Mbps): with the link
  // otherwise idle, a borrow=off class is still served when underlimit.
  TimeNs now = 0;
  sched->enqueue(now, Packet{ids.at("pitt_data"), 1500, now, 0});
  EXPECT_TRUE(sched->dequeue(now).has_value());
}

TEST(HierarchySpecRateBased, PureBurstCurveIsTypedError) {
  HierarchySpec spec;
  HierarchySpec::ClassSpec c;
  c.name = "burst";
  c.rt = ServiceCurve{mbps(10), msec(5), 0};  // m2 == 0: no long-term rate
  spec.add(c);
  try {
    spec.compile(SchedulerKind::kHpfq, mbps(45));
    FAIL() << "zero long-term rate accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kMissingCurve);
    EXPECT_NE(std::string(e.what()).find("'burst'"), std::string::npos);
  }
}

// ------------------------------------------------------- flat families

TEST(HierarchySpecFlat, InteriorClassesDropWithNotes) {
  const HierarchySpec spec = fig1_spec();
  for (const SchedulerKind kind :
       {SchedulerKind::kDrr, SchedulerKind::kSced,
        SchedulerKind::kVirtualClock}) {
    HierarchySpec::Compiled compiled = spec.compile(kind, mbps(45));
    EXPECT_EQ(compiled.ids.count("cmu"), 0u) << to_string(kind);
    EXPECT_EQ(compiled.ids.count("pitt"), 0u) << to_string(kind);
    EXPECT_EQ(compiled.ids.count("audio"), 1u) << to_string(kind);
    const auto dropped = std::count_if(
        compiled.notes.begin(), compiled.notes.end(),
        [](const std::string& n) {
          return n.find("interior class dropped") != std::string::npos;
        });
    EXPECT_EQ(dropped, 2) << to_string(kind);
    // Each leaf is live under the flat scheduler.
    TimeNs now = 0;
    compiled.sched->enqueue(now, Packet{compiled.ids.at("audio"), 160, now, 0});
    EXPECT_TRUE(compiled.sched->dequeue(now).has_value()) << to_string(kind);
  }
}

TEST(HierarchySpecFifo, AssignsSyntheticLeafIds) {
  const HierarchySpec spec = fig1_spec();
  HierarchySpec::Compiled compiled =
      spec.compile(SchedulerKind::kFifo, mbps(45));
  // Leaves in declaration order get ids 1..n; interiors are absent.
  ASSERT_EQ(compiled.ids.size(), 3u);
  EXPECT_EQ(compiled.ids.at("audio"), 1u);
  EXPECT_EQ(compiled.ids.at("data"), 2u);
  EXPECT_EQ(compiled.ids.at("pitt_data"), 3u);
  EXPECT_FALSE(compiled.notes.empty());
}

}  // namespace
}  // namespace hfsc
