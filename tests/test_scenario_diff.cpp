// Engine-equivalence pin for the scenario engine: every single-node
// scenario must produce bit-identical results through run_scenario and
// through legacy_run, the install/gather reference written against the
// Simulator API (one compiled hierarchy on one link), including the
// H-FSC state digest.  Both now run on the Topology engine, so the golden
// pins below tie the output to absolute constants as well.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>

#include "config/hierarchy_spec.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/hash.hpp"

namespace hfsc {
namespace {

// The single-link install/gather sequence as the scenario engine ran it
// before routed topologies (same compile, install and gather order),
// plus the post-run state digest run_scenario reports.
ScenarioResult legacy_run(const Scenario& sc, SchedulerKind kind) {
  const ScenarioNode& link = sc.nodes.front();
  const HierarchySpec& spec = link.spec;
  HierarchySpec::CompileOptions copts;
  HierarchySpec::Compiled compiled = spec.compile(kind, link.rate, copts);
  Scheduler& sched = *compiled.sched;
  const HierarchySpec::IdMap& ids = compiled.ids;

  Simulator sim(link.rate, sched, sc.window);
  for (const ScenarioSource& s : sc.sources) {
    const ClassId cls = ids.at(s.cls);
    switch (s.kind) {
      case ScenarioSource::Kind::kCbr:
        sim.add<CbrSource>(cls, s.rate, s.pkt_len, s.start, s.stop);
        break;
      case ScenarioSource::Kind::kPoisson:
        sim.add<PoissonSource>(cls, s.rate, s.pkt_len, s.start, s.stop,
                               s.seed);
        break;
      case ScenarioSource::Kind::kOnOff:
        sim.add<OnOffSource>(cls, s.rate, s.pkt_len, s.mean_on, s.mean_off,
                             s.start, s.stop, s.seed);
        break;
      case ScenarioSource::Kind::kGreedy:
        sim.add<GreedySource>(cls, s.pkt_len, s.window, s.start, s.stop);
        break;
      case ScenarioSource::Kind::kVideo:
        sim.add<VideoSource>(cls, s.fps, s.mean_frame, s.max_frame, s.mtu,
                             s.start, s.stop, s.seed);
        break;
      case ScenarioSource::Kind::kPareto:
        sim.add<OnOffSource>(cls, s.rate, s.pkt_len, s.mean_on, s.mean_off,
                             s.alpha, s.start, s.stop, s.seed);
        break;
      case ScenarioSource::Kind::kTcpish:
        sim.add<TcpishSource>(cls, s.pkt_len, s.window, s.start, s.stop);
        break;
    }
  }
  sim.run(sc.duration);

  ScenarioResult out;
  out.scheduler = std::string(sched.name());
  out.notes = std::move(compiled.notes);
  const FlowTracker& t = sim.tracker();
  for (const HierarchySpec::ClassSpec& c : spec.classes) {
    const auto it = ids.find(c.name);
    if (it == ids.end()) continue;  // dropped by a flat mapping
    const ClassId id = it->second;
    if (!spec.is_leaf(c.name) && !t.has(id)) continue;  // interior class
    ScenarioResult::PerClass pc;
    pc.name = c.name;
    pc.packets = t.packets(id);
    pc.bytes = t.bytes(id);
    pc.dropped = sched.class_drops(id);
    pc.mean_delay_ms = t.mean_delay_ms(id);
    pc.p99_delay_ms = t.delay_quantile_ms(id, 0.99);
    pc.max_delay_ms = t.max_delay_ms(id);
    pc.rate_mbps = t.rate_mbps(id, 0, sc.duration);
    out.per_class.push_back(std::move(pc));
  }
  out.link_utilization = static_cast<double>(sim.link().busy_time()) /
                         static_cast<double>(sc.duration);
  if (compiled.hfsc != nullptr) {
    out.state_digest = state_digest(*compiled.hfsc);
  }
  return out;
}

// Exact equality, doubles included: the refactor promises bit-identity,
// not tolerance-identity.
void expect_identical(const ScenarioResult& legacy,
                      const ScenarioResult& now) {
  ASSERT_EQ(legacy.per_class.size(), now.per_class.size());
  for (std::size_t i = 0; i < legacy.per_class.size(); ++i) {
    const auto& l = legacy.per_class[i];
    const auto& n = now.per_class[i];
    SCOPED_TRACE(l.name);
    EXPECT_EQ(l.name, n.name);
    EXPECT_EQ(l.packets, n.packets);
    EXPECT_EQ(l.bytes, n.bytes);
    EXPECT_EQ(l.dropped, n.dropped);
    EXPECT_EQ(l.mean_delay_ms, n.mean_delay_ms);
    EXPECT_EQ(l.p99_delay_ms, n.p99_delay_ms);
    EXPECT_EQ(l.max_delay_ms, n.max_delay_ms);
    EXPECT_EQ(l.rate_mbps, n.rate_mbps);
  }
  EXPECT_EQ(legacy.link_utilization, now.link_utilization);
  EXPECT_EQ(legacy.state_digest, now.state_digest);
  EXPECT_EQ(legacy.notes, now.notes);
  // The rendered single-node table must be byte-for-byte what the old
  // engine printed.
  EXPECT_EQ(legacy.to_table(), now.to_table());
}

TEST(ScenarioDiff, ShippedSingleNodeScenariosAreBitIdentical) {
  for (const char* path :
       {"scenarios/campus.hfsc", "scenarios/voip.hfsc",
        "scenarios/decoupling.hfsc", "scenarios/decoupling_vii.hfsc"}) {
    SCOPED_TRACE(path);
    const Scenario sc =
        Scenario::parse_file(std::string(HFSC_SOURCE_DIR) + "/" + path);
    const ScenarioResult legacy = legacy_run(sc, sc.scheduler);
    const ScenarioResult now = run_scenario(sc);
    expect_identical(legacy, now);
  }
}

// One hierarchy exercising every source family the legacy engine knew,
// run under each scheduler family.
constexpr const char* kFamilyScenario = R"(
link 10Mbps
duration 2s
class org   root ls linear 10Mbps
class voice org  rt udr 160 5ms 64kbps  ls linear 64kbps
class web   org  ls linear 5Mbps  qlimit 60
class bulk  org  ls linear 4Mbps  ul linear 6Mbps  qlimit 60
source cbr    voice 64kbps 160 0s 2s
source pareto web   6Mbps 1200 20ms 60ms 1.5 0s 2s 9
source tcpish bulk  1500 24 0s 2s
source onoff  web   3Mbps 900 30ms 30ms 0.5s 2s 4
)";

constexpr SchedulerKind kFamilies[] = {
    SchedulerKind::kHfsc, SchedulerKind::kHpfq,
    SchedulerKind::kCbq,  SchedulerKind::kDrr,
    SchedulerKind::kSced, SchedulerKind::kVirtualClock,
    SchedulerKind::kFifo};

TEST(ScenarioDiff, EveryFamilyMatchesTheLegacyEngine) {
  std::istringstream in(kFamilyScenario);
  const Scenario sc = Scenario::parse(in);
  for (const SchedulerKind kind : kFamilies) {
    SCOPED_TRACE(to_string(kind));
    const ScenarioResult legacy = legacy_run(sc, kind);
    ScenarioRunOptions opts;
    opts.scheduler = kind;
    const ScenarioResult now = run_scenario(sc, opts);
    expect_identical(legacy, now);
  }
}

// Absolute pins: both sides of the comparisons above run on the same
// Topology engine, so these constants are what tie the output to the
// engine as it was before the simulation layer was collapsed onto it.
// Each pin is the H-FSC state digest (0 for other families) plus an
// FNV-1a-64 of the full JSON report.
struct GoldenPin {
  const char* what;
  std::uint64_t state_digest;
  std::uint64_t json_fnv;
};

void expect_pinned(const ScenarioResult& r, const GoldenPin& pin) {
  SCOPED_TRACE(pin.what);
  EXPECT_EQ(r.state_digest, pin.state_digest)
      << std::hex << "actual 0x" << r.state_digest;
  EXPECT_EQ(fnv1a64(r.to_json()), pin.json_fnv)
      << std::hex << "actual 0x" << fnv1a64(r.to_json());
}

TEST(ScenarioDiff, ShippedScenariosMatchGoldenPins) {
  const GoldenPin pins[] = {
      {"scenarios/campus.hfsc", 0x7a1b7257a7f10515ull, 0x290ec927f0c35e9aull},
      {"scenarios/voip.hfsc", 0x5600e4ee042e5efbull, 0xc9b7e4afd415a0f5ull},
      {"scenarios/decoupling.hfsc", 0x689a3ccac12bf942ull,
       0xba793b5c46e79c39ull},
      {"scenarios/decoupling_vii.hfsc", 0x0075532e07f420acull,
       0x50be102a65217b07ull},
      {"scenarios/backbone.hfsc", 0x9963a2fbf8eb538bull, 0x0966fb0b8f9cc85eull},
      {"scenarios/churn_soak.hfsc", 0xafddb4236c66ad66ull,
       0x0adaa140384b7d21ull},
      {"scenarios/overbudget.hfsc", 0x33e97f6019b3eeecull,
       0x2d7d5b3b5a0d2eb1ull},
  };
  for (const GoldenPin& pin : pins) {
    const Scenario sc =
        Scenario::parse_file(std::string(HFSC_SOURCE_DIR) + "/" + pin.what);
    expect_pinned(run_scenario(sc), pin);
  }
}

TEST(ScenarioDiff, EveryFamilyMatchesGoldenPins) {
  const GoldenPin pins[] = {
      {"hfsc", 0x7baa6009f7bce50cull, 0xf2ce10bae0d41c94ull},
      {"hpfq", 0, 0xeab5514c3a2bb5a8ull},
      {"cbq", 0, 0x88e75af574f5b7f3ull},
      {"drr", 0, 0x6445124feb398a44ull},
      {"sced", 0, 0x55ac0be5a1f91c8aull},
      {"vclock", 0, 0xf1f6fcc5e9eb86e4ull},
      {"fifo", 0, 0x14440db8241e6da5ull},
  };
  std::istringstream in(kFamilyScenario);
  const Scenario sc = Scenario::parse(in);
  ASSERT_EQ(std::size(pins), std::size(kFamilies));
  for (std::size_t i = 0; i < std::size(pins); ++i) {
    ASSERT_EQ(to_string(kFamilies[i]), std::string_view(pins[i].what));
    ScenarioRunOptions opts;
    opts.scheduler = kFamilies[i];
    expect_pinned(run_scenario(sc, opts), pins[i]);
  }
}

// The refactored engine additionally reports per-node conservation for
// single-node runs; the identity must hold on the same runs the
// bit-identity pin covers.
TEST(ScenarioDiff, SingleNodeRunsAreConserved) {
  for (const char* path :
       {"scenarios/campus.hfsc", "scenarios/voip.hfsc",
        "scenarios/decoupling.hfsc"}) {
    SCOPED_TRACE(path);
    const Scenario sc =
        Scenario::parse_file(std::string(HFSC_SOURCE_DIR) + "/" + path);
    const ScenarioResult r = run_scenario(sc);
    ASSERT_EQ(r.nodes.size(), 1u);
    EXPECT_TRUE(r.conserved())
        << "offered " << r.offered() << " != sent " << r.sent()
        << " + dropped " << r.dropped() << " + rejected " << r.rejected()
        << " + backlog " << r.backlog();
  }
}

}  // namespace
}  // namespace hfsc
