// Unit tests for the static hierarchy analyzer (analysis/analyzer.hpp):
// one scenario per diagnostic id, each asserting the exact file:line
// provenance the parser recorded, plus report plumbing (JSON schema
// presence, portability verdicts, delay bounds on the committed
// scenarios).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "analysis/analyzer.hpp"
#include "curve/piecewise.hpp"
#include "sim/scenario.hpp"
#include "util/errors.hpp"

namespace hfsc {
namespace {

Scenario parse_text(const std::string& text) {
  std::istringstream in(text);
  return Scenario::parse(in, "mem.hfsc");
}

// The single diagnostic with the given id; fails the test when it is
// absent or ambiguous.  Returns a copy so callers may pass a temporary
// report.
Diagnostic find_diag(const AnalysisReport& r, const std::string& id) {
  const Diagnostic* found = nullptr;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.id == id) {
      EXPECT_EQ(found, nullptr) << "duplicate diagnostic " << id;
      found = &d;
    }
  }
  EXPECT_NE(found, nullptr) << "missing diagnostic " << id;
  return found ? *found : Diagnostic{};
}

bool has_diag(const AnalysisReport& r, const std::string& id) {
  return std::any_of(
      r.diagnostics.begin(), r.diagnostics.end(),
      [&](const Diagnostic& d) { return d.id == id; });
}

TEST(Analysis, CleanScenarioHasNoFindings) {
  const Scenario sc = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root ls linear 6Mbps\n"
      "class b root rt udr 160 10ms 64kbps ls linear 4Mbps\n"
      "envelope b 160 64kbps\n"
      "source cbr b 64kbps 160 0s 1s\n"
      "source greedy a 1500 4 0s 1s\n");
  const AnalysisReport r = analyze(sc);
  EXPECT_TRUE(r.rt_feasible);
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.notes(), 0u);
  ASSERT_EQ(r.delay_bounds.size(), 1u);
  EXPECT_EQ(r.delay_bounds[0].cls, "b");
  ASSERT_TRUE(r.delay_bounds[0].bound.has_value());
  // The (u, d, r) = (160 B, 10 ms, 64 kb/s) guarantee bounds a conformant
  // one-packet burst by d plus one max-packet transmission time.
  EXPECT_EQ(*r.delay_bounds[0].bound,
            msec(10) + tx_time(1500, sc.nodes.front().rate));
  EXPECT_EQ(r.file, "mem.hfsc");
  EXPECT_EQ(r.num_classes, 2u);
}

TEST(Analysis, ScenarioWithoutNodesIsATypedError) {
  // The classes of a Scenario built in code live in its nodes; with no
  // node there is no link to analyze them against.
  EXPECT_THROW((void)analyze(Scenario{}), Error);
}

TEST(Analysis, RtLinkInfeasibleNamesTheBreakingClass) {
  // 6 + 6 Mb/s of rt reservation on a 10 Mb/s link: the second class is
  // the one that pushes the aggregate over.
  const Scenario sc = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root rt linear 6Mbps\n"
      "class b root rt linear 6Mbps\n");
  const AnalysisReport r = analyze(sc);
  EXPECT_FALSE(r.rt_feasible);
  const Diagnostic& d = find_diag(r, "rt-link-infeasible");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.cls, "b");
  EXPECT_EQ(d.loc.file, "mem.hfsc");
  EXPECT_EQ(d.loc.line, 4u);
  EXPECT_DOUBLE_EQ(r.rt_utilization, 1.2);
}

TEST(Analysis, RtUlInfeasibleOnLeafAndInterior) {
  // Leaf: its own ul cuts below its rt curve.
  const Scenario leaf = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root rt linear 4Mbps ls linear 4Mbps ul linear 2Mbps\n");
  const Diagnostic& d1 = find_diag(analyze(leaf), "rt-ul-infeasible");
  EXPECT_EQ(d1.severity, Severity::kError);
  EXPECT_EQ(d1.cls, "a");
  EXPECT_EQ(d1.loc.line, 3u);

  // Interior: the subtree's aggregate rt exceeds the interior cap even
  // though each leaf alone fits under it.
  const Scenario interior = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class agg root ls linear 5Mbps ul linear 3Mbps\n"
      "class x agg rt linear 2Mbps ls linear 2Mbps\n"
      "class y agg rt linear 2Mbps ls linear 2Mbps\n");
  const AnalysisReport r = analyze(interior);
  const Diagnostic& d2 = find_diag(r, "rt-ul-infeasible");
  EXPECT_EQ(d2.cls, "agg");
  EXPECT_EQ(d2.loc.line, 3u);
  // The link itself is fine: 4 of 10 Mb/s.
  EXPECT_TRUE(r.rt_feasible);
}

TEST(Analysis, UlBelowLsWarns) {
  const Scenario sc = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class bulk root ls linear 9Mbps ul linear 8Mbps\n");
  const Diagnostic& d = find_diag(analyze(sc), "ul-below-ls");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.cls, "bulk");
  EXPECT_EQ(d.loc.line, 3u);
}

TEST(Analysis, LsZeroSlopeSegmentsWarn) {
  // Flat tail: the class starves once the first segment is spent.
  const Scenario tail = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root ls curve 2Mbps 5ms 0bps rt linear 1Mbps\n");
  const Diagnostic& d1 = find_diag(analyze(tail), "ls-zero-slope");
  EXPECT_EQ(d1.severity, Severity::kWarning);
  EXPECT_EQ(d1.loc.line, 3u);

  // Flat start (convex): no share during the first d of a backlog period.
  const Scenario start = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root ls curve 0bps 5ms 2Mbps\n");
  const Diagnostic& d2 = find_diag(analyze(start), "ls-zero-slope");
  EXPECT_EQ(d2.severity, Severity::kWarning);
}

TEST(Analysis, LsOversubscriptionAtParentAndLink) {
  const Scenario at_parent = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class p root ls linear 5Mbps\n"
      "class c1 p ls linear 3Mbps\n"
      "class c2 p ls linear 3Mbps\n");
  const Diagnostic& d1 = find_diag(analyze(at_parent), "ls-oversubscribed");
  EXPECT_EQ(d1.severity, Severity::kWarning);
  EXPECT_EQ(d1.cls, "p");
  EXPECT_EQ(d1.loc.line, 3u);

  const Scenario at_link = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root ls linear 6Mbps\n"
      "class b root ls linear 6Mbps\n");
  const Diagnostic& d2 = find_diag(analyze(at_link), "ls-oversubscribed");
  EXPECT_EQ(d2.cls, "");  // link-level: no class to anchor to
  EXPECT_EQ(d2.loc.line, 0u);
}

TEST(Analysis, RtOverLsOnInteriorWarns) {
  const Scenario sc = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class agg root ls linear 1Mbps\n"
      "class x agg rt linear 2Mbps ls linear 1Mbps\n");
  const AnalysisReport r = analyze(sc);
  const Diagnostic& d = find_diag(r, "rt-over-ls");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.cls, "agg");
  EXPECT_EQ(d.loc.line, 3u);
  // The leaf's own rt above its own ls is the paper's decoupling feature,
  // not a finding.
  EXPECT_FALSE(has_diag(r, "rt-on-interior"));
}

TEST(Analysis, RtOnInteriorWarns) {
  const Scenario sc = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class agg root rt linear 1Mbps ls linear 5Mbps\n"
      "class x agg ls linear 5Mbps\n");
  const Diagnostic& d = find_diag(analyze(sc), "rt-on-interior");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.cls, "agg");
  EXPECT_EQ(d.loc.line, 3u);
}

TEST(Analysis, QlimitUnboundedUnderOversubscribedParentWarns) {
  // Both leaves oversubscribe p; c1 has no qlimit -> unbounded backlog
  // exactly when the contention bites.  c2's qlimit silences it.
  const Scenario sc = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class p root ls linear 5Mbps\n"
      "class c1 p ls linear 3Mbps\n"
      "class c2 p ls linear 3Mbps qlimit 64\n");
  const AnalysisReport r = analyze(sc);
  const Diagnostic& d = find_diag(r, "qlimit-unbounded");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.cls, "c1");
  int unbounded = 0;
  for (const Diagnostic& di : r.diagnostics) {
    if (di.id == "qlimit-unbounded") ++unbounded;
  }
  EXPECT_EQ(unbounded, 1);  // c2 is capped, p is interior

  // A well-subscribed parent keeps unlimited leaves lint-clean: the
  // share is honourable, so the backlog is bounded by the sources.
  const Scenario ok = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class p root ls linear 6Mbps\n"
      "class c1 p ls linear 3Mbps\n"
      "class c2 p ls linear 3Mbps\n");
  EXPECT_FALSE(has_diag(analyze(ok), "qlimit-unbounded"));
}

TEST(Analysis, QlimitSmallerThanBurstWarns) {
  // 4 packets x 160 B = 640 B of queue for a 1000 B declared burst.
  const Scenario sc = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root rt linear 1Mbps ls linear 1Mbps qlimit 4\n"
      "envelope a 1000 64kbps\n"
      "source cbr a 64kbps 160 0s 1s\n");
  const Diagnostic& d = find_diag(analyze(sc), "qlimit-lt-burst");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.cls, "a");
  EXPECT_EQ(d.loc.line, 3u);
}

TEST(Analysis, UnfedLeafIsANote) {
  const Scenario sc = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root ls linear 5Mbps\n"
      "class b root ls linear 5Mbps\n"
      "source greedy a 1500 4 0s 1s\n");
  const AnalysisReport r = analyze(sc);
  const Diagnostic& d = find_diag(r, "class-unfed");
  EXPECT_EQ(d.severity, Severity::kNote);
  EXPECT_EQ(d.cls, "b");
  EXPECT_EQ(d.loc.line, 4u);
  EXPECT_TRUE(r.clean());  // notes do not dirty a scenario
}

TEST(Analysis, EnvelopeDiagnostics) {
  // Envelope rate above the rt curve's tail: unbounded worst-case delay.
  const Scenario overrun = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root rt linear 1Mbps ls linear 1Mbps\n"
      "envelope a 160 2Mbps\n");
  const AnalysisReport r1 = analyze(overrun);
  const Diagnostic& d1 = find_diag(r1, "envelope-overruns-service");
  EXPECT_EQ(d1.severity, Severity::kWarning);
  ASSERT_EQ(r1.delay_bounds.size(), 1u);
  EXPECT_FALSE(r1.delay_bounds[0].bound.has_value());
  // The delay-bound row anchors at the envelope directive's line.
  EXPECT_EQ(r1.delay_bounds[0].loc.line, 4u);

  // Envelope without an rt curve: nothing to bound against.
  const Scenario no_rt = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root ls linear 5Mbps\n"
      "envelope a 160 64kbps\n"
      "source cbr a 64kbps 160 0s 1s\n");
  const Diagnostic& d2 = find_diag(analyze(no_rt), "envelope-without-rt");
  EXPECT_EQ(d2.severity, Severity::kNote);

  // Envelope on an interior class is ignored (and said so).
  const Scenario interior = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class agg root ls linear 5Mbps\n"
      "class x agg ls linear 5Mbps\n"
      "envelope agg 160 64kbps\n"
      "source greedy x 1500 4 0s 1s\n");
  const Diagnostic& d3 = find_diag(analyze(interior), "envelope-on-interior");
  EXPECT_EQ(d3.severity, Severity::kWarning);
  EXPECT_EQ(d3.cls, "agg");
}

TEST(Analysis, UlCapTightensTheDelayBound) {
  // Same envelope and rt curve, but an ancestor ul caps the service the
  // subtree can receive: the effective guarantee min(rt, ul) is slower,
  // so the bound must grow.
  const Scenario uncapped = parse_text(
      "link 100Mbps\n"
      "duration 1s\n"
      "class agg root ls linear 50Mbps\n"
      "class a agg rt curve 16Mbps 10ms 2Mbps ls linear 2Mbps\n"
      "envelope a 20000 2Mbps\n");
  const Scenario capped = parse_text(
      "link 100Mbps\n"
      "duration 1s\n"
      "class agg root ls linear 50Mbps ul linear 4Mbps\n"
      "class a agg rt curve 16Mbps 10ms 2Mbps ls linear 2Mbps\n"
      "envelope a 20000 2Mbps\n");
  const AnalysisReport r1 = analyze(uncapped);
  const AnalysisReport r2 = analyze(capped);
  ASSERT_EQ(r1.delay_bounds.size(), 1u);
  ASSERT_EQ(r2.delay_bounds.size(), 1u);
  ASSERT_TRUE(r1.delay_bounds[0].bound.has_value());
  ASSERT_TRUE(r2.delay_bounds[0].bound.has_value());
  EXPECT_GT(*r2.delay_bounds[0].bound, *r1.delay_bounds[0].bound);
}

TEST(Analysis, PortabilityPreFlight) {
  // Non-linear rt/ls curves, an upper limit, a queue limit and an
  // interior class: only H-FSC expresses all of it.
  const Scenario sc = parse_text(
      "link 45Mbps\n"
      "duration 1s\n"
      "class org root ls linear 25Mbps\n"
      "class audio org rt udr 160 5ms 64kbps ls linear 64kbps\n"
      "class data org ls linear 20Mbps ul linear 22Mbps qlimit 50\n");
  const AnalysisReport r = analyze(sc);
  ASSERT_EQ(r.portability.size(), all_scheduler_kinds().size());
  for (const PortabilityEntry& e : r.portability) {
    EXPECT_TRUE(e.compiles) << to_string(e.kind);
    if (e.kind == SchedulerKind::kHfsc) {
      EXPECT_TRUE(e.lossless);
      EXPECT_TRUE(e.notes.empty());
    } else {
      EXPECT_FALSE(e.lossless) << to_string(e.kind);
      EXPECT_FALSE(e.notes.empty()) << to_string(e.kind);
    }
  }
}

TEST(Analysis, SpecLevelEntryPointHasNoProvenance) {
  HierarchySpec spec;
  HierarchySpec::ClassSpec c;
  c.name = "a";
  c.rt = c.ls = ServiceCurve::linear(mbps(20));
  c.env_burst = 1500;
  c.env_rate = mbps(20);
  spec.add(c);
  const AnalysisReport r = analyze(spec, mbps(10));
  EXPECT_FALSE(r.rt_feasible);
  const Diagnostic& d = find_diag(r, "rt-link-infeasible");
  EXPECT_EQ(d.loc.line, 0u);
  EXPECT_EQ(d.loc.to_string(), "<spec>");
  EXPECT_EQ(r.file, "");
}

TEST(Analysis, JsonReportCarriesTheSchema) {
  const Scenario sc = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root rt udr 160 10ms 64kbps ls linear 5Mbps\n"
      "envelope a 160 64kbps\n"
      "source cbr a 64kbps 160 0s 1s\n"
      "class b root ls linear 9Mbps\n"
      "source greedy b 1500 4 0s 1s\n");
  const std::string json = analyze(sc).to_json();
  for (const char* key :
       {"\"file\": \"mem.hfsc\"", "\"classes\": 2", "\"rt_feasible\": true",
        "\"rt_utilization\"", "\"diagnostics\": [", "\"delay_bounds\": [",
        "\"class\": \"a\"", "\"burst_bytes\": 160", "\"bound_ns\"",
        "\"bound_ms\"", "\"portability\": [", "\"family\": \"hfsc\"",
        "\"lossless\": true", "\"ls-oversubscribed\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

TEST(Analysis, CommittedScenariosAreClean) {
  for (const char* name : {"campus", "voip", "decoupling"}) {
    const Scenario sc = Scenario::parse_file(
        std::string(HFSC_SOURCE_DIR) + "/scenarios/" + name + ".hfsc");
    const AnalysisReport r = analyze(sc);
    EXPECT_TRUE(r.clean()) << name << ":\n" << r.to_text();
    EXPECT_TRUE(r.rt_feasible) << name;
    EXPECT_FALSE(r.delay_bounds.empty()) << name;
  }
}

TEST(Analysis, EnvelopeDirectiveParseErrors) {
  auto expect_fail = [](const std::string& text, const std::string& what) {
    try {
      parse_text(text);
      FAIL() << "expected parse failure: " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  expect_fail(
      "link 10Mbps\nduration 1s\nclass a root ls linear 1Mbps\n"
      "envelope b 160 64kbps\n",
      "mem.hfsc:4: unknown class b");
  expect_fail(
      "link 10Mbps\nduration 1s\nclass a root ls linear 1Mbps\n"
      "envelope a 160\n",
      "envelope needs <class> <burst> <rate>");
  expect_fail(
      "link 10Mbps\nduration 1s\nclass a root ls linear 1Mbps\n"
      "envelope a 160 64kbps\nenvelope a 320 64kbps\n",
      "mem.hfsc:5: duplicate envelope for class a");
  expect_fail(
      "link 10Mbps\nduration 1s\nclass a root ls linear 1Mbps\n"
      "envelope a 0 0bps\n",
      "envelope must have a non-zero burst or rate");
  expect_fail(
      "link 10Mbps\nduration 1s\nclass a root ls linear 1Mbps\n"
      "envelope a 160 64kbps extra\n",
      "trailing token: extra");
}

TEST(Analysis, TextReportShape) {
  const Scenario sc = parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root rt linear 6Mbps\n"
      "class b root rt linear 6Mbps\n");
  const std::string text = analyze(sc).to_text();
  EXPECT_NE(text.find("mem.hfsc:4: error: [rt-link-infeasible]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rt admissibility: INFEASIBLE"), std::string::npos);
  EXPECT_NE(text.find("summary: 1 error(s)"), std::string::npos);
}

}  // namespace
}  // namespace hfsc
