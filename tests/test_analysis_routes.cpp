// Tests for the analyzer's end-to-end route budgets: min-plus
// composition along `route` chains, the route/deadline lint family
// (route-no-envelope, e2e-budget-exceeded, hop-backlog-over-qlimit,
// deadline-unverifiable), the v2 JSON flow rows and the SARIF writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "analysis/analyzer.hpp"
#include "sim/scenario.hpp"

namespace hfsc {
namespace {

Scenario parse_text(const std::string& text) {
  std::istringstream in(text);
  return Scenario::parse(in, "mem.hfsc");
}

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

// Two-hop scenario with an enveloped, deadlined voice flow.  The
// per-line layout is load-bearing: tests below assert exact lines.
const char* kTwoHop =
    "duration 1s\n"                                              // 1
    "node a 10Mbps\n"                                            // 2
    "  class voice root rt udr 160 5ms 256kbps ls linear 256kbps\n"
    "  envelope voice 160 256kbps\n"                             // 4
    "end\n"                                                      // 5
    "node b 10Mbps\n"                                            // 6
    "  class voice root rt udr 160 5ms 256kbps ls linear 256kbps\n"
    "end\n"                                                      // 8
    "route voice a b\n"                                          // 9
    "source cbr voice 256kbps 160 0s 1s\n"                       // 10
    "deadline voice 20ms\n";                                     // 11

TEST(AnalysisRoutes, RouteWalkComposesPerHopBudgets) {
  const AnalysisReport r = analyze(parse_text(kTwoHop));
  ASSERT_EQ(r.flows.size(), 1u);
  const FlowBudget& f = r.flows[0];
  EXPECT_EQ(f.cls, "voice");
  ASSERT_EQ(f.route.size(), 2u);
  EXPECT_EQ(f.route[0], "a");
  EXPECT_EQ(f.route[1], "b");
  EXPECT_EQ(f.env_burst, 160u);
  EXPECT_EQ(f.loc.file, "mem.hfsc");
  EXPECT_EQ(f.loc.line, 9u);
  ASSERT_EQ(f.hops.size(), 2u);
  ASSERT_TRUE(f.e2e_delay.has_value());
  ASSERT_TRUE(f.hops[0].delay.has_value());
  ASSERT_TRUE(f.hops[1].delay.has_value());
  ASSERT_TRUE(f.total_backlog.has_value());
  // Pay-bursts-only-once: the composed bound beats the per-hop sum.
  EXPECT_LT(*f.e2e_delay, sat_add(*f.hops[0].delay, *f.hops[1].delay));
  // ...but can never beat a single hop's own deviation against the
  // undeconvolved envelope minus the other hop's contribution entirely:
  // it must still exceed the first hop's bound (the second hop adds a
  // positive latency shift).
  EXPECT_GT(*f.e2e_delay, *f.hops[0].delay);
  // The downstream hop sees a deconvolved (slightly inflated) envelope.
  EXPECT_GE(f.hops[1].in_burst, f.hops[0].in_burst);
  ASSERT_TRUE(f.deadline.has_value());
  EXPECT_EQ(*f.deadline, msec(20));
  EXPECT_FALSE(has_diag(r, "e2e-budget-exceeded"));
}

TEST(AnalysisRoutes, BudgetExceededAnchorsAtTheDeadlineLine) {
  std::string text(kTwoHop);
  const auto pos = text.find("deadline voice 20ms");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("deadline voice 20ms").size(),
               "deadline voice 2ms");
  const AnalysisReport r = analyze(parse_text(text));
  const Diagnostic d = find_diag(r, "e2e-budget-exceeded");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.cls, "voice");
  EXPECT_EQ(d.loc.file, "mem.hfsc");
  EXPECT_EQ(d.loc.line, 11u);
  EXPECT_FALSE(r.clean());
  ASSERT_EQ(r.flows.size(), 1u);
  ASSERT_TRUE(r.flows[0].e2e_delay.has_value());
  EXPECT_GT(*r.flows[0].e2e_delay, msec(2));
}

TEST(AnalysisRoutes, RouteWithoutEnvelopeGetsANoteAtTheRouteLine) {
  std::string text(kTwoHop);
  const auto pos = text.find("  envelope voice 160 256kbps\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("  envelope voice 160 256kbps\n").size(), 1,
               '\n');  // keep the line count stable
  const auto dpos = text.find("deadline voice 20ms\n");
  ASSERT_NE(dpos, std::string::npos);
  text.erase(dpos);
  const AnalysisReport r = analyze(parse_text(text));
  const Diagnostic d = find_diag(r, "route-no-envelope");
  EXPECT_EQ(d.severity, Severity::kNote);
  EXPECT_EQ(d.loc.line, 9u);
  EXPECT_TRUE(r.flows.empty());
}

TEST(AnalysisRoutes, DeadlineOnRoutedFlowWithoutEnvelopeIsUnverifiable) {
  std::string text(kTwoHop);
  const auto pos = text.find("  envelope voice 160 256kbps\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("  envelope voice 160 256kbps\n").size(), 1,
               '\n');
  const AnalysisReport r = analyze(parse_text(text));
  const Diagnostic d = find_diag(r, "deadline-unverifiable");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.loc.line, 11u);
}

TEST(AnalysisRoutes, HopWithoutRtMakesTheBudgetUnbounded) {
  std::string text(kTwoHop);
  const auto pos =
      text.find("  class voice root rt udr 160 5ms 256kbps ls linear 256kbps\n",
                text.find("node b"));
  ASSERT_NE(pos, std::string::npos);
  text.replace(
      pos,
      std::string(
          "  class voice root rt udr 160 5ms 256kbps ls linear 256kbps\n")
          .size(),
      "  class voice root ls linear 256kbps\n");
  const AnalysisReport r = analyze(parse_text(text));
  EXPECT_TRUE(has_diag(r, "route-hop-without-rt"));
  // An unbounded flow cannot meet any deadline.
  EXPECT_TRUE(has_diag(r, "e2e-budget-exceeded"));
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_FALSE(r.flows[0].e2e_delay.has_value());
  EXPECT_FALSE(r.flows[0].total_backlog.has_value());
}

TEST(AnalysisRoutes, HopBacklogOverQlimitFiresAtTheClassLine) {
  // qlimit 1 on the second hop: even the ~200 B propagated burst needs
  // two 160 B packets of headroom.
  std::string text(kTwoHop);
  const auto pos =
      text.find("  class voice root rt udr 160 5ms 256kbps ls linear 256kbps\n",
                text.find("node b"));
  ASSERT_NE(pos, std::string::npos);
  text.replace(
      pos,
      std::string(
          "  class voice root rt udr 160 5ms 256kbps ls linear 256kbps\n")
          .size(),
      "  class voice root rt udr 160 5ms 256kbps ls linear 256kbps "
      "qlimit 1\n");
  const AnalysisReport r = analyze(parse_text(text));
  const Diagnostic d = find_diag(r, "hop-backlog-over-qlimit");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.cls, "b.voice");
  EXPECT_EQ(d.loc.line, 7u);
}

TEST(AnalysisRoutes, DeadlineOnUnroutedClassChecksTheoremTwoBound) {
  const AnalysisReport over = analyze(parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root rt udr 160 5ms 256kbps ls linear 256kbps\n"
      "envelope a 160 256kbps\n"
      "source cbr a 256kbps 160 0s 1s\n"
      "deadline a 1ms\n"));
  const Diagnostic d = find_diag(over, "e2e-budget-exceeded");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.loc.line, 6u);

  const AnalysisReport ok = analyze(parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root rt udr 160 5ms 256kbps ls linear 256kbps\n"
      "envelope a 160 256kbps\n"
      "source cbr a 256kbps 160 0s 1s\n"
      "deadline a 50ms\n"));
  EXPECT_FALSE(has_diag(ok, "e2e-budget-exceeded"));

  const AnalysisReport unverifiable = analyze(parse_text(
      "link 10Mbps\n"
      "duration 1s\n"
      "class a root ls linear 256kbps\n"
      "source cbr a 256kbps 160 0s 1s\n"
      "deadline a 50ms\n"));
  const Diagnostic u = find_diag(unverifiable, "deadline-unverifiable");
  EXPECT_EQ(u.severity, Severity::kWarning);
  EXPECT_EQ(u.loc.line, 5u);
}

TEST(AnalysisRoutes, JsonV2CarriesSchemaAndFlowRows) {
  const std::string json = analyze(parse_text(kTwoHop)).to_json();
  for (const char* key :
       {"\"schema\": \"hfsc-lint-report-v2\"", "\"flows\": [",
        "\"class\": \"voice\"", "\"route\": [\"a\",\"b\"]",
        "\"env_burst_bytes\": 160", "\"e2e_bound_ns\"", "\"e2e_bound_ms\"",
        "\"total_backlog_bytes\"", "\"deadline_ms\": 20",
        "\"hops\": [", "\"node\": \"a\"", "\"node\": \"b\"",
        "\"in_burst_bytes\"", "\"delay_ms\"", "\"backlog_bytes\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

TEST(AnalysisRoutes, SarifReportShape) {
  std::string text(kTwoHop);
  const auto pos = text.find("deadline voice 20ms");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("deadline voice 20ms").size(),
               "deadline voice 2ms");
  const std::string sarif = to_sarif({analyze(parse_text(text))});
  for (const char* key :
       {"\"version\": \"2.1.0\"", "\"name\": \"hfsc_lint\"",
        "\"rules\": [", "{\"id\": \"e2e-budget-exceeded\"}",
        "\"ruleId\": \"e2e-budget-exceeded\"", "\"level\": \"error\"",
        "\"uri\": \"mem.hfsc\"", "\"startLine\": 11"}) {
    EXPECT_NE(sarif.find(key), std::string::npos) << key << "\n" << sarif;
  }
  // An empty report set is still a valid document.
  const std::string empty = to_sarif({});
  EXPECT_NE(empty.find("\"results\": []"), std::string::npos) << empty;
}

TEST(AnalysisRoutes, CommittedBackboneHasBudgetRowsAndMeetsItsDeadline) {
  const Scenario sc = Scenario::parse_file(std::string(HFSC_SOURCE_DIR) +
                                           "/scenarios/backbone.hfsc");
  const AnalysisReport r = analyze(sc);
  EXPECT_TRUE(r.clean()) << r.to_text();
  ASSERT_EQ(r.flows.size(), 1u);  // web has no envelope -> note, no row
  const FlowBudget& f = r.flows[0];
  EXPECT_EQ(f.cls, "voice");
  ASSERT_EQ(f.hops.size(), 2u);
  ASSERT_TRUE(f.e2e_delay.has_value());
  ASSERT_TRUE(f.deadline.has_value());
  EXPECT_LE(*f.e2e_delay, *f.deadline);
  EXPECT_TRUE(has_diag(r, "route-no-envelope"));
}

TEST(AnalysisRoutes, CommittedOverbudgetFixtureFiresWithExactLocation) {
  const std::string path =
      std::string(HFSC_SOURCE_DIR) + "/scenarios/overbudget.hfsc";
  const AnalysisReport r = analyze(Scenario::parse_file(path));
  const Diagnostic d = find_diag(r, "e2e-budget-exceeded");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.loc.file, path);
  EXPECT_EQ(d.loc.line, 28u);  // the `deadline voice 2ms` directive
  EXPECT_FALSE(r.clean());
}

TEST(AnalysisRoutes, AnalyzerAcceptsEveryShippedScenarioForm) {
  // Satellite lock-in: single-node `link` files, multi-node `node`/
  // `route` files and timed-churn `at` files all flow through analyze().
  for (const char* name :
       {"campus", "voip", "decoupling", "decoupling_vii", "churn_soak",
        "backbone"}) {
    const Scenario sc = Scenario::parse_file(
        std::string(HFSC_SOURCE_DIR) + "/scenarios/" + name + ".hfsc");
    const AnalysisReport r = analyze(sc);
    EXPECT_TRUE(r.clean()) << name << ":\n" << r.to_text();
    EXPECT_GT(r.num_classes, 0u) << name;
  }
}

}  // namespace
}  // namespace hfsc
