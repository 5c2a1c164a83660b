// Golden pins for the static analyzer's output: an FNV-1a-64 of
// analyze(sc).to_json() and of to_sarif({analyze(sc)}) for every shipped
// scenario and for a generated multi-node routed one
// (tests/scenario_gen.hpp).  The run_scenario pins in
// test_scenario_diff.cpp hold the simulator's bytes; these hold the
// analyzer's — every diagnostic, its order and file:line, every delay
// bound, flow budget and portability verdict.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "analysis/analyzer.hpp"
#include "scenario_gen.hpp"
#include "sim/scenario.hpp"
#include "util/hash.hpp"

namespace hfsc {
namespace {

struct AnalyzerPin {
  const char* what;
  std::uint64_t json_fnv;
  std::uint64_t sarif_fnv;
};

void expect_pinned(const AnalysisReport& r, const AnalyzerPin& pin) {
  SCOPED_TRACE(pin.what);
  const std::uint64_t json = fnv1a64(r.to_json());
  const std::uint64_t sarif = fnv1a64(to_sarif({r}));
  EXPECT_EQ(json, pin.json_fnv) << std::hex << "actual 0x" << json;
  EXPECT_EQ(sarif, pin.sarif_fnv) << std::hex << "actual 0x" << sarif;
}

TEST(AnalysisPins, ShippedScenariosMatchGoldenPins) {
  const AnalyzerPin pins[] = {
      {"scenarios/campus.hfsc", 0x1804f1ab999bb1b7ull,
       0xf4eac2cc22e042bcull},
      {"scenarios/voip.hfsc", 0xb94b028242385732ull,
       0xf4eac2cc22e042bcull},
      {"scenarios/decoupling.hfsc", 0x03b1378fbcb38d2cull,
       0xf4eac2cc22e042bcull},
      {"scenarios/decoupling_vii.hfsc", 0x6fb8e08d9ec1d20bull,
       0xf4eac2cc22e042bcull},
      {"scenarios/backbone.hfsc", 0xf21e795feeb4987cull,
       0xa37f915ed6881fe6ull},
      {"scenarios/churn_soak.hfsc", 0xe2e363ea0f4a839bull,
       0x2c8e00361f232e14ull},
      {"scenarios/overbudget.hfsc", 0x774cb94c80adb313ull,
       0xb82e6947a6d9c895ull},
  };
  for (const AnalyzerPin& pin : pins) {
    expect_pinned(analyze(Scenario::parse_file(std::string(HFSC_SOURCE_DIR) +
                                               "/" + pin.what)),
                  pin);
  }
}

TEST(AnalysisPins, GeneratedRoutedScenarioMatchesGoldenPin) {
  std::istringstream in(testgen::routed_scenario(7));
  const Scenario sc = Scenario::parse(in, "routed7.hfsc");
  ASSERT_EQ(sc.nodes.size(), 4u);
  // The pin is only worth its bytes if the scenario reaches the route
  // walk's diagnostics and budgets.
  const AnalysisReport r = analyze(sc);
  EXPECT_GT(r.flows.size(), 10u);
  EXPECT_GT(r.errors(), 0u);
  EXPECT_GT(r.warnings(), 0u);
  for (const char* id :
       {"route-no-envelope", "route-hop-without-rt", "hop-backlog-over-qlimit",
        "e2e-budget-exceeded", "deadline-unverifiable", "rt-ul-infeasible",
        "rt-on-interior", "ls-oversubscribed", "qlimit-unbounded",
        "envelope-on-interior", "envelope-without-rt",
        "timed-events-unanalyzed"}) {
    bool seen = false;
    for (const Diagnostic& d : r.diagnostics) seen = seen || d.id == id;
    EXPECT_TRUE(seen) << "generated scenario lost diagnostic " << id;
  }
  expect_pinned(r, {"routed_scenario(7)", 0xb31e53713cbde6bcull,
                     0xf6bf93873a597e63ull});
}

}  // namespace
}  // namespace hfsc
