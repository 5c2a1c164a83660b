// Golden pins for the static analyzer's output: an FNV-1a-64 of
// analyze(sc).to_json() and of to_sarif({analyze(sc)}) for every shipped
// scenario and for a generated multi-node routed one
// (tests/scenario_gen.hpp).  The run_scenario pins in
// test_scenario_diff.cpp hold the simulator's bytes; these hold the
// analyzer's — every diagnostic, its order and file:line, every delay
// bound, flow budget and portability verdict.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
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
      {"scenarios/campus.hfsc", 0x4dcdf5ed47861ab2ull,
       0xf4eac2cc22e042bcull},
      {"scenarios/voip.hfsc", 0x2b0f19b7301cd8e7ull,
       0xf4eac2cc22e042bcull},
      {"scenarios/decoupling.hfsc", 0xab0246c771137197ull,
       0xf4eac2cc22e042bcull},
      {"scenarios/decoupling_vii.hfsc", 0x15593f14d29247eeull,
       0xf4eac2cc22e042bcull},
      {"scenarios/backbone.hfsc", 0x70ad5caeeb2fb3fcull,
       0x329a396ab08c5ef1ull},
      {"scenarios/churn_soak.hfsc", 0x023e153a4477f3f4ull,
       0x64eef75f6f4958e6ull},
      {"scenarios/overbudget.hfsc", 0xf5ced87be4baf36cull,
       0xbeb0a4e52313bb4full},
  };
  // Parsed under the repository-relative name, so the "file" fields the
  // pins hash do not depend on where the checkout lives.
  for (const AnalyzerPin& pin : pins) {
    std::ifstream in(std::string(HFSC_SOURCE_DIR) + "/" + pin.what);
    ASSERT_TRUE(in) << pin.what;
    expect_pinned(analyze(Scenario::parse(in, pin.what)), pin);
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
