// Control-plane scale gate: parsing a scenario, analyzing it and
// compiling its hierarchy must cost time in proportion to the class
// count.  A per-class scan of every class (a name lookup, a leaf test, a
// spec rebuilt per route hop) makes the 100k-class rows below take
// minutes, which this ctest row's explicit TIMEOUT (tests/CMakeLists.txt)
// turns into a failure, and makes doubling the class count cost about
// four times as much, which the ratio rows catch at any speed.  The
// last rows hold parsing and analyzing a many-node file, and rendering
// a many-node report, to the same ratio.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ctime>
#include <sstream>
#include <string>

#include "analysis/analyzer.hpp"
#include "config/hierarchy_spec.hpp"
#include "scenario_gen.hpp"
#include "sim/scenario.hpp"

namespace hfsc {
namespace {

struct Pipeline {
  Scenario sc;
  AnalysisReport report;
  HierarchySpec::Compiled compiled;
  ScenarioResult run;
};

double seconds_since(std::clock_t t0) {
  return static_cast<double>(std::clock() - t0) / CLOCKS_PER_SEC;
}

// The pipeline's stages, in order, and the processor time of each.
constexpr std::array<const char*, 4> kStages = {"parse", "analyze",
                                                "compile", "run"};
using StageSeconds = std::array<double, kStages.size()>;

// What hfsc_lint and hfsc_sim do with a file: parse, analyze (with the
// portability pre-flight's seven compiles), compile for H-FSC, and run.
// With `stages`, records each stage's processor time there.
Pipeline run_pipeline(const std::string& text,
                      StageSeconds* stages = nullptr) {
  Pipeline p;
  std::size_t stage = 0;
  std::clock_t t0 = std::clock();
  const auto lap = [&] {
    if (stages != nullptr) (*stages)[stage++] = seconds_since(t0);
    t0 = std::clock();
  };
  std::istringstream in(text);
  p.sc = Scenario::parse(in, "generated.hfsc");
  lap();
  p.report = analyze(p.sc);
  lap();
  const ScenarioNode& link = p.sc.nodes.front();
  p.compiled = link.spec.compile(SchedulerKind::kHfsc, link.rate);
  lap();
  p.run = run_scenario(p.sc);
  lap();
  return p;
}

void expect_sound(const Pipeline& p, std::size_t n) {
  EXPECT_EQ(p.sc.nodes.front().spec.classes.size(), n);
  EXPECT_EQ(p.report.num_classes, n);
  EXPECT_EQ(p.report.errors(), 0u);
  EXPECT_TRUE(p.report.rt_feasible);
  EXPECT_FALSE(p.report.delay_bounds.empty());
  EXPECT_EQ(p.compiled.ids.size(), n);
  EXPECT_TRUE(p.run.conserved());
  EXPECT_GT(p.run.sent(), 0u);
}

TEST(ControlPlaneScale, HundredThousandFlatClasses) {
  constexpr std::size_t kClasses = 100'000;
  const Pipeline p = run_pipeline(testgen::flat_scenario(kClasses));
  expect_sound(p, kClasses);
  EXPECT_EQ(p.run.per_class.size(), kClasses);
}

TEST(ControlPlaneScale, HundredThousandClassFourAryTree) {
  constexpr std::size_t kClasses = 100'000;
  const Pipeline p = run_pipeline(testgen::deep_scenario(kClasses));
  expect_sound(p, kClasses);
  // 75k leaves under 25k interior classes, eight levels deep.
  EXPECT_EQ(p.run.per_class.size(), kClasses - (kClasses - 1) / 4);
}

// Processor time of one pipeline: unlike wall time, it does not count
// the time other processes (ctest -j runs suites side by side) hold the
// CPU.  Each stage's share goes to `stages`.
double cpu_seconds(const std::string& text, StageSeconds& stages) {
  const std::clock_t t0 = std::clock();
  (void)run_pipeline(text, &stages);
  return seconds_since(t0);
}

TEST(ControlPlaneScale, DoublingTheClassesDoublesTheCost) {
  // Linear work reads about 2 (a little more for the O(n log n) maps and
  // a working set that outgrows the caches); a quadratic reader reads
  // about 4.  Each size keeps its fastest of several interleaved runs:
  // cache and memory contention from the rest of the host only ever
  // adds time.  Each stage's ratio (of its own fastest runs) is recorded
  // too, so a failure names the stage that grew.
  constexpr std::size_t kN = 10'000;
  for (const bool deep : {false, true}) {
    SCOPED_TRACE(deep ? "4-ary tree" : "flat");
    const std::string one =
        deep ? testgen::deep_scenario(kN) : testgen::flat_scenario(kN);
    const std::string two = deep ? testgen::deep_scenario(2 * kN)
                                 : testgen::flat_scenario(2 * kN);
    double t1 = 1e30;
    double t2 = 1e30;
    StageSeconds s1;
    StageSeconds s2;
    s1.fill(1e30);
    s2.fill(1e30);
    for (int rep = 0; rep < 5; ++rep) {
      StageSeconds one_stages;
      StageSeconds two_stages;
      t1 = std::min(t1, cpu_seconds(one, one_stages));
      t2 = std::min(t2, cpu_seconds(two, two_stages));
      for (std::size_t i = 0; i < kStages.size(); ++i) {
        s1[i] = std::min(s1[i], one_stages[i]);
        s2[i] = std::min(s2[i], two_stages[i]);
      }
    }
    const std::string shape = deep ? "deep" : "flat";
    RecordProperty(shape + "_ratio", std::to_string(t2 / t1));
    std::string by_stage;
    for (std::size_t i = 0; i < kStages.size(); ++i) {
      // A stage too fast for the clock to resolve reads as ratio 0.
      const double ratio = s1[i] > 0 ? s2[i] / s1[i] : 0.0;
      RecordProperty(shape + "_" + kStages[i] + "_ratio",
                     std::to_string(ratio));
      by_stage += std::string(" ") + kStages[i] + " " +
                  std::to_string(ratio);
    }
    EXPECT_LT(t2 / t1, 3.0) << "N = " << kN << ": " << t1 << " s, 2N: " << t2
                            << " s; by stage:" << by_stage;
  }
}

TEST(ControlPlaneScale, DoublingTheNodesDoublesTheParseAndAnalyzeCost) {
  // Each node owns its classes, so a class is found by name through its
  // own node; a lookup that scanned every node's classes reads about 4
  // here, the per-node layout about 2.
  constexpr std::size_t kNodes = 2'000;
  auto parse_analyze_seconds = [](const std::string& text,
                                  std::size_t nodes) {
    const std::clock_t t0 = std::clock();
    std::istringstream in(text);
    const Scenario sc = Scenario::parse(in, "generated.hfsc");
    const AnalysisReport report = analyze(sc);
    const double took =
        static_cast<double>(std::clock() - t0) / CLOCKS_PER_SEC;
    EXPECT_EQ(sc.nodes.size(), nodes);
    EXPECT_EQ(report.num_classes, 10 * nodes);
    return took;
  };
  const std::string one = testgen::many_node_scenario(kNodes);
  const std::string two = testgen::many_node_scenario(2 * kNodes);
  double t1 = 1e30;
  double t2 = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    t1 = std::min(t1, parse_analyze_seconds(one, kNodes));
    t2 = std::min(t2, parse_analyze_seconds(two, 2 * kNodes));
  }
  RecordProperty("parse_analyze_ratio", std::to_string(t2 / t1));
  EXPECT_LT(t2 / t1, 3.0) << kNodes << " nodes: " << t1 << " s, "
                          << 2 * kNodes << " nodes: " << t2 << " s";
}

TEST(ControlPlaneScale, DoublingTheNodesDoublesTheRenderCost) {
  // The report of a run with many nodes: to_table and to_json must group
  // the class rows by node in one pass.  Filtering every class row once
  // per node reads above 5 here; the linear renderer about 2.
  constexpr std::size_t kNodes = 2'000;
  auto run = [](std::size_t nodes) {
    std::istringstream in(testgen::many_node_scenario(nodes));
    return run_scenario(Scenario::parse(in, "generated.hfsc"));
  };
  const ScenarioResult one = run(kNodes);
  const ScenarioResult two = run(2 * kNodes);
  ASSERT_EQ(one.per_class.size(), 10 * kNodes);
  ASSERT_EQ(two.per_class.size(), 20 * kNodes);
  auto render_seconds = [](const ScenarioResult& r) {
    const std::clock_t t0 = std::clock();
    const std::size_t bytes = r.to_table().size() + r.to_json().size();
    EXPECT_GT(bytes, 0u);
    return static_cast<double>(std::clock() - t0) / CLOCKS_PER_SEC;
  };
  double t1 = 1e30;
  double t2 = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    t1 = std::min(t1, render_seconds(one));
    t2 = std::min(t2, render_seconds(two));
  }
  RecordProperty("render_ratio", std::to_string(t2 / t1));
  EXPECT_LT(t2 / t1, 3.0) << kNodes << " nodes: " << t1 << " s, "
                          << 2 * kNodes << " nodes: " << t2 << " s";
}

}  // namespace
}  // namespace hfsc
