// Tests for the scenario language: unit parsing, directive parsing,
// error reporting, and end-to-end runs (including the shipped scenario
// files).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/scenario.hpp"

namespace hfsc {
namespace {

TEST(ScenarioUnits, Rates) {
  EXPECT_EQ(parse_rate("64kbps"), kbps(64));
  EXPECT_EQ(parse_rate("10Mbps"), mbps(10));
  EXPECT_EQ(parse_rate("1Gbps"), gbps(1));
  EXPECT_EQ(parse_rate("800bps"), 100u);
  EXPECT_EQ(parse_rate("2.5Mbps"), 312'500u);
  EXPECT_THROW(parse_rate("10"), std::runtime_error);
  EXPECT_THROW(parse_rate("fast"), std::runtime_error);
  EXPECT_THROW(parse_rate("10MBps"), std::runtime_error);
  // A digit-and-dot prefix that is not one numeral is malformed, not
  // truncated to its first numeral.
  EXPECT_THROW(parse_rate("1.2.3Mbps"), std::runtime_error);
  EXPECT_THROW(parse_rate("1..5Mbps"), std::runtime_error);
  EXPECT_THROW(parse_rate(".Mbps"), std::runtime_error);
}

TEST(ScenarioUnits, Times) {
  EXPECT_EQ(parse_time("5ms"), msec(5));
  EXPECT_EQ(parse_time("10s"), sec(10));
  EXPECT_EQ(parse_time("250us"), usec(250));
  EXPECT_EQ(parse_time("100ns"), 100u);
  EXPECT_EQ(parse_time("0.5s"), msec(500));
  EXPECT_THROW(parse_time("5"), std::runtime_error);
  EXPECT_THROW(parse_time("5minutes"), std::runtime_error);
  EXPECT_THROW(parse_time("1..5s"), std::runtime_error);
  EXPECT_THROW(parse_time("1.2.3ms"), std::runtime_error);
}

TEST(ScenarioUnits, Bytes) {
  EXPECT_EQ(parse_bytes("1500"), 1500u);
  EXPECT_THROW(parse_bytes("1500B"), std::runtime_error);
  EXPECT_THROW(parse_bytes("-1"), std::runtime_error);
}

TEST(ScenarioParse, MinimalScenario) {
  std::istringstream in(R"(
link 10Mbps
duration 1s
class a root ls linear 10Mbps
source cbr a 1Mbps 1000 0s 1s
)");
  const Scenario sc = Scenario::parse(in);
  ASSERT_EQ(sc.nodes.size(), 1u);
  EXPECT_EQ(sc.nodes[0].rate, mbps(10));
  EXPECT_EQ(sc.duration, sec(1));
  const std::vector<HierarchySpec::ClassSpec>& classes =
      sc.nodes[0].spec.classes;
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].name, "a");
  EXPECT_EQ(classes[0].ls, ServiceCurve::linear(mbps(10)));
  EXPECT_EQ(classes[0].line, 4u);
  ASSERT_EQ(sc.sources.size(), 1u);
  EXPECT_EQ(sc.sources[0].kind, ScenarioSource::Kind::kCbr);
}

TEST(ScenarioParse, FullClassAttributes) {
  std::istringstream in(R"(
link 10Mbps
duration 1s
class org root ls linear 10Mbps
class a org rt udr 160 5ms 64kbps ls linear 64kbps ul linear 1Mbps qlimit 50
)");
  const Scenario sc = Scenario::parse(in);
  ASSERT_EQ(sc.nodes[0].spec.classes.size(), 2u);
  const HierarchySpec::ClassSpec& a = sc.nodes[0].spec.classes[1];
  EXPECT_EQ(a.parent, "org");
  EXPECT_EQ(a.rt, from_udr(160, msec(5), kbps(64)));
  EXPECT_EQ(a.ul, ServiceCurve::linear(mbps(1)));
  EXPECT_EQ(a.qlimit, 50u);
}

TEST(ScenarioParse, ErrorsCarryLineNumbers) {
  auto expect_error = [](const char* text, const char* needle) {
    std::istringstream in(text);
    try {
      (void)Scenario::parse(in);
      FAIL() << "expected parse error containing '" << needle << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("link 10Mbps\nduration 1s\nbogus x\n", "unknown directive");
  expect_error("link 10Mbps\nduration 1s\nclass a nosuch ls linear 1Mbps\n",
               "unknown parent");
  expect_error("link 10Mbps\nduration 1s\nclass a root ls linear 1Mbps\n"
               "class a root ls linear 1Mbps\n",
               "duplicate class");
  expect_error("link 10Mbps\nduration 1s\nclass a root qlimit 5\n",
               "at least one of rt/ls");
  expect_error("link 10Mbps\nduration 1s\nclass root root ls linear 1Mbps\n",
               "scenario line 3: invalid argument: 'root' is reserved");
  expect_error("link 10Mbps\nduration 1s\nclass a root ls linear 1Mbps\n"
               "source cbr b 1Mbps 100 0s 1s\n",
               "unknown class");
  expect_error("link 10Mbps\nduration 1s\nclass a root ls linear 1Mbps\n"
               "source cbr a 1Mbps 100 0s 1s extra\n",
               "trailing token");
  expect_error("link 10Mbps\nduration 1s\n"
               "class a root ls curve 1Mbps 5ms 2Mbps\n",
               "unsupported curve shape");
  expect_error("duration 1s\nclass a root ls linear 1Mbps\n", "missing link");
  expect_error("link 1Mbps\nclass a root ls linear 1Mbps\n",
               "missing duration");
  // Bad numbers fail at their line instead of escaping untyped, hanging
  // the run or reaching an undefined integer cast.
  const std::string video = "link 10Mbps\nduration 1s\n"
                            "class v root ls linear 1Mbps\nsource video v ";
  expect_error((video + "fast 8000 16000 1500 0s 1s 1\n").c_str(),
               "scenario line 4: bad fps: fast");
  expect_error((video + "0 8000 16000 1500 0s 1s 1\n").c_str(),
               "scenario line 4: video fps out of range");
  expect_error((video + "-25 8000 16000 1500 0s 1s 1\n").c_str(),
               "scenario line 4: video fps out of range");
  expect_error((video + "inf 8000 16000 1500 0s 1s 1\n").c_str(),
               "scenario line 4: bad fps: inf");
  expect_error((video + "25 8000 16000 0 0s 1s 1\n").c_str(),
               "scenario line 4: video mtu must be > 0");
  expect_error((video + "25 16001 16000 1500 0s 1s 1\n").c_str(),
               "scenario line 4: video mean_frame exceeds max_frame");
  const std::string pareto = "link 10Mbps\nduration 1s\n"
                             "class p root ls linear 1Mbps\nsource pareto p "
                             "2Mbps 1000 10ms 10ms ";
  expect_error((pareto + "heavy 0s 1s 1\n").c_str(),
               "scenario line 4: bad alpha: heavy");
  expect_error((pareto + "inf 0s 1s 1\n").c_str(),
               "scenario line 4: bad alpha: inf");
  expect_error("link 10Mbps\nduration 1s\nclass a root ls linear 1Mbps\n"
               "source cbr a 1Mbps 0 0s 1s\n",
               "scenario line 4: source pkt must be > 0");
  expect_error("link 100000000000000000000000000Gbps\nduration 1s\n"
               "class a root ls linear 1Mbps\n",
               "rate out of range: 100000000000000000000000000Gbps");
  expect_error("link 10Mbps\nduration 100000000000000000000s\n"
               "class a root ls linear 1Mbps\n",
               "time out of range: 100000000000000000000s");
  // Extra dots used to truncate the numeral: `1..5s` ran for 1 s and
  // `1.2.3Mbps` became 1.2 Mb/s.
  expect_error("link 10Mbps\nduration 1..5s\nclass a root ls linear 1Mbps\n",
               "scenario line 2: bad time: 1..5s");
  expect_error("link 10Mbps\nduration 1s\nclass a root ls linear 1.2.3Mbps\n",
               "scenario line 3: bad rate: 1.2.3Mbps");
  // `shard` is not a class attribute: it fails at its line like any
  // other unknown one.
  expect_error("link 10Mbps\nduration 1s\n"
               "class a root ls linear 1Mbps shard 1\n",
               "scenario line 3: unknown class attribute: shard");
  // Rates floor to whole bytes/s, so anything under 8 b/s is zero.  A
  // zero link or node rate used to surface later as an unplaced
  // "missing link" or an analyzer/simulator argument error; a zero source
  // rate or greedy window sent one packet or none (and tripped the
  // source constructors' asserts).
  expect_error("link 7bps\nduration 1s\nclass a root ls linear 1Mbps\n",
               "scenario line 1: link rate must be at least 8bps: 7bps");
  expect_error("link 0bps\nduration 1s\nclass a root ls linear 1Mbps\n",
               "scenario line 1: link rate must be at least 8bps: 0bps");
  expect_error("duration 1s\nnode n 7bps\nclass a root ls linear 1Mbps\n"
               "end\n",
               "scenario line 2: node rate must be at least 8bps: 7bps");
  const std::string src = "link 10Mbps\nduration 1s\n"
                          "class a root ls linear 1Mbps\n";
  expect_error((src + "source cbr a 0bps 1000 0s 100ms\n").c_str(),
               "scenario line 4: source rate must be at least 8bps: 0bps");
  expect_error((src + "source poisson a 7bps 1000 0s 100ms 1\n").c_str(),
               "scenario line 4: source rate must be at least 8bps: 7bps");
  expect_error((src + "source onoff a 0bps 1000 5ms 5ms 0s 100ms 1\n").c_str(),
               "scenario line 4: source peak rate must be at least 8bps");
  expect_error(
      (src + "source pareto a 0bps 1000 5ms 5ms 1.5 0s 100ms 1\n").c_str(),
      "scenario line 4: source peak rate must be at least 8bps");
  expect_error((src + "at 5ms source cbr a 0bps 1000\n").c_str(),
               "scenario line 4: source rate must be at least 8bps");
  expect_error((src + "source greedy a 1500 0 0s 100ms\n").c_str(),
               "scenario line 4: greedy window must be > 0");
  // A zero throughput window divided by zero in the run (SIGFPE); a zero
  // mean on-period never sent, and with a zero off-period stepped the
  // clock 1 ns per event.  A zero duration was an unplaced "missing
  // duration".
  expect_error("link 10Mbps\nduration 1s\nwindow 0s\n"
               "class a root ls linear 1Mbps\n",
               "scenario line 3: window must be at least 1ns: 0s");
  expect_error("link 10Mbps\nduration 0s\nclass a root ls linear 1Mbps\n",
               "scenario line 2: duration must be at least 1ns: 0s");
  expect_error((src + "source onoff a 2Mbps 1000 0s 0s 0s 100ms 1\n").c_str(),
               "scenario line 4: source mean_on must be at least 1ns: 0s");
  expect_error(
      (src + "source pareto a 2Mbps 1000 0s 0s 1.5 0s 100ms 1\n").c_str(),
      "scenario line 4: source mean_on must be at least 1ns: 0s");
}

TEST(ScenarioParse, SourceWindowsAboveTheCapFailAtTheirLine) {
  // A greedy source enqueues its whole window at its start time: a
  // window of 2^32 packets used to run out of memory and escape the run
  // as an untyped std::bad_alloc.
  const std::string src = "link 10Mbps\nduration 1s\n"
                          "class a root ls linear 1Mbps\n";
  auto error_of = [](const std::string& text) -> std::string {
    std::istringstream in(text);
    try {
      (void)Scenario::parse(in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "parsed";
  };
  EXPECT_EQ(error_of(src + "source greedy a 1500 4294967296 0s 1s\n"),
            "scenario line 4: greedy window exceeds 1048576 packets: "
            "4294967296");
  EXPECT_EQ(error_of(src + "source greedy a 1500 1048577 0s 1s\n"),
            "scenario line 4: greedy window exceeds 1048576 packets: 1048577");
  EXPECT_EQ(error_of(src + "at 5ms source greedy a 1500 4294967296\n"),
            "scenario line 4: greedy window exceeds 1048576 packets: "
            "4294967296");
  EXPECT_EQ(error_of(src + "source tcpish a 1500 1048577 0s 1s\n"),
            "scenario line 4: tcpish max window exceeds 1048576 packets: "
            "1048577");
  EXPECT_EQ(error_of(src + "source tcpish a 1500 0 0s 1s\n"),
            "scenario line 4: tcpish max window must be > 0");
  EXPECT_EQ(error_of(src + "source greedy a 1500 1048576 0s 1s\n"), "parsed");
  EXPECT_EQ(error_of(src + "source tcpish a 1500 1048576 0s 1s\n"), "parsed");
}

TEST(ScenarioParse, RejectsZeroRateServiceCurves) {
  auto expect_error = [](const char* text, const char* needle) {
    std::istringstream in(text);
    try {
      (void)Scenario::parse(in);
      FAIL() << "expected parse error containing '" << needle << "'";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      // The message must carry the offending line number (line 3 below).
      EXPECT_NE(what.find("3"), std::string::npos) << what;
    }
  };
  expect_error("link 10Mbps\nduration 1s\nclass a root ls linear 0bps\n",
               "zero-rate service curve");
  expect_error("link 10Mbps\nduration 1s\n"
               "class a root rt curve 0bps 5ms 0bps\n",
               "zero-rate service curve");
  expect_error("link 10Mbps\nduration 1s\n"
               "class a root rt udr 0 5ms 0bps ls linear 1Mbps\n",
               "zero-rate service curve");
}

TEST(ScenarioParse, RejectsDuplicateClassNamesAcrossParents) {
  std::istringstream in(R"(
link 10Mbps
duration 1s
class org1 root ls linear 5Mbps
class org2 root ls linear 5Mbps
class a org1 ls linear 1Mbps
class a org2 ls linear 1Mbps
)");
  try {
    (void)Scenario::parse(in);
    FAIL() << "expected duplicate-class parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate class"), std::string::npos) << what;
    EXPECT_NE(what.find("7"), std::string::npos) << what;  // line number
  }
}

// A child declared before its parent is the order the spec compiler can
// never satisfy; the error must carry the file AND the line so a batch
// run points straight at the offending declaration.
TEST(ScenarioParse, ChildBeforeParentCarriesFileAndLine) {
  const std::string path = ::testing::TempDir() + "hfsc_orphan_scenario.hfsc";
  {
    std::ofstream out(path);
    out << "link 10Mbps\nduration 1s\n"
           "class leaf org ls linear 1Mbps\n"   // line 3: org not yet known
           "class org root ls linear 5Mbps\n";
  }
  try {
    (void)Scenario::parse_file(path);
    FAIL() << "expected child-before-parent parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":3:"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown parent class org"), std::string::npos)
        << what;
  }
  std::remove(path.c_str());
}

TEST(ScenarioParse, DuplicateClassCarriesFileAndLine) {
  const std::string path = ::testing::TempDir() + "hfsc_dup_scenario.hfsc";
  {
    std::ofstream out(path);
    out << "link 10Mbps\nduration 1s\n"
           "class a root ls linear 1Mbps\n"
           "class a root ls linear 2Mbps\n";  // line 4
  }
  try {
    (void)Scenario::parse_file(path);
    FAIL() << "expected duplicate-class parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":4:"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate class a"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(ScenarioParse, SchedulerDirective) {
  std::istringstream in(R"(
link 10Mbps
duration 1s
scheduler cbq
class a root ls linear 10Mbps
)");
  const Scenario sc = Scenario::parse(in);
  EXPECT_EQ(sc.scheduler, SchedulerKind::kCbq);
}

TEST(ScenarioParse, UnknownSchedulerKindCarriesTheLine) {
  std::istringstream in("link 10Mbps\nduration 1s\nscheduler wfq\n");
  try {
    (void)Scenario::parse(in);
    FAIL() << "expected unknown-scheduler parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown scheduler kind: wfq"), std::string::npos)
        << what;
    EXPECT_NE(what.find("3"), std::string::npos) << what;
  }
}

TEST(ScenarioParse, FileErrorsCarryTheFileName) {
  const std::string path = ::testing::TempDir() + "hfsc_bad_scenario.hfsc";
  {
    std::ofstream out(path);
    out << "link 10Mbps\nduration 1s\nbogus x\n";
  }
  try {
    (void)Scenario::parse_file(path);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    // file:line: message — greppable straight into an editor.
    EXPECT_NE(what.find(path + ":3:"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown directive"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(ScenarioRun, AdmissionExceedingScenarioFailsWithOneLineError) {
  // 8 + 7 Mb/s of rt guarantees on a 10 Mb/s link: infeasible.  With the
  // admission option on, the run must fail with a single actionable line
  // naming the class that broke the budget.
  std::istringstream in(R"(
link 10Mbps
duration 1s
class org   root ls linear 10Mbps
class voice org  rt linear 8Mbps ls linear 8Mbps
class video org  rt linear 7Mbps ls linear 7Mbps
source cbr voice 1Mbps 1000 0s 1s
)");
  const Scenario sc = Scenario::parse(in);
  ScenarioRunOptions opts;
  opts.admission = true;
  try {
    (void)run_scenario(sc, opts);
    FAIL() << "infeasible scenario must be refused up front";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    EXPECT_NE(what.find("class 'video'"), std::string::npos) << what;
    EXPECT_NE(what.find("admission"), std::string::npos) << what;
  }
  // Without the option the same scenario still runs (link-sharing only
  // degrades; no guarantees are promised).
  ScenarioRunOptions lax;
  EXPECT_NO_THROW((void)run_scenario(sc, lax));
}

TEST(ScenarioRun, AuditOptionRunsSelfChecks) {
  std::istringstream in(R"(
link 10Mbps
duration 1s
class org  root ls linear 10Mbps
class a    org  ls linear 5Mbps
class b    org  ls linear 5Mbps
source cbr a 2Mbps 1000 0s 1s
source cbr b 2Mbps 1000 0s 1s
)");
  const Scenario sc = Scenario::parse(in);
  ScenarioRunOptions opts;
  opts.audit_every = 64;
  ScenarioResult r;
  ASSERT_NO_THROW(r = run_scenario(sc, opts));
  EXPECT_EQ(r.per_class.size(), 2u);
}

TEST(ScenarioRun, EndToEndWithHierarchy) {
  std::istringstream in(R"(
link 10Mbps
duration 2s
class org   root ls linear 10Mbps
class voice org  rt udr 160 5ms 64kbps  ls linear 64kbps
class data  org  ls linear 9Mbps  qlimit 20
source cbr    voice 64kbps 160 0s 2s
source greedy data  1500 8 0s 2s
)");
  const Scenario sc = Scenario::parse(in);
  const ScenarioResult r = run_scenario(sc);
  ASSERT_EQ(r.per_class.size(), 2u);  // leaves only
  const auto& voice = r.per_class[0];
  const auto& data = r.per_class[1];
  EXPECT_EQ(voice.name, "voice");
  EXPECT_EQ(voice.packets, 100u);
  EXPECT_LT(voice.max_delay_ms, 6.3);
  EXPECT_EQ(data.name, "data");
  EXPECT_GT(data.rate_mbps, 9.0);
  EXPECT_GT(r.link_utilization, 0.99);
  const std::string table = r.to_table();
  EXPECT_NE(table.find("voice"), std::string::npos);
  EXPECT_NE(table.find("link utilization"), std::string::npos);
}

TEST(ScenarioRun, ShippedScenarioFilesAreValid) {
  for (const char* path :
       {"scenarios/campus.hfsc", "scenarios/voip.hfsc",
        "scenarios/decoupling.hfsc"}) {
    SCOPED_TRACE(path);
    Scenario sc;
    ASSERT_NO_THROW(sc = Scenario::parse_file(
                        std::string(HFSC_SOURCE_DIR) + "/" + path));
    const ScenarioResult r = run_scenario(sc);
    EXPECT_FALSE(r.per_class.empty());
    for (const auto& pc : r.per_class) {
      EXPECT_GT(pc.packets, 0u) << pc.name;
    }
  }
}

}  // namespace
}  // namespace hfsc
