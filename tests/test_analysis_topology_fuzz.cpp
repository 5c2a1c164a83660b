// Differential validation of the analyzer's end-to-end route budgets
// (analysis/analyzer.cpp check_routes) against the routed simulator:
// on random 2-4 node chain topologies carrying conformant CBR flows,
// the measured per-route p100 delay and the measured per-node peak
// backlog must never exceed the analytic bounds.
//
// Soundness preconditions the generator enforces (they are the
// hypotheses of the underlying theorems, not test conveniences):
//   - every class is routed and fed by one CBR source conforming to its
//     declared token-bucket envelope (burst >= 2 packets, rate equal);
//   - leaf rt reservations stay well under every node's link rate, so
//     each hop's guarantee actually holds (Theorem 2's hypothesis);
//   - per-node peak backlog is compared against the sum of the hop
//     backlog bounds of the flows crossing that node, which dominates
//     the node total exactly because all traffic belongs to such flows.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "sim/scenario.hpp"

namespace hfsc {
namespace {

struct FlowGen {
  std::string name;
  std::size_t first_hop = 0;  // route covers [first_hop, num_nodes)
  RateBps rate = 0;
  Bytes pkt = 0;
  TimeNs dwell = 0;  // rt curve's first-segment duration
};

// RateBps is bytes/second; the scenario grammar's bare `bps` suffix is
// bits/second.
std::string as_bps(RateBps r) { return std::to_string(r * 8) + "bps"; }

// One random chain topology + conformant workload, as scenario text.
std::string random_scenario(std::mt19937_64& rng, std::size_t num_nodes) {
  std::uniform_int_distribution<int> node_mbps(20, 45);
  std::uniform_int_distribution<int> num_flows(2, 4);
  std::uniform_int_distribution<RateBps> flow_rate(kbps(128), mbps(1));
  std::uniform_int_distribution<Bytes> pkt_len(100, 1200);

  std::vector<RateBps> rates(num_nodes);
  for (RateBps& r : rates) r = mbps(node_mbps(rng));

  std::vector<FlowGen> flows(static_cast<std::size_t>(num_flows(rng)));
  for (std::size_t i = 0; i < flows.size(); ++i) {
    FlowGen& f = flows[i];
    f.name = std::string("f").append(std::to_string(i));
    // Flow 0 spans the whole chain so every node carries traffic;
    // later flows may enter mid-chain (routes need >= 2 hops).
    f.first_hop =
        i == 0 ? 0
               : std::uniform_int_distribution<std::size_t>(
                     0, num_nodes - 2)(rng);
    f.rate = flow_rate(rng);
    f.pkt = pkt_len(rng);
    // Pin the udr first-segment slope at ~2x the sustained rate (dwell
    // = burst / (2 rate)): the aggregate rt obligation then stays below
    // 8 x 1 Mb/s against >= 20 Mb/s links, so admission is feasible on
    // every generated node by construction.
    f.dwell = muldiv_ceil(2 * f.pkt, kNsPerSec, 2 * f.rate);
  }

  std::ostringstream os;
  os << "duration 400ms\n";
  for (std::size_t n = 0; n < num_nodes; ++n) {
    os << "node n" << n << " " << as_bps(rates[n]) << "\n";
    for (const FlowGen& f : flows) {
      if (f.first_hop > n) continue;
      os << "  class " << f.name << " root rt udr " << 2 * f.pkt << " "
         << f.dwell << "ns " << as_bps(f.rate) << " ls linear "
         << as_bps(f.rate) << "\n";
      if (f.first_hop == n) {
        os << "  envelope " << f.name << " " << 2 * f.pkt << " "
           << as_bps(f.rate) << "\n";
      }
    }
    os << "end\n";
  }
  for (const FlowGen& f : flows) {
    os << "route " << f.name;
    for (std::size_t n = f.first_hop; n < num_nodes; ++n) os << " n" << n;
    os << "\n";
  }
  for (const FlowGen& f : flows) {
    // One CBR source per flow: rate equal to the envelope rate, packet
    // no larger than half the declared burst — conformant by
    // construction.
    os << "source cbr " << f.name << " " << as_bps(f.rate) << " " << f.pkt
       << " 0s 400ms\n";
  }
  return os.str();
}

void check_one(const std::string& text, const std::string& tag) {
  std::istringstream in(text);
  const Scenario sc = Scenario::parse(in, "fuzz.hfsc");
  AnalysisOptions opts;
  opts.portability = false;
  const AnalysisReport rep = analyze(sc, opts);
  ASSERT_TRUE(rep.rt_feasible) << tag << "\n" << text;
  ASSERT_EQ(rep.errors(), 0u) << tag << "\n" << rep.to_text();
  ASSERT_EQ(rep.flows.size(), sc.routes.size()) << tag;

  const ScenarioResult result = run_scenario(sc);
  ASSERT_TRUE(result.conserved()) << tag;

  // (1) Measured p100 end-to-end delay never exceeds the composed bound.
  for (const ScenarioResult::EndToEnd& ee : result.e2e) {
    const FlowBudget* budget = nullptr;
    for (const FlowBudget& f : rep.flows) {
      if (f.cls == ee.cls) budget = &f;
    }
    ASSERT_NE(budget, nullptr) << tag << " flow " << ee.cls;
    ASSERT_TRUE(budget->e2e_delay.has_value())
        << tag << " flow " << ee.cls << "\n" << rep.to_text();
    const double bound_ms = static_cast<double>(*budget->e2e_delay) / 1e6;
    EXPECT_LE(ee.max_delay_ms, bound_ms + 1e-6)
        << tag << " flow " << ee.cls << " measured p100 above the bound\n"
        << rep.to_text();
    EXPECT_GT(ee.delivered, 0u) << tag << " flow " << ee.cls;
  }

  // (2) Measured per-node peak backlog never exceeds the sum of the hop
  // backlog bounds of the flows crossing the node.
  for (const ScenarioResult::NodeStats& ns : result.nodes) {
    Bytes bound = 0;
    bool complete = true;
    for (const FlowBudget& f : rep.flows) {
      for (const HopBudget& h : f.hops) {
        if (h.node != ns.name) continue;
        if (!h.backlog) {
          complete = false;
        } else {
          bound = sat_add(bound, *h.backlog);
        }
      }
    }
    ASSERT_TRUE(complete) << tag << " node " << ns.name << "\n"
                          << rep.to_text();
    EXPECT_LE(ns.peak_backlog_bytes, bound)
        << tag << " node " << ns.name << " peak backlog above the bound\n"
        << rep.to_text();
  }
}

TEST(AnalysisTopologyFuzz, BoundsDominateSimulationOnRandomChains) {
  // >= 10 distinct topologies x >= 10 seeds (the acceptance floor).
  for (int topo = 0; topo < 10; ++topo) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      std::mt19937_64 rng(0xf10e5ULL * (topo + 1) + seed);
      const std::size_t num_nodes = 2 + (topo % 3);  // 2, 3, 4 node chains
      const std::string text = random_scenario(rng, num_nodes);
      check_one(text, "topo " + std::to_string(topo) + " seed " +
                          std::to_string(seed));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(AnalysisTopologyFuzz, BoundsDominateShippedMultiNodeScenarios) {
  // Every committed multi-node scenario: where the analyzer reports a
  // finite route bound, the simulated p100 delay must respect it — with
  // the file's real cross traffic in play, not just conformant CBR.
  const Scenario sc = Scenario::parse_file(std::string(HFSC_SOURCE_DIR) +
                                           "/scenarios/backbone.hfsc");
  AnalysisOptions opts;
  opts.portability = false;
  const AnalysisReport rep = analyze(sc, opts);
  const ScenarioResult result = run_scenario(sc);
  std::size_t checked = 0;
  for (const ScenarioResult::EndToEnd& ee : result.e2e) {
    for (const FlowBudget& f : rep.flows) {
      if (f.cls != ee.cls || !f.e2e_delay) continue;
      EXPECT_LE(ee.max_delay_ms,
                static_cast<double>(*f.e2e_delay) / 1e6 + 1e-6)
          << "backbone flow " << ee.cls;
      ++checked;
    }
  }
  EXPECT_GE(checked, 1u) << "no finite route bound was exercised";
}

}  // namespace
}  // namespace hfsc
