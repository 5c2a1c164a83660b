// Scenario text generators shared by the analyzer pins
// (tests/test_analysis_pins.cpp) and the control-plane and rendering
// scale gates (tests/test_control_plane_scale.cpp).  Every generator is a pure
// function of its arguments, so a pinned hash of what the program does
// with the text pins the program, not the generator's luck.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace hfsc::testgen {

// A routed multi-node scenario that reaches most of the analyzer's
// diagnostics: two access nodes feed a core and an egress node, each
// with a gold aggregate (rt leaves, some capped by an upper limit) and a
// bulk aggregate (ls leaves, oversubscribed on some nodes, some without
// a queue limit).  Flows are routed over two or three hops; some have no
// envelope, some lack an rt curve on one hop, some have a queue limit
// too small for their burst, and the deadlines range from loose to
// unmeetable.  Timed calls come and go on the access nodes.
inline std::string routed_scenario(std::uint64_t seed) {
  Rng rng(seed);
  std::ostringstream s;
  s << "# generated routed scenario, seed " << seed << "\n"
    << "duration 200ms\n";
  constexpr int kFlows = 12;
  constexpr int kBulk = 6;
  const char* const access[] = {"acc0", "acc1"};
  auto flow = [](const char* a, int i) {
    return std::string(a) + "_f" + std::to_string(i);
  };
  // Whether flow i of access node a crosses the egress node too, and
  // whether it has an envelope / an rt curve on the core.
  auto three_hops = [](int i) { return i % 3 == 0; };
  auto enveloped = [](int i) { return i % 5 != 4; };
  auto core_rt = [](int i) { return i % 7 != 6; };
  auto bulk = [&](const std::string& node, int share_mbps, bool qlimits) {
    const int r_kbps = share_mbps * 1000 / kBulk;
    for (int i = 0; i < kBulk; ++i) {
      const std::string n = node + "_b" + std::to_string(i);
      // Each node's bulk shares sum to 1.5x the aggregate's share.
      s << "  class " << n << " bulk ls linear " << r_kbps * 3 / 2 << "kbps";
      if (qlimits || i % 2 == 0) s << " qlimit " << rng.uniform(8, 64);
      s << "\n";
      if (i % 3 != 2) {
        s << "  source poisson " << n << ' ' << r_kbps << "kbps "
          << rng.uniform(200, 1500) << " 0s 200ms " << rng.uniform(1, 1000)
          << '\n';
      }
    }
  };
  for (const char* a : access) {
    s << "node " << a << " 100Mbps\n"
      << "  class gold root ls linear 40Mbps\n"
      << "  class capped gold ls linear 10Mbps ul linear 8Mbps\n"
      << "  class bulk root ls linear 60Mbps\n";
    for (int i = 0; i < kFlows; ++i) {
      const std::string f = flow(a, i);
      const char* parent = i % 4 == 1 ? "capped" : "gold";
      s << "  class " << f << ' ' << parent << " rt curve "
        << rng.uniform(2, 4) << "Mbps " << rng.uniform(1, 5) << "ms "
        << rng.uniform(500, 1500) << "kbps ls linear 1Mbps";
      if (i % 6 == 2) s << " qlimit 2";
      s << "\n";
      if (enveloped(i)) {
        s << "  envelope " << f << ' ' << rng.uniform(200, 3000) << ' '
          << rng.uniform(100, 900) << "kbps\n";
      }
    }
    bulk(a, 60, false);
    for (int k = 0; k < 3; ++k) {
      const std::string n = std::string(a) + "_call" + std::to_string(k);
      const std::uint64_t at = rng.uniform(20, 80);
      s << "  at " << at << "ms class " << n
        << " gold rt linear 2Mbps ls linear 2Mbps\n"
        << "  at " << at << "ms source cbr " << n << " 2Mbps 400\n"
        << "  at " << at + 100 << "ms delete " << n << '\n';
    }
    s << "end\n";
  }
  s << "node core 200Mbps\n"
    << "  class gold root rt linear 1Mbps ls linear 60Mbps ul linear 80Mbps\n"
    << "  class bulk root ls linear 140Mbps\n";
  for (const char* a : access) {
    for (int i = 0; i < kFlows; ++i) {
      s << "  class " << flow(a, i) << " gold";
      if (core_rt(i)) {
        s << " rt curve " << rng.uniform(2, 6) << "Mbps "
          << rng.uniform(1, 3) << "ms " << rng.uniform(800, 2000) << "kbps";
      }
      s << " ls linear 2Mbps\n";
    }
  }
  bulk("core", 140, true);
  s << "  envelope core_b0 1500 100kbps\n"
    << "end\n"
    << "node egress 50Mbps\n"
    << "  class gold root ls linear 20Mbps\n"
    << "  class bulk root ls linear 30Mbps\n";
  for (const char* a : access) {
    for (int i = 0; i < kFlows; i += 3) {
      s << "  class " << flow(a, i) << " gold rt linear "
        << rng.uniform(1000, 3000) << "kbps ls linear 1Mbps qlimit "
        << rng.uniform(1, 40) << "\n";
    }
  }
  bulk("egress", 30, false);
  s << "  envelope gold 3000 1Mbps\n"
    << "end\n";
  for (const char* a : access) {
    for (int i = 0; i < kFlows; ++i) {
      const std::string f = flow(a, i);
      s << "route " << f << ' ' << a << " core"
        << (three_hops(i) ? " egress" : "") << "\n";
      if (i % 2 == 0) {
        s << "deadline " << f << ' ' << rng.uniform(1, 40) << "ms\n";
      }
      s << "source cbr " << f << ' ' << rng.uniform(100, 900) << "kbps "
        << rng.uniform(100, 1200) << ' ' << rng.uniform(0, 2000)
        << "us 200ms\n";
    }
  }
  s << "deadline core_b0 50ms\n"
    << "deadline acc0_b1 50ms\n";
  return s.str();
}

// `n` top-level classes on a 100 Gb/s link, 1 ms long: every class has
// an ls share, one in eight also an rt curve and an arrival envelope, and
// one in 64 a CBR source.
inline std::string flat_scenario(std::size_t n) {
  std::ostringstream s;
  s << "link 100Gbps\nduration 1ms\n";
  for (std::size_t i = 0; i < n; ++i) {
    s << "class c" << i << " root ls linear 100kbps";
    if (i % 8 == 0) s << " rt linear 50kbps";
    s << "\n";
    if (i % 8 == 0) s << "envelope c" << i << " 1500 40kbps\n";
    if (i % 64 == 0) s << "source cbr c" << i << " 40kbps 1000 0s 1ms\n";
  }
  return s.str();
}

// `n` classes in a complete 4-ary tree numbered breadth-first (class i's
// parent is i / 4 - 1), on a 100 Gb/s link, 1 ms long.  Each class gets
// a quarter of its parent's ls share; one leaf in eight also gets an rt
// curve, an arrival envelope and a CBR source.
inline std::string deep_scenario(std::size_t n) {
  std::ostringstream s;
  s << "link 100Gbps\nduration 1ms\n";
  std::vector<std::uint64_t> share_kbps(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool top = i < 4;
    share_kbps[i] = (top ? 100'000'000 : share_kbps[i / 4 - 1]) / 4;
    s << "class n" << i << ' ';
    if (top) {
      s << "root";
    } else {
      s << 'n' << i / 4 - 1;
    }
    s << " ls linear " << share_kbps[i] << "kbps";
    const bool leaf = 4 * (i + 1) >= n;
    if (leaf && i % 8 == 0) {
      s << " rt linear 100kbps\n"
        << "envelope n" << i << " 1500 80kbps\n"
        << "source cbr n" << i << " 80kbps 1000 0s 1ms";
    }
    s << "\n";
  }
  return s.str();
}

// `nodes` nodes of `per_node` top-level ls classes each (the same class
// names on every node), 1 ms long and without traffic: a report of
// nodes * per_node class rows whose cost is all parse, set-up and
// rendering.
inline std::string many_node_scenario(std::size_t nodes,
                                      std::size_t per_node = 10) {
  std::ostringstream s;
  s << "duration 1ms\n";
  for (std::size_t n = 0; n < nodes; ++n) {
    s << "node n" << n << " 1Gbps\n";
    for (std::size_t c = 0; c < per_node; ++c) {
      s << "  class c" << c << " root ls linear 10Mbps\n";
    }
    s << "end\n";
  }
  return s.str();
}

}  // namespace hfsc::testgen
