// Tests for multi-hop tandems (linear Topology chains) and the trace I/O
// substrate.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/hfsc.hpp"
#include "sched/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"
#include "util/errors.hpp"

namespace hfsc {
namespace {

using SchedFactory = std::function<std::unique_ptr<Scheduler>()>;

// A 3-hop tandem of 10 Mb/s nodes, each with its own scheduler from
// `make`, forwarding classes 1 and 2 through every hop.  Returns the
// route index of class 1.
std::size_t build_tandem(Topology& topo,
                         std::vector<std::unique_ptr<Scheduler>>& scheds,
                         const SchedFactory& make) {
  std::vector<Topology::Hop> route1, route2;
  for (std::size_t h = 0; h < 3; ++h) {
    scheds.push_back(make());
    const auto n =
        topo.add_node("hop" + std::to_string(h), mbps(10), *scheds.back());
    route1.push_back({n, 1});
    route2.push_back({n, 2});
  }
  const std::size_t r1 = topo.add_route(std::move(route1));
  (void)topo.add_route(std::move(route2));
  return r1;
}

TEST(Tandem, DeliversThroughAllHops) {
  EventQueue ev;
  std::vector<std::unique_ptr<Scheduler>> scheds;
  Topology topo(ev);
  const auto route =
      build_tandem(topo, scheds, [] { return std::make_unique<Fifo>(); });
  topo.add_source<CbrSource>(0, 1, mbps(2), 1000, 0, sec(1));
  ev.run_all();
  EXPECT_EQ(topo.delivered(route), 250u);
  EXPECT_EQ(topo.delivered_bytes(route), 250'000u);
  // Three hops at 0.8 ms serialization each.
  EXPECT_NEAR(topo.e2e_delay_ms(route).mean(), 2.4, 0.1);
}

TEST(Tandem, HfscBoundsEndToEndDelayFifoDoesNot) {
  // Audio (class 1) + bulk (class 2) crossing a 3-hop tandem.  With
  // H-FSC at every hop the end-to-end audio delay is ~3x the per-hop
  // bound; with FIFO it rides behind bulk bursts at every hop.
  auto run = [](const SchedFactory& make) {
    EventQueue ev;
    std::vector<std::unique_ptr<Scheduler>> scheds;
    Topology topo(ev);
    const auto audio = build_tandem(topo, scheds, make);
    topo.add_source<CbrSource>(0, 1, kbps(64), 160, 0, sec(3));
    topo.add_source<GreedySource>(0, 2, 1500, 8, 0, sec(3));
    ev.run_until(sec(3) + msec(500));
    return topo.e2e_delay_ms(audio).max();
  };

  const double fifo_delay = run([] { return std::make_unique<Fifo>(); });
  const double hfsc_delay = run([] {
    auto s = std::make_unique<Hfsc>(mbps(10));
    const ClassId audio = s->add_class(
        kRootClass, ClassConfig::both(from_udr(160, msec(5), kbps(640))));
    const ClassId bulk = s->add_class(
        kRootClass,
        ClassConfig::link_share_only(ServiceCurve::linear(mbps(9))));
    EXPECT_EQ(audio, 1u);
    EXPECT_EQ(bulk, 2u);
    return s;
  });
  EXPECT_LT(hfsc_delay, 3 * 6.3);
  EXPECT_LT(hfsc_delay, fifo_delay);
}

TEST(TraceIo, RoundTripsThroughText) {
  const std::vector<TraceEntry> in = {
      {0, 1, 100}, {msec(1), 2, 1500}, {msec(2), 1, 60}};
  std::stringstream ss;
  write_trace(ss, in);
  const auto out = read_trace(ss);
  EXPECT_EQ(in, out);
}

TEST(TraceIo, ParsesCommentsAndBlankLines) {
  std::stringstream ss("# header\n\n100 1 64\n200 2 128  # trailing\n");
  const auto out = read_trace(ss);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (TraceEntry{100, 1, 64}));
  EXPECT_EQ(out[1], (TraceEntry{200, 2, 128}));
}

TEST(TraceIo, RejectsMalformedLines) {
  std::stringstream ss("abc def\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
  std::stringstream ss2("100 1\n");
  EXPECT_THROW(read_trace(ss2), std::runtime_error);
  std::stringstream ss3("100 1 0\n");  // zero length
  EXPECT_THROW(read_trace(ss3), std::runtime_error);
  std::stringstream ss4("100 0 64\n");  // root class
  EXPECT_THROW(read_trace(ss4), std::runtime_error);
  std::stringstream ss5("100 1 64 junk\n");  // trailing garbage
  EXPECT_THROW(read_trace(ss5), std::runtime_error);
}

TEST(TraceIo, RejectsSignsAndOverflowingNumerals) {
  // `istream >> unsigned` reads "-1" as 2^64 - 1 (or 2^32 - 1) and an
  // overflowing class id as its type's maximum; every field must instead
  // be a strict unsigned numeral that fits, failing at its line and the
  // line's byte offset.
  for (const char* bad :
       {"-1 1 100", "5 -1 100", "5 1 -1", "+5 1 100", "5 +1 100",
        "5 4294967296 100", "18446744073709551616 1 100",
        "5 1 18446744073709551616", "5 1 100x", "5 0x1 100"}) {
    SCOPED_TRACE(bad);
    std::stringstream ss(std::string("100 1 64\n") + bad + "\n");
    try {
      read_trace(ss);
      ADD_FAILURE() << "wrapped numeral parsed";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kBadTrace);
      EXPECT_NE(std::string(e.what()).find("line 2 (byte offset 9)"),
                std::string::npos)
          << e.what();
    }
  }
  // The extremes that do fit still parse.
  std::stringstream ok("18446744073709551615 4294967295 1\n");
  EXPECT_EQ(read_trace(ok), (std::vector<TraceEntry>{
                                {~TimeNs{0}, ~ClassId{0}, 1}}));
}

TEST(TraceIo, MalformedLineRaisesTypedErrorWithByteOffset) {
  // Two good lines (offsets 0 and 9), then a corrupt third line whose
  // first byte sits at offset 18: the error must be the typed kBadTrace
  // and name both the line and that byte offset.
  std::stringstream ss("100 1 64\n200 2 32\n300 1 x4\n");
  try {
    read_trace(ss);
    FAIL() << "corrupt trace parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadTrace);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset 18"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, MissingFileRaisesTypedError) {
  try {
    read_trace_file("/nonexistent/trace.txt");
    FAIL() << "missing file opened";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadTrace);
  }
}

TEST(TraceIo, BitFlipFixturesNeverEscapeTheErrorTaxonomy) {
  // Flip every bit of every byte of a healthy capture.  Each corrupted
  // image must either still parse (a digit flipped to another digit) or
  // raise exactly Error{kBadTrace} — never a crash, never any other
  // exception type.
  const std::string fixture =
      "# captured workload\n"
      "100 1 64\n"
      "250 2 1500\n"
      "\n"
      "999 3 40\n";
  int parsed = 0, rejected = 0;
  for (std::size_t i = 0; i < fixture.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = fixture;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      std::stringstream ss(flipped);
      try {
        (void)read_trace(ss);
        ++parsed;
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::kBadTrace);
        ++rejected;
      }
      // Anything else propagates and fails the test.
    }
  }
  // The sweep must have exercised both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(TraceIo, RecorderCapturesReplayReproduces) {
  // Record a stochastic workload, then replay it through a second run:
  // identical scheduler state machines must produce identical departures.
  auto record = [] {
    Fifo sched;
    Simulator sim(mbps(10), sched);
    TraceRecorder rec;
    rec.attach(sim.link());
    sim.add<PoissonSource>(1, mbps(3), 700, 0, msec(500), 9);
    sim.add<OnOffSource>(2, mbps(8), 1200, msec(20), msec(30), 0, msec(500),
                         10);
    sim.run_all();
    return rec.entries();
  };
  const auto trace = record();
  ASSERT_GT(trace.size(), 100u);

  auto run_replay = [&] {
    Fifo sched;
    EventQueue ev;
    Link link(ev, mbps(10), sched);
    std::vector<std::pair<TimeNs, ClassId>> departures;
    link.add_departure_hook([&](TimeNs t, const Packet& p) {
      departures.emplace_back(t, p.cls);
    });
    replay_trace(ev, link, trace);
    ev.run_all();
    return departures;
  };
  const auto a = run_replay();
  const auto b = run_replay();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), trace.size());
}

TEST(TraceIo, ItemsForClassFilters) {
  const std::vector<TraceEntry> trace = {
      {0, 1, 100}, {10, 2, 200}, {20, 1, 300}};
  const auto items = items_for_class(trace, 1);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].len, 100u);
  EXPECT_EQ(items[1].len, 300u);
}

}  // namespace
}  // namespace hfsc
