// Mutation fuzz over the packet-trace reader (sim/trace_io.hpp), seeded
// with a recorded three-class trace: truncation at every byte, random bit
// flips and the numerals -1, 2^32, 2^64 and 0 in every field.
//
// The contract under test: read_trace either throws Error{kBadTrace} or
// returns entries that round-trip through write_trace unchanged, and a
// sign, an overflow or a class id above ClassId's range is always
// rejected rather than wrapped.  Each mutant also runs within a
// wall-time and a peak-RSS budget, and every failure names its mutant.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "rss.hpp"
#include "sched/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

using testrss::peak_rss_kib;
using testrss::rss_kib;

// A capture of three overlapping classes, as write_trace stores it.
const std::string& seed_trace() {
  static const std::string text = [] {
    Fifo sched;
    Simulator sim(mbps(10), sched);
    TraceRecorder rec;
    rec.attach(sim.link());
    sim.add<PoissonSource>(1, mbps(2), 700, 0, msec(150), 9);
    sim.add<OnOffSource>(2, mbps(6), 1200, msec(5), msec(10), 0, msec(150),
                         10);
    sim.add<CbrSource>(3, kbps(640), 160, 0, msec(150));
    sim.run_all();
    std::ostringstream out;
    write_trace(out, rec.entries());
    return out.str();
  }();
  return text;
}

// Per-mutant budgets: a mutant parses in well under a millisecond, and a
// trace's entries take memory in proportion to its lines.
constexpr auto kWallBudget = std::chrono::seconds(2);
constexpr long kRssGrowthBudgetKib = 64L << 10;  // 64 MiB

// Reads `text` under the contract above.  Returns whether it parsed.
bool check(const std::string& text, const std::string& mutant) {
  const long rss0 = rss_kib();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<TraceEntry> got;
  bool parsed = false;
  try {
    std::istringstream in(text);
    got = read_trace(in);
    parsed = true;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadTrace) << mutant << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << mutant << ": untyped escape: " << e.what();
  }
  if (parsed) {
    std::stringstream again;
    write_trace(again, got);
    try {
      EXPECT_EQ(read_trace(again), got) << mutant << ": no round trip";
    } catch (const std::exception& e) {
      ADD_FAILURE() << mutant << ": its own rewrite is rejected: "
                    << e.what();
    }
  }
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, kWallBudget) << mutant;
  if (rss0 >= 0) {
    EXPECT_LT(peak_rss_kib() - rss0, kRssGrowthBudgetKib) << mutant;
  }
  return parsed;
}

TEST(TraceFuzz, SeedIsAMultiClassCapture) {
  std::istringstream in(seed_trace());
  const std::vector<TraceEntry> entries = read_trace(in);
  ASSERT_GT(entries.size(), 100u);
  bool seen[4] = {};
  for (const TraceEntry& e : entries) seen[e.cls] = true;
  EXPECT_TRUE(seen[1] && seen[2] && seen[3]);
  EXPECT_TRUE(check(seed_trace(), "seed"));
}

TEST(TraceFuzz, TruncationAtEveryByte) {
  const std::string& text = seed_trace();
  for (std::size_t n = 0; n < text.size(); ++n) {
    check(text.substr(0, n), "truncate@" + std::to_string(n));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TraceFuzz, BitFlips) {
  const std::string& text = seed_trace();
  Rng rng(0x7EACE);
  std::size_t parsed = 0;
  constexpr int kMutants = 4000;
  for (int i = 0; i < kMutants; ++i) {
    std::string m = text;
    std::string name = "flip";
    for (std::uint64_t k = rng.uniform(1, 3); k-- > 0;) {
      const std::size_t at = rng.uniform(0, m.size() - 1);
      const std::uint64_t bit = rng.uniform(0, 7);
      m[at] = static_cast<char>(m[at] ^ (1 << bit));
      name += " byte " + std::to_string(at) + " bit " + std::to_string(bit);
    }
    parsed += check(m, name) ? 1 : 0;
    if (::testing::Test::HasFailure()) return;
  }
  // Flips inside a comment or between digits keep the trace readable;
  // most others break it.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, static_cast<std::size_t>(kMutants));
}

TEST(TraceFuzz, NumeralSubstitutions) {
  // Every field of every line takes each numeral in turn.  A sign, 2^64
  // and a class id of 2^32 must be rejected, never wrapped; 0 is a valid
  // time but neither a valid class (the root) nor a valid length.
  const std::string& text = seed_trace();
  const char* const kNumerals[] = {"-1", "4294967296", "18446744073709551616",
                                   "0"};
  std::size_t line_start = 0;
  std::size_t lines = 0;
  while (line_start < text.size()) {
    const std::size_t line_end = text.find('\n', line_start);
    if (text[line_start] != '#') {
      std::size_t at = line_start;
      for (int field = 0; field < 3; ++field) {
        const std::size_t end = text.find_first_of(" \n", at);
        for (const char* v : kNumerals) {
          const std::string num = v;
          std::string m = text;
          m.replace(at, end - at, num);
          const bool valid =
              num == "0" ? field == 0 : num == "4294967296" && field != 1;
          const std::string name = "line " + std::to_string(lines + 1) +
                                   " field " + std::to_string(field) +
                                   " := " + num;
          EXPECT_EQ(check(m, name), valid) << name;
          if (::testing::Test::HasFailure()) return;
        }
        at = end + 1;
      }
    }
    ++lines;
    line_start = line_end + 1;
  }
  EXPECT_GT(lines, 100u);
}

}  // namespace
}  // namespace hfsc
