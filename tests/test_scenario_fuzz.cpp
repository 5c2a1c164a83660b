// Mutation fuzz over the scenario language (sim/scenario.hpp): token
// swaps, numeral substitutions (zero, sub-byte rates, zero and 1 ns
// times, 2^32, 2^64, nan, malformed decimals), bit flips and truncation,
// applied to the seven shipped scenarios.
//
// The contract under test: Scenario::parse either throws a
// std::runtime_error whose message starts "<file>:<line>: ", or returns a
// scenario that the static analyzer reports on without throwing and that
// runs for 1 ms of simulated time without crashing.  A run may still
// refuse the scenario with a one-line runtime_error (admission rejects a
// class, a family cannot express a curve, timed class events under a
// non-H-FSC family); no other exception type may escape.  Each mutant
// also runs within a wall-time and a peak-RSS budget, so a numeral the
// run materializes (a greedy window, a throughput window per ns) fails
// here as a named mutant instead of exhausting the host.
// tools/ci_check.sh runs this under ASan/UBSan with assertions on, so a
// source or scheduler constructor assert fires here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "config/hierarchy_spec.hpp"
#include "rss.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

using testrss::peak_rss_kib;
using testrss::rss_kib;

struct Seed {
  std::string name;
  std::string text;
};

std::vector<Seed> seeds() {
  std::vector<Seed> out;
  for (const char* name : {"backbone", "campus", "churn_soak", "decoupling",
                           "decoupling_vii", "overbudget", "voip"}) {
    const std::string file = std::string(name) + ".hfsc";
    std::ifstream in(std::string(HFSC_SOURCE_DIR) + "/scenarios/" + file);
    EXPECT_TRUE(in.good()) << file;
    out.push_back({file, std::string(std::istreambuf_iterator<char>(in), {})});
  }
  return out;
}

// Start offsets and lengths of the text's whitespace-separated tokens.
std::vector<std::pair<std::size_t, std::size_t>> tokens(const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    const std::size_t from = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > from) out.emplace_back(from, i - from);
  }
  return out;
}

std::string mutate(const std::string& text, Rng& rng) {
  static const char* const kNumerals[] = {
      "0",        "7bps",     "0bps",  "0s",
      "0ns",      "0.1ns",    "nan",   "inf",
      "-1",       "1..5s",    "1..5Mbps",
      "1ns",      "4294967296",
      "18446744073709551616", "18446744073709551616Gbps",
      "18446744073709551616s",
  };
  std::string m = text;
  const auto toks = tokens(text);
  const auto pick = [&] { return toks[rng.uniform(0, toks.size() - 1)]; };
  switch (rng.uniform(0, 3)) {
    case 0: {  // swap two tokens
      auto a = pick();
      auto b = pick();
      if (a.first > b.first) std::swap(a, b);
      if (a.first == b.first) break;
      m = text.substr(0, a.first) + text.substr(b.first, b.second) +
          text.substr(a.first + a.second, b.first - a.first - a.second) +
          text.substr(a.first, a.second) + text.substr(b.first + b.second);
      break;
    }
    case 1: {  // substitute a numeral (or whatever token was picked)
      const auto t = pick();
      m.replace(t.first, t.second,
                kNumerals[rng.uniform(0, std::size(kNumerals) - 1)]);
      break;
    }
    case 2: {  // bit flip
      const std::size_t at = rng.uniform(0, m.size() - 1);
      m[at] = static_cast<char>(m[at] ^ (1 << rng.uniform(0, 7)));
      break;
    }
    case 3:  // truncation
      m.resize(rng.uniform(0, m.size() - 1));
      break;
  }
  return m;
}

// True when `what` starts with "<name>:<digits>: ".
bool placed(const std::string& what, const std::string& name) {
  if (what.compare(0, name.size() + 1, name + ":") != 0) return false;
  std::size_t i = name.size() + 1;
  const std::size_t digits = i;
  while (i < what.size() && std::isdigit(static_cast<unsigned char>(what[i]))) {
    ++i;
  }
  return i > digits && what.compare(i, 2, ": ") == 0;
}

// Parses `text`; on success analyzes it and runs it for 1 ms under
// `kind` (nullopt = the scenario's own family).  Returns whether it
// parsed.
bool parse_analyze_run(const std::string& text, const std::string& name,
                       std::optional<SchedulerKind> kind) {
  Scenario sc;
  try {
    std::istringstream in(text);
    sc = Scenario::parse(in, name);
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(placed(e.what(), name)) << "unplaced parse error: " << e.what();
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped parse escape: " << e.what();
    return false;
  }
  try {
    (void)analyze(sc);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "analyze() threw on a parsed scenario: " << e.what();
  }
  sc.duration = std::min<TimeNs>(sc.duration, msec(1));
  ScenarioRunOptions opts;
  opts.scheduler = kind;
  try {
    (void)run_scenario(sc, opts);
  } catch (const std::runtime_error&) {
    // A refused run is a one-line error in hfsc_sim, not a crash.
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped run escape: " << e.what();
  }
  return true;
}

// Per-mutant budgets.  Mutants take well under a millisecond each and
// the whole process peaks near 14 MB in a release build; ASan multiplies
// both but stays far inside these.  The RSS budget bounds how far the
// process's high-water mark rises above the resident set the mutant
// started from, so it charges each mutant for its own peak.  (The mark
// itself is no budget: under ASan it creeps past 512 MB over the whole
// suite as freed blocks sit in quarantine.)
constexpr auto kWallBudget = std::chrono::seconds(5);
constexpr long kRssGrowthBudgetKib = 256L << 10;  // 256 MiB

// parse_analyze_run within the budgets.
bool check(const std::string& text, const std::string& name,
           std::optional<SchedulerKind> kind) {
  const long rss0 = rss_kib();
  const auto t0 = std::chrono::steady_clock::now();
  const bool parsed = parse_analyze_run(text, name, kind);
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, kWallBudget)
      << "mutant took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count()
      << " ms";
  if (rss0 >= 0) {
    EXPECT_LT(peak_rss_kib() - rss0, kRssGrowthBudgetKib)
        << "peak RSS rose this far (KiB) above the mutant's starting "
           "resident set";
  }
  return parsed;
}

TEST(ScenarioFuzz, ShippedScenariosParseAnalyzeAndRun) {
  for (const Seed& s : seeds()) {
    SCOPED_TRACE(s.name);
    EXPECT_TRUE(check(s.text, s.name, std::nullopt));
  }
}

TEST(ScenarioFuzz, EveryNumeralAtTheExtremes) {
  // Random mutants rarely hit one given field with one given value, so
  // every numeral of every seed also takes each zero-ish value, and the
  // smallest time and a 2^32 count, in turn.
  for (const Seed& s : seeds()) {
    SCOPED_TRACE(s.name);
    for (const auto& [at, len] : tokens(s.text)) {
      if (!std::isdigit(static_cast<unsigned char>(s.text[at]))) continue;
      for (const char* v : {"0", "7bps", "0s", "0.1ns", "1ns", "4294967296"}) {
        std::string m = s.text;
        m.replace(at, len, v);
        check(m, s.name, std::nullopt);
        if (::testing::Test::HasFailure()) FAIL() << "mutant:\n" << m;
      }
    }
  }
}

TEST(ScenarioFuzz, MutantsFailPlacedOrAnalyzeAndRun) {
  constexpr int kMutantsPerSeed = 3000;
  const std::vector<SchedulerKind>& kinds = all_scheduler_kinds();
  Rng rng(0x5CE7A210);
  std::size_t parsed = 0;
  std::size_t total = 0;
  for (const Seed& s : seeds()) {
    SCOPED_TRACE(s.name);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string m = mutate(s.text, rng);
      // Every other mutant runs under its own family, the rest rotate
      // through all seven compilers.
      std::optional<SchedulerKind> kind;
      if (i % 2 == 1) kind = kinds[(i / 2) % kinds.size()];
      parsed += check(m, s.name, kind) ? 1 : 0;
      ++total;
      if (::testing::Test::HasFailure()) {
        FAIL() << "mutant " << i << ":\n" << m;
      }
    }
  }
  // Most mutants still parse (a swapped comment word, a flipped digit);
  // many do not.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, total);
}

}  // namespace
}  // namespace hfsc
