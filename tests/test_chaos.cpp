// Chaos/soak gate (ctest label "chaos"; the soak test carries "soak" and
// is opt-in via HFSC_SOAK=1).  Everything interesting lives in
// sim/chaos.{hpp,cpp}; these tests assert its verdict and pin the
// acceptance floor: >= 50 kill-and-recover episodes across every
// journal/checkpoint boundary, digest-identical recovery, packet
// conservation, and rt delays within the analyzer's Theorem 2 bound at
// every degradation level (differential twin included).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/chaos.hpp"

namespace hfsc {
namespace {

TEST(Chaos, SixtyKillAndRecoverEpisodesWithOverloadProof) {
  ChaosConfig cfg;
  cfg.episodes = 60;  // acceptance floor is 50
  const ChaosReport rep = run_chaos(cfg);
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(rep.ok());
  EXPECT_GE(rep.crashes, 50);
  EXPECT_EQ(rep.crashes, rep.recoveries);
  EXPECT_GT(rep.torn_appends, 0);
  EXPECT_GT(rep.replayed_records, 0u);
  // The overload proof ran: ladder topped out, early drop engaged, and
  // both the governed run and its governor-disabled twin kept the rt
  // leaf inside the Theorem 2 bound.
  EXPECT_EQ(rep.max_gov_level, 3);
  EXPECT_GT(rep.push_outs, 0u);
  EXPECT_GT(rep.rt_delay_bound, 0);
  EXPECT_LE(rep.rt_delay_max_governed, rep.rt_delay_bound);
  EXPECT_LE(rep.rt_delay_max_twin, rep.rt_delay_bound);
}

TEST(Chaos, SecondSeedIsAlsoClean) {
  ChaosConfig cfg;
  cfg.seed = 0xDECAFBAD;
  cfg.episodes = 20;
  cfg.overload_check = false;  // covered by the first test
  const ChaosReport rep = run_chaos(cfg);
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.crashes, rep.recoveries);
}

TEST(ChaosSoak, WallClockBudget) {
  const char* env = std::getenv("HFSC_SOAK");
  if (env == nullptr || std::string(env) != "1") {
    GTEST_SKIP() << "soak is opt-in: set HFSC_SOAK=1 (ci_check.sh --soak)";
  }
  ChaosConfig cfg;
  cfg.seed = 0x50AC50AC;
  cfg.soak = true;
  cfg.soak_seconds = 60;
  const ChaosReport rep = run_chaos(cfg);
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(rep.ok());
}

}  // namespace
}  // namespace hfsc
