// Chaos / soak harness for the resilience runtime (docs/ROBUSTNESS.md
// Section 11).
//
// run_chaos() drives a RuntimeHost through composed adversity and turns
// every episode into assertions:
//
//   * an overload scenario plus a governor-disabled differential twin:
//     a flash-crowd flood walks the degradation ladder to level 3 and
//     back down, while a token-bucket-conformant rt leaf's measured
//     delays are checked against the analyzer's Theorem 2 bound at
//     EVERY level in both runs — the proof that degradation never
//     touches admitted real-time guarantees — along with full
//     reversibility (clamps undone bit-for-bit, admission headroom
//     restored) and a tightened-admission rejection probe at level 3;
//
//   * kill-and-recover episodes: traffic storms, transaction churn,
//     clock jumps and malformed input run against a host that is
//     crashed (CrashSignal) at a crash point cycling over every
//     journal/checkpoint boundary — after-apply, after-append, torn
//     append, before/after-checkpoint, after-compact — then recovered
//     from the persisted images.  Each recovery must be deterministic
//     (two independent recoveries digest-identical), auditor-clean, and
//     packet-conserving (offered = delivered + dropped + residual,
//     checked per crash-free epoch so a crash can only lose in-flight
//     work, never invent it);
//
//   * corrupt-image probes: garbage journals raise typed kBadJournal,
//     corrupt checkpoints kBadCheckpoint, bit-flipped journal interiors
//     degrade to a clean truncated recovery — never a crash.
//
// Soak mode repeats the episode mix under a wall-clock budget with
// fresh seeds; it is the CI-opt-in (HFSC_SOAK=1) long-running variant.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace hfsc {

struct ChaosConfig {
  std::uint64_t seed = 0xC0FFEE;
  // Number of kill-and-recover episodes (each arms exactly one crash;
  // the crash point cycles over the 6 boundary kinds).
  int episodes = 60;
  // Run the overload + differential-twin scenario (slowest single
  // piece; tests can disable it when exercising only crash recovery).
  bool overload_check = true;
  // Soak: keep running episodes until the wall-clock budget is spent.
  bool soak = false;
  int soak_seconds = 60;
};

struct ChaosReport {
  // The seed the run was driven by — echoed in the summary and in
  // every failure message so any red run is reproducible verbatim.
  std::uint64_t seed = 0;
  // Volumes.
  int episodes = 0;
  std::uint64_t offered = 0;    // enqueue attempts, malformed included
  std::uint64_t delivered = 0;  // dequeue successes
  // Crash bookkeeping.
  int crashes = 0;
  int recoveries = 0;
  int torn_appends = 0;
  std::uint64_t replayed_records = 0;
  // Overload scenario.
  int max_gov_level = 0;
  std::uint64_t push_outs = 0;
  TimeNs rt_delay_bound = 0;  // analyzer bound for the rt leaf
  TimeNs rt_delay_max_governed = 0;
  TimeNs rt_delay_max_twin = 0;
  // Every violated expectation, human-readable; empty means the run is
  // fully green.
  std::vector<std::string> failures;

  bool ok() const noexcept { return failures.empty(); }
  std::string to_string() const;
};

ChaosReport run_chaos(const ChaosConfig& cfg);

}  // namespace hfsc
