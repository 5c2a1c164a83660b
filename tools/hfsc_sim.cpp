// hfsc_sim — run a scenario file and print per-class statistics.
//
//   $ hfsc_sim [--audit[=N]] [--admission] [--checkpoint=FILE]
//              [--scheduler=KIND] [--json] scenario.hfsc
//   $ hfsc_sim --compare=KIND[,KIND...] [--json] scenario.hfsc
//   $ hfsc_sim --restore=FILE
//
// --audit enables the runtime invariant auditor (core/auditor.hpp) every
// N scheduler operations during the run (default 256).  --admission
// refuses scenarios whose leaf rt curves oversubscribe the link (one-line
// error naming the class).  --checkpoint writes the scheduler's final
// state to FILE after the run; --restore loads such a file, audits it and
// prints a summary instead of running a scenario.  Parse and scheduler
// errors exit with code 1 and a one-line message.
//
// The static hierarchy analyzer (analysis/analyzer.hpp) has its own
// front-end, tools/hfsc_lint.  A --json run of a routed scenario calls
// it to attach each route's static delay bound ("bound_ms") beside the
// measured percentiles.
//
// --scheduler runs the same hierarchy under another family (hfsc, hpfq,
// cbq, drr, sced, vclock, fifo), overriding the file's `scheduler`
// directive; lossy-mapping notes go to stderr (docs/SCHEDULERS.md).
// --json replaces the human table with a machine-readable report
// (schema "hfsc-sim-report-v1", or "hfsc-sim-compare-v1" under
// --compare) carrying per-class delay histograms, per-node conservation
// counters and end-to-end route rows; docs/SCENARIOS.md documents the
// schema.  Notes stay on stderr either way.
// --compare runs the scenario through several families and prints one
// side-by-side delay/throughput table.  Both are incompatible with
// --checkpoint, which is an H-FSC-only feature.
//
// See src/sim/scenario.hpp for the file format and core/checkpoint.hpp
// for the checkpoint format.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/auditor.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "count_flag.hpp"
#include "sim/chaos.hpp"
#include "sim/scenario.hpp"
#include "util/errors.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--audit[=N]] [--admission] [--checkpoint=FILE] "
               "[--scheduler=KIND] [--json] <scenario-file>\n"
               "       %s --compare=KIND[,KIND...] [--json] <scenario-file>\n"
               "       %s --restore=FILE [--scheduler=KIND]\n"
               "       %s --chaos[=EPISODES] [--seed=N] [--soak[=SECONDS]]\n"
               "KIND: hfsc | hpfq | cbq | drr | sced | vclock | fifo\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

// Parses a comma-separated kind list; prints its own error.
bool parse_kinds(const char* list, std::vector<hfsc::SchedulerKind>* out) {
  std::string tok;
  for (const char* p = list;; ++p) {
    if (*p == ',' || *p == '\0') {
      const auto kind = hfsc::parse_scheduler_kind(tok);
      if (!kind) {
        std::fprintf(stderr, "error: unknown scheduler kind: %s\n",
                     tok.c_str());
        return false;
      }
      out->push_back(*kind);
      tok.clear();
      if (*p == '\0') break;
    } else {
      tok.push_back(*p);
    }
  }
  return !out->empty();
}

int restore_summary(const std::string& file,
                    std::optional<hfsc::SchedulerKind> scheduler) {
  // Checkpoints are scheduler-specific: the format serializes H-FSC
  // runtime-curve state that no other family can rehydrate.  Asking for
  // another family is a typed error, not a silent fallback; a
  // format-version mismatch surfaces as Error{kBadCheckpoint} from
  // restore_checkpoint with the offending version in the message.
  if (scheduler && *scheduler != hfsc::SchedulerKind::kHfsc) {
    throw hfsc::Error(hfsc::Errc::kInvalidArgument,
                      "checkpoint files hold H-FSC state; they cannot be "
                      "restored into scheduler kind '" +
                          std::string(hfsc::to_string(*scheduler)) + "'");
  }
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "error: cannot open checkpoint: %s\n", file.c_str());
    return 1;
  }
  // restore_checkpoint already audits and throws on a dirty state; run
  // the audit again here to print its verdict alongside the summary.
  const hfsc::Hfsc sched = hfsc::restore_checkpoint(in);
  const hfsc::AuditReport report = hfsc::audit(sched);
  std::size_t live = 0;
  for (hfsc::ClassId c = 1; c < sched.num_classes(); ++c) {
    if (!sched.is_deleted(c)) ++live;
  }
  std::printf("checkpoint: %s\n", file.c_str());
  std::printf("classes: %zu live (%zu ids)\n", live,
              static_cast<std::size_t>(sched.num_classes() - 1));
  std::printf("backlog: %zu packets, %llu bytes\n", sched.backlog_packets(),
              static_cast<unsigned long long>(sched.backlog_bytes()));
  std::printf("digest: %016llx\n",
              static_cast<unsigned long long>(hfsc::state_digest(sched)));
  std::printf("audit: %s\n", report.to_string().c_str());
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t audit_every = 0;
  bool admission = false;
  bool json = false;
  bool chaos = false;
  hfsc::ChaosConfig chaos_cfg;
  std::string checkpoint_path;
  std::string restore_path;
  std::optional<hfsc::SchedulerKind> scheduler;
  std::vector<hfsc::SchedulerKind> compare;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--audit") == 0) {
      audit_every = 256;
    } else if (std::strncmp(arg, "--audit=", 8) == 0) {
      const auto n = parse_count(arg, std::numeric_limits<std::size_t>::max());
      if (!n) return 2;
      audit_every = static_cast<std::size_t>(*n);
    } else if (std::strcmp(arg, "--admission") == 0) {
      admission = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--chaos") == 0) {
      chaos = true;
    } else if (std::strncmp(arg, "--chaos=", 8) == 0) {
      const auto n = parse_count(arg, INT_MAX);
      if (!n) return 2;
      chaos = true;
      chaos_cfg.episodes = static_cast<int>(*n);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      const auto n = parse_seed(arg);
      if (!n) return 2;
      chaos_cfg.seed = *n;
    } else if (std::strcmp(arg, "--soak") == 0) {
      chaos_cfg.soak = true;
    } else if (std::strncmp(arg, "--soak=", 7) == 0) {
      const auto n = parse_count(arg, INT_MAX);
      if (!n) return 2;
      chaos_cfg.soak = true;
      chaos_cfg.soak_seconds = static_cast<int>(*n);
    } else if (std::strncmp(arg, "--checkpoint=", 13) == 0) {
      checkpoint_path = arg + 13;
      if (checkpoint_path.empty()) return usage(argv[0]);
    } else if (std::strncmp(arg, "--restore=", 10) == 0) {
      restore_path = arg + 10;
      if (restore_path.empty()) return usage(argv[0]);
    } else if (std::strncmp(arg, "--scheduler=", 12) == 0) {
      scheduler = hfsc::parse_scheduler_kind(arg + 12);
      if (!scheduler) {
        std::fprintf(stderr, "error: unknown scheduler kind: %s\n", arg + 12);
        return 2;
      }
    } else if (std::strncmp(arg, "--compare=", 10) == 0) {
      if (!parse_kinds(arg + 10, &compare)) return 2;
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else if (path == nullptr) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    if (chaos || chaos_cfg.soak) {
      if (path != nullptr || admission || json ||
          audit_every != 0 || !checkpoint_path.empty() ||
          !restore_path.empty() || scheduler || !compare.empty()) {
        return usage(argv[0]);
      }
      const hfsc::ChaosReport report = hfsc::run_chaos(chaos_cfg);
      std::printf("%s\n", report.to_string().c_str());
      return report.ok() ? 0 : 1;
    }
    if (!restore_path.empty()) {
      if (path != nullptr || admission || json || audit_every != 0 ||
          !checkpoint_path.empty() || !compare.empty()) {
        return usage(argv[0]);
      }
      return restore_summary(restore_path, scheduler);
    }
    if (path == nullptr) return usage(argv[0]);
    if (!checkpoint_path.empty() &&
        (!compare.empty() ||
         (scheduler && *scheduler != hfsc::SchedulerKind::kHfsc))) {
      std::fprintf(stderr,
                   "error: --checkpoint requires the hfsc scheduler\n");
      return 2;
    }
    if (!compare.empty() && scheduler) return usage(argv[0]);

    const hfsc::Scenario sc = hfsc::Scenario::parse_file(path);
    hfsc::ScenarioRunOptions opts;
    opts.audit_every = audit_every;
    opts.admission = admission;
    opts.checkpoint_path = checkpoint_path;
    opts.scheduler = scheduler;
    if (!compare.empty()) {
      const hfsc::CompareResult result = hfsc::run_compare(sc, compare, opts);
      for (const hfsc::ScenarioResult& run : result.runs) {
        for (const std::string& note : run.notes) {
          std::fprintf(stderr, "note [%s]: %s\n", run.scheduler.c_str(),
                       note.c_str());
        }
      }
      std::printf("%s", json ? result.to_json().c_str()
                             : result.to_table().c_str());
      return 0;
    }
    hfsc::ScenarioResult result = hfsc::run_scenario(sc, opts);
    for (const std::string& note : result.notes) {
      std::fprintf(stderr, "note: %s\n", note.c_str());
    }
    // Put the analyzer's route-composed delay bound next to the measured
    // end-to-end percentiles ("bound_ms" in the JSON rows).  Analysis
    // failures never fail the run — the bound is advisory decoration.
    if (json && !result.e2e.empty()) {
      try {
        hfsc::AnalysisOptions aopts;
        aopts.portability = false;
        const hfsc::AnalysisReport rep = hfsc::analyze(sc, aopts);
        std::unordered_map<std::string, double> bound_ms;
        for (const hfsc::FlowBudget& f : rep.flows) {
          if (f.e2e_delay) {
            bound_ms[f.cls] = static_cast<double>(*f.e2e_delay) / 1e6;
          }
        }
        for (hfsc::ScenarioResult::EndToEnd& ee : result.e2e) {
          const auto it = bound_ms.find(ee.cls);
          if (it != bound_ms.end()) ee.bound_ms = it->second;
        }
      } catch (const std::exception&) {
      }
    }
    std::printf("%s", json ? result.to_json().c_str()
                           : result.to_table().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
