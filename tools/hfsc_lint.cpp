// hfsc_lint — static analyzer for .hfsc scenario files.
//
//   $ hfsc_lint [--json|--sarif] [--no-portability] [--max-pkt=N]
//               <file.hfsc>...
//
// Parses each scenario and runs the static hierarchy analyzer
// (analysis/analyzer.hpp) over it: exact piecewise-linear rt
// admissibility, Theorem 2 delay bounds from `envelope` directives,
// route-composed end-to-end budgets (min-plus convolution along
// `route` chains, checked against `deadline` directives), curve-shape
// lints and the scheduler-family portability pre-flight — all before a
// single packet is simulated.  Diagnostics carry the parser's file:line
// provenance, editor-style.
//
// --json emits one machine-readable report per file (a bare object for
// one input, a JSON array for several; schema "hfsc-lint-report-v2" in
// docs/ANALYSIS.md) instead of the text report.  --sarif emits one
// SARIF 2.1.0 document aggregating every input file's diagnostics into
// a single run (for code-scanning upload).  --no-portability skips the
// per-family compile pre-flight.  --max-pkt overrides the fallback max
// packet length (default 1500 B) used for the transmission term when no
// source pins one down.
//
// Exit status: 0 when every file is diagnostic-clean (notes are fine),
// 1 when any file has errors or warnings (or fails to parse), 2 on
// usage errors.  tools/ci_check.sh gates scenarios/*.hfsc on exit 0.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "count_flag.hpp"
#include "sim/scenario.hpp"
#include "util/errors.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json|--sarif] [--no-portability] "
               "[--max-pkt=N] <scenario.hfsc>...\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool sarif = false;
  hfsc::AnalysisOptions opts;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--sarif") == 0) {
      sarif = true;
    } else if (std::strcmp(arg, "--no-portability") == 0) {
      opts.portability = false;
    } else if (std::strncmp(arg, "--max-pkt=", 10) == 0) {
      const auto n = parse_count(arg, hfsc::kMaxSanePacketLen);
      if (!n) return 2;
      opts.default_max_pkt = *n;
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() || (json && sarif)) return usage(argv[0]);

  bool all_clean = true;
  const bool many = files.size() > 1;
  std::vector<hfsc::AnalysisReport> reports;  // --sarif: one run over all
  if (json && many) std::printf("[");
  for (std::size_t i = 0; i < files.size(); ++i) {
    try {
      const hfsc::Scenario sc = hfsc::Scenario::parse_file(files[i]);
      hfsc::AnalysisReport report = hfsc::analyze(sc, opts);
      if (json) {
        std::printf("%s%s", i == 0 ? "" : ",", report.to_json().c_str());
      } else if (!sarif) {
        std::printf("%s", report.to_text().c_str());
      }
      if (!report.clean()) all_clean = false;
      if (sarif) reports.push_back(std::move(report));
    } catch (const std::exception& e) {
      // Parse failures are findings too: report and keep linting the
      // remaining inputs so a batch run surfaces every broken file.
      std::fprintf(stderr, "error: %s\n", e.what());
      all_clean = false;
    }
  }
  if (json && many) std::printf("]");
  if (json) std::printf("\n");
  if (sarif) std::printf("%s\n", hfsc::to_sarif(reports).c_str());
  return all_clean ? 0 : 1;
}
