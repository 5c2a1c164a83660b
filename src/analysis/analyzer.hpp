// Static hierarchy/spec analyzer (tools/hfsc_lint).
//
// The paper's guarantees are properties of the *configuration*: the
// real-time curves are honourable iff their sum stays below the link
// curve (Section II, eq. (5)), a session's worst-case delay is the
// horizontal deviation between its arrival envelope and its guaranteed
// service curve (Theorem 2), and the link-sharing goals bind the shares
// of siblings to their parent.  This analyzer proves or refutes those
// properties from a HierarchySpec (or a parsed .hfsc scenario) alone,
// before any packet is simulated, using exact breakpoint-symbolic
// piecewise-linear algebra (curve/piecewise.hpp) — sums, minima,
// dominance and horizontal deviations are never sampled.
//
// Verdicts are differentially validated against the runtime
// (tests/test_analysis_fuzz.cpp): "rt-feasible" agrees with
// AdmissionControl admitting every leaf in any insertion order, and a
// measured scenario delay never exceeds the reported bound.
//
// Diagnostic catalog, math and the JSON schema: docs/ANALYSIS.md.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "config/hierarchy_spec.hpp"
#include "util/types.hpp"

namespace hfsc {

struct Scenario;  // sim/scenario.hpp

enum class Severity { kError, kWarning, kNote };

// "error" / "warning" / "note".
std::string_view to_string(Severity s) noexcept;

// Where a diagnostic anchors in the input.  line == 0 means the spec was
// built programmatically (no file to point at).
struct SourceLoc {
  std::string file;
  std::size_t line = 0;

  // "file:line" when known, else "<spec>".
  std::string to_string() const;
};

struct Diagnostic {
  Severity severity = Severity::kNote;
  std::string id;       // stable kebab-case id, e.g. "rt-link-infeasible"
  std::string cls;      // offending class name; "" for link-level findings
  std::string message;  // human-readable, self-contained
  SourceLoc loc;

  // Editor-style one-liner: "file:12: warning: [id] message".
  std::string to_string() const;
};

// Worst-case queueing delay of a leaf with a declared token-bucket
// arrival envelope (scenario `envelope` directive or ClassSpec env_*
// fields): the maximum horizontal deviation between the envelope and the
// leaf's effective guarantee min(rt, ul_self, ul_ancestors...), plus one
// max-packet transmission time (Theorem 2's non-preemption term).
struct LeafDelayBound {
  std::string cls;
  Bytes env_burst = 0;
  RateBps env_rate = 0;
  // nullopt: the envelope overruns the effective guarantee (the backlog
  // and with it the delay grow without bound).
  std::optional<TimeNs> bound;
  SourceLoc loc;
};

// One hop of a routed flow's end-to-end budget.  The hop's guarantee is
// the class's effective curve min(rt, ul_self, ul_ancestors...) at that
// node, delayed by one max-packet transmission time (Theorem 2's
// non-preemption term folded into the curve), so convolving the hop
// curves along the route yields an end-to-end service curve whose
// horizontal deviation already includes every per-hop transmission term.
struct HopBudget {
  std::string node;
  // Input envelope at this hop: the declared envelope at the first hop,
  // then the deconvolved output envelope of each upstream hop.
  Bytes in_burst = 0;
  RateBps in_rate = 0;
  // Per-hop delay h(E_i, S_i) and backlog v(E_i, S_i) bounds; nullopt
  // when the input envelope overruns the hop guarantee (unbounded).
  std::optional<TimeNs> delay;
  std::optional<Bytes> backlog;
};

// End-to-end network-calculus budget of one routed flow: the arrival
// envelope propagated hop by hop (output envelope E_{i+1} = E_i (/) S_i),
// the per-hop deviations, and the route-composed bound h(E_1, S_1 (*)
// S_2 (*) ...) — tighter than summing per-hop delays because the burst
// is paid only once.
struct FlowBudget {
  std::string cls;
  std::vector<std::string> route;  // node names along the path
  Bytes env_burst = 0;             // declared envelope at the first hop
  RateBps env_rate = 0;
  // Route-composed end-to-end delay bound; nullopt = unbounded (some hop
  // has no rt guarantee or the envelope overruns it).
  std::optional<TimeNs> e2e_delay;
  // Sum of the per-hop backlog bounds (a sound bound on the flow's total
  // buffered bytes across the path).
  std::optional<Bytes> total_backlog;
  // Declared `deadline` budget, if any.
  std::optional<TimeNs> deadline;
  std::vector<HopBudget> hops;
  SourceLoc loc;  // the route directive
};

// Which of the scheduler families the spec compiles to losslessly
// (hierarchy_spec's loss notes, statically evaluated).
struct PortabilityEntry {
  SchedulerKind kind{};
  bool compiles = true;   // false: even the lossy mapping has no target
  bool lossless = false;  // the compile records no loss note
  std::vector<std::string> notes;  // mapping losses (or the fatal error)
};

struct AnalysisOptions {
  // Fallback max packet length when no source/envelope pins one down
  // (Theorem 2's transmission term and the qlimit lint).
  Bytes default_max_pkt = 1500;
  // Skip the per-family portability pre-flight (it compiles the spec
  // seven times; cheap, but pointless for pure feasibility queries).
  bool portability = true;
};

struct AnalysisReport {
  // Input identity (for headers and the JSON "file" field): the scenario
  // file when analyzing a parsed scenario, "" for a programmatic spec.
  std::string file;
  std::size_t num_classes = 0;
  RateBps link_rate = 0;

  std::vector<Diagnostic> diagnostics;

  // Link-level rt admissibility: true iff AdmissionControl would admit
  // every leaf rt curve (proved by running the same exact aggregate over
  // the declaration order; the verdict is order-independent because the
  // aggregate is exact and curves are nonnegative and nondecreasing, so
  // every prefix of a feasible sum is feasible).
  bool rt_feasible = true;
  // Long-term fraction of the link the leaf rt curves reserve.
  double rt_utilization = 0.0;

  std::vector<LeafDelayBound> delay_bounds;
  // End-to-end budgets for every routed flow with a first-hop envelope
  // (multi-node scenarios only).
  std::vector<FlowBudget> flows;
  std::vector<PortabilityEntry> portability;

  std::size_t errors() const noexcept;
  std::size_t warnings() const noexcept;
  std::size_t notes() const noexcept;
  // Clean = nothing severe enough to gate on (notes are fine).
  bool clean() const noexcept { return errors() == 0 && warnings() == 0; }

  // Human-readable report: diagnostics, verdict, bounds, portability.
  std::string to_text() const;
  // Machine-readable report, schema "hfsc-lint-report-v2"
  // (docs/ANALYSIS.md).
  std::string to_json() const;
};

// SARIF 2.1.0 document over one or more reports (one run, one result per
// diagnostic, file:line as region.startLine) — hfsc_lint --sarif; the
// rule/level mapping is documented in docs/ANALYSIS.md.
std::string to_sarif(const std::vector<AnalysisReport>& reports);

// Analyzes a bare spec (no sources: source-aware checks are skipped).
AnalysisReport analyze(const HierarchySpec& spec, RateBps link_rate,
                       const AnalysisOptions& opts = {});

// Analyzes a parsed scenario: spec-level checks plus provenance
// (file:line), per-class max packet sizes from the sources, and the
// source-aware lints (unfed classes).
AnalysisReport analyze(const Scenario& sc, const AnalysisOptions& opts = {});

}  // namespace hfsc
