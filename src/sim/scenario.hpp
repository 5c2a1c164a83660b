// Scenario files: a small declarative language for describing one or
// more scheduling nodes plus a workload, so experiments can be run
// without writing C++ (tools/hfsc_sim reads these).
//
//     # 45 Mb/s campus link
//     link 45Mbps
//     duration 10s
//     class cmu   root  ls linear 25Mbps
//     class audio cmu   rt udr 160 5ms 64kbps   ls linear 64kbps
//     class data  cmu   ls linear 15Mbps  ul linear 20Mbps  qlimit 100
//     source cbr    audio 64kbps 160 0s 10s
//     source greedy data  1500 8 0s 10s
//
// Multi-node topologies wrap class declarations in `node` blocks and wire
// flows across nodes with `route` (full grammar: docs/SCENARIOS.md):
//
//     duration 5s
//     node edge 10Mbps
//       class voice root rt udr 160 5ms 64kbps ls linear 64kbps
//     end
//     node core 45Mbps
//       class voice root rt udr 160 5ms 64kbps ls linear 64kbps
//     end
//     route voice edge core
//     source cbr voice 64kbps 160 0s 5s
//
// Grammar (one directive per line, '#' comments):
//     link <rate>                          (single-node form)
//     duration <time>
//     window <time>                        (throughput window, default 100ms)
//     scheduler <kind>                     (hfsc | hpfq | cbq | drr | sced |
//                                           vclock | fifo; default hfsc)
//     admission                            (gate rt curves — static classes
//                                           at compile, timed `at` creations
//                                           per transaction, rejections
//                                           counted instead of fatal)
//     node <name> <rate>                   (opens a node block; class /
//       ...                                 envelope / source / at
//     end                                   directives inside are scoped
//                                           to the node)
//     route <class> <node> <node> [...]    (multi-hop path; the class must
//                                           be declared on every hop)
//     class <name> <parent|root> [rt <spec>] [ls <spec>] [ul <spec>]
//                                [qlimit <packets>]
//       <spec> := linear <rate>
//               | curve <m1 rate> <d time> <m2 rate>
//               | udr <u bytes> <d time> <r rate>     (Fig. 7 mapping)
//     source cbr     <class> <rate> <pkt bytes> <start> <stop>
//     source poisson <class> <rate> <pkt bytes> <start> <stop> <seed>
//     source onoff   <class> <peak rate> <pkt bytes> <mean_on> <mean_off>
//                    <start> <stop> <seed>
//     source pareto  <class> <peak rate> <pkt bytes> <mean_on> <mean_off>
//                    <alpha> <start> <stop> <seed>
//     source greedy  <class> <pkt bytes> <window pkts> <start> <stop>
//     source tcpish  <class> <pkt bytes> <max window pkts> <start> <stop>
//     source video   <class> <fps> <mean_frame> <max_frame> <mtu>
//                    <start> <stop> <seed>
//     at <time> class <name> <parent> [attrs...]   (timed Txn class create)
//     at <time> delete <class>                     (timed Txn class delete;
//                                                   also stops its sources)
//     at <time> source <kind> <class> <args minus start/stop>
//                                                  (source starts at <time>)
//     at <time> stop <class>                       (stops the class's
//                                                   earlier-started sources)
//     envelope <class> <burst bytes> <rate>
//       (token-bucket arrival envelope A(t) = burst + rate*t the class's
//        traffic is promised to conform to; the static analyzer derives
//        the worst-case delay bound of Theorem 2 from it)
//     deadline <class> <time>
//       (end-to-end delay budget for the class's flow: the static
//        analyzer emits e2e-budget-exceeded when the analytic bound —
//        across the whole route for routed classes — exceeds it)
//
// Units: rates `bps|kbps|Mbps|Gbps` (decimal allowed), times
// `ns|us|ms|s`, byte counts plain integers.  Rates floor to whole
// bytes/s and times to whole ns; a link/node/source rate, duration,
// window or mean_on that floors to zero is an error at its line, and so
// is a greedy/tcpish window above kMaxSourceWindow (2^20) packets.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "config/hierarchy_spec.hpp"
#include "util/types.hpp"

namespace hfsc {

// Unit parsing helpers (exposed for tests and other tools).
RateBps parse_rate(const std::string& tok);   // throws std::runtime_error
TimeNs parse_time(const std::string& tok);    // throws
Bytes parse_bytes(const std::string& tok);    // throws

// One scheduling node of the topology and the classes it schedules.
// Single-node files (the `link` directive) parse into one implicit node
// named "link".
struct ScenarioNode {
  std::string name;
  RateBps rate = 0;
  std::size_t line = 0;  // 0 for the implicit single-node form
  // The node's static classes in declaration order, with their queue
  // limits, envelopes and declaring lines: what every family compiles
  // and the analyzer reads.  Class names are unique per node; the same
  // name on several nodes describes the same flow's per-hop class
  // (wired by `route`).
  HierarchySpec spec;
};

// Largest greedy window or tcpish max window `parse` accepts, in packets.
inline constexpr std::size_t kMaxSourceWindow = std::size_t{1} << 20;

struct ScenarioSource {
  enum class Kind { kCbr, kPoisson, kOnOff, kGreedy, kVideo, kPareto,
                    kTcpish };
  Kind kind{};
  std::string cls;
  // Entry node, resolved after parse: the first hop of the class's route,
  // else its sole declaring node.
  std::string node;
  RateBps rate = 0;
  Bytes pkt_len = 0;
  TimeNs start = 0;
  TimeNs stop = 0;
  std::uint64_t seed = 0;
  TimeNs mean_on = 0;
  TimeNs mean_off = 0;
  double alpha = 0;        // pareto shape; 0 for onoff
  std::size_t window = 0;  // greedy / tcpish, 1..kMaxSourceWindow
  double fps = 0;          // video
  Bytes mean_frame = 0;
  Bytes max_frame = 0;
  Bytes mtu = 0;
  std::size_t line = 0;
};

// Multi-hop path for one class name across node hierarchies.
struct ScenarioRoute {
  std::string cls;
  std::vector<std::string> nodes;
  std::size_t line = 0;
};

// End-to-end delay budget for one class (`deadline` directive).  The
// static analyzer checks its route-composed (or single-hop) delay bound
// against this and reports e2e-budget-exceeded at `line` on overrun.
struct ScenarioDeadline {
  std::string cls;
  TimeNs budget = 0;
  std::size_t line = 0;
};

// A timed control directive (`at <time> ...`).  Class create/delete run
// through Hfsc::Txn at simulation time; source start/stop are resolved
// statically (a stop truncates the effective stop time of the class's
// earlier-started sources).
struct ScenarioEvent {
  enum class Kind { kAddClass, kDeleteClass, kStartSource, kStopSources };
  Kind kind{};
  TimeNs at = 0;
  std::string node;
  HierarchySpec::ClassSpec cls;  // kAddClass payload
  ScenarioSource src;            // kStartSource payload
  std::string target;            // kDeleteClass / kStopSources class name
  std::size_t line = 0;
};

struct Scenario {
  TimeNs duration = 0;
  TimeNs window = msec(100);
  // The name handed to parse() (the path for parse_file) — diagnostic
  // provenance; empty for programmatic scenarios.
  std::string file;
  // Which family runs the hierarchy (`scheduler` directive); the same
  // file compiles for any family via HierarchySpec's mapping rules.
  SchedulerKind scheduler = SchedulerKind::kHfsc;
  // Enable admission control (`admission` directive): static hierarchies
  // are validated at compile time; timed class creations that fail the
  // feasibility check are counted as rejected instead of failing the run.
  bool admission = false;
  // All nodes with their classes, in declaration order.  Always at least
  // one after parse(): a single-node file gets the implicit node "link"
  // at its `link` rate.
  std::vector<ScenarioNode> nodes;
  // True when the file used explicit `node` blocks.
  bool multi_node = false;
  std::vector<ScenarioSource> sources;
  std::vector<ScenarioRoute> routes;
  std::vector<ScenarioDeadline> deadlines;
  std::vector<ScenarioEvent> events;

  // Parses a scenario; throws std::runtime_error with a line number on
  // any malformed directive, unknown class reference, or missing
  // link/duration.  When `name` is non-empty it prefixes every error
  // editor-style ("file.scn:12: ..."); parse_file passes the path.
  static Scenario parse(std::istream& in, const std::string& name = "");
  static Scenario parse_file(const std::string& path);

  // The node called `name` and its classes; null / an empty spec when
  // there is no such node.
  const ScenarioNode* find_node(const std::string& name) const;
  const HierarchySpec& node_hierarchy_spec(const std::string& name) const;
};

// Fixed log-spaced delay-histogram bucket edges in milliseconds (1 us
// doubling up to ~16.8 s).  counts[0] holds samples below edges[0],
// counts[i] samples in [edges[i-1], edges[i]), counts.back() samples at
// or above edges.back(); counts.size() == edges.size() + 1.
const std::vector<double>& delay_hist_edges_ms();
std::vector<std::uint64_t> delay_histogram(const std::vector<double>& ms);

struct ScenarioResult {
  struct PerClass {
    std::string name;
    std::string node;  // owning node ("link" for single-node scenarios)
    std::uint64_t packets = 0;
    Bytes bytes = 0;
    std::uint64_t dropped = 0;
    double mean_delay_ms = 0;
    double p99_delay_ms = 0;
    double max_delay_ms = 0;
    double rate_mbps = 0;
    // Per-class delay histogram over delay_hist_edges_ms().
    std::vector<std::uint64_t> hist;
  };
  // Per-node link utilization and packet-conservation terms:
  //     offered == sent + dropped + rejected + backlog
  // (offered counts source + forwarded-in arrivals; dropped is the sum of
  // per-class drops; rejected the data-path rejection taxonomy; backlog
  // what the scheduler still queues at the end of the run plus a packet
  // caught on the wire mid-transmission).
  struct NodeStats {
    std::string name;
    double link_utilization = 0;
    std::uint64_t offered = 0;
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    std::uint64_t rejected = 0;
    std::uint64_t backlog = 0;
    // Peak occupancy over the run (scheduler backlog plus the packet on
    // the wire), sampled at arrivals — what the analyzer's per-node
    // backlog bounds are validated against.
    std::uint64_t peak_backlog_pkts = 0;
    Bytes peak_backlog_bytes = 0;
    bool conserved() const noexcept {
      return offered == sent + dropped + rejected + backlog;
    }
  };
  // End-to-end statistics for each multi-hop route.
  struct EndToEnd {
    std::string cls;
    std::vector<std::string> route;
    std::uint64_t delivered = 0;
    Bytes bytes = 0;
    double mean_delay_ms = 0;
    double p99_delay_ms = 0;
    double max_delay_ms = 0;
    std::vector<std::uint64_t> hist;
    // Static end-to-end delay bound in milliseconds, attached by
    // tools/hfsc_sim from the analyzer when the scenario carries an
    // envelope for the flow (< 0 = none) — rendered as "bound_ms" next
    // to the measured percentiles in the JSON report.
    double bound_ms = -1;
  };

  // Every reported class across all nodes, declaration order (timed
  // `at`-created classes append after the static ones, per node).
  std::vector<PerClass> per_class;
  std::vector<NodeStats> nodes;
  std::vector<EndToEnd> e2e;
  TimeNs duration = 0;  // simulated time the run covered
  double link_utilization = 0;  // first node's busy fraction over the run
  std::string scheduler;        // display name of the family that ran
  // Lossy-mapping notes the compiler recorded for this family (empty for
  // H-FSC, which expresses the full spec).
  std::vector<std::string> notes;
  // H-FSC state digest after the run (first node; 0 for other families) —
  // the refactor-equivalence tests pin on it.
  std::uint64_t state_digest = 0;
  // Timed class creations refused by admission control (the flash-crowd
  // counter; classes, not packets).
  std::uint64_t classes_rejected = 0;

  // Whole-run conservation totals (sums over nodes).
  std::uint64_t offered() const noexcept;
  std::uint64_t sent() const noexcept;
  std::uint64_t dropped() const noexcept;
  std::uint64_t rejected() const noexcept;
  std::uint64_t backlog() const noexcept;
  bool conserved() const noexcept;

  // Formatted like the experiment binaries' tables.  Single-node results
  // print the historical one-table format byte-for-byte; multi-node
  // results add per-node sections and the end-to-end table.
  std::string to_table() const;
  // Structured report, schema "hfsc-sim-report-v1" (docs/SCENARIOS.md).
  std::string to_json() const;
};

struct ScenarioRunOptions {
  // Run the invariant auditor (core/auditor.hpp) every N scheduler
  // operations during the run; 0 disables.  A violation surfaces as
  // Error{kInvariantViolation}.
  std::size_t audit_every = 0;
  // Gate the hierarchy through admission control at the node's link
  // rate: a scenario whose leaf rt curves oversubscribe the link fails
  // with a one-line error naming the offending class instead of running.
  // (The scenario `admission` directive sets this from the file.)
  bool admission = false;
  // When non-empty, write a checkpoint (core/checkpoint.hpp) of the
  // scheduler's final state to this path after the run.  Checkpointing is
  // an H-FSC feature: combining this with any other family (or a
  // multi-node topology) throws.
  std::string checkpoint_path;
  // Overrides the scenario's `scheduler` directive (hfsc_sim --scheduler).
  std::optional<SchedulerKind> scheduler;
};

// Compiles the scenario's hierarchy for the selected family (the
// `scheduler` directive unless opts.scheduler overrides it) on every
// node, wires the routes, runs the workload (including timed `at`
// events, H-FSC only), gathers statistics.
ScenarioResult run_scenario(const Scenario& sc);
ScenarioResult run_scenario(const Scenario& sc,
                            const ScenarioRunOptions& opts);

// One scenario through several families, side by side (hfsc_sim
// --compare).  The per-run options are applied to every family, except
// checkpoint_path/scheduler which are cleared per run.
struct CompareResult {
  std::vector<ScenarioResult> runs;  // one per requested kind, in order

  // Side-by-side delay/throughput table: one row per class, one column
  // group (mean/p99 delay, rate, drops) per scheduler.
  std::string to_table() const;
  // Structured report, schema "hfsc-sim-compare-v1": one
  // hfsc-sim-report-v1 object per run.
  std::string to_json() const;
};
CompareResult run_compare(const Scenario& sc,
                          const std::vector<SchedulerKind>& kinds,
                          const ScenarioRunOptions& opts = {});

}  // namespace hfsc
