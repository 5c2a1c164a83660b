#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "curve/piecewise.hpp"
#include "sim/scenario.hpp"
#include "util/errors.hpp"
#include "util/json.hpp"

namespace hfsc {

std::string_view to_string(Severity s) noexcept {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

std::string SourceLoc::to_string() const {
  if (line == 0) return "<spec>";
  return file + ":" + std::to_string(line);
}

std::string Diagnostic::to_string() const {
  std::string out = loc.to_string();
  out += ": ";
  out += std::string(hfsc::to_string(severity));
  out += ": [";
  out += id;
  out += "] ";
  out += message;
  return out;
}

namespace {

using ClassSpec = HierarchySpec::ClassSpec;

// Everything the checks need, precomputed once: indices, adjacency,
// provenance, source-derived packet sizes.
struct Ctx {
  const HierarchySpec& spec;
  RateBps link_rate;
  const Scenario* scenario;  // null for bare-spec analysis
  AnalysisOptions opts;

  std::map<std::string, std::size_t> index;          // name -> classes[i]
  std::map<std::string, std::vector<std::size_t>> children;  // "" = root
  std::vector<bool> leaf;
  Bytes global_max_pkt = 0;                // Theorem 2 transmission term
  std::map<std::string, Bytes> class_max_pkt;        // per-leaf, from sources
  std::set<std::string> fed;               // classes at least one source feeds

  AnalysisReport* report;

  void diag(Severity sev, std::string id, const std::string& cls,
            std::string message) {
    Diagnostic d;
    d.severity = sev;
    d.id = std::move(id);
    d.cls = cls;
    d.message = std::move(message);
    d.loc = loc_of(cls);
    report->diagnostics.push_back(std::move(d));
  }

  SourceLoc loc_of(const std::string& cls) const {
    SourceLoc loc;
    if (scenario == nullptr || cls.empty()) return loc;
    for (const ScenarioClass& c : scenario->classes) {
      if (c.name == cls) {
        loc.file = scenario->file;
        loc.line = c.line;
        break;
      }
    }
    return loc;
  }

  Bytes max_pkt_of(const std::string& cls) const {
    const auto it = class_max_pkt.find(cls);
    if (it != class_max_pkt.end()) return it->second;
    return global_max_pkt;
  }

  // Leaves of the subtree rooted at `name` (the class itself if a leaf),
  // in declaration order.
  std::vector<std::size_t> subtree_leaves(const std::string& name) const {
    std::vector<std::size_t> out;
    std::vector<std::string> stack{name};
    while (!stack.empty()) {
      const std::string cur = std::move(stack.back());
      stack.pop_back();
      const std::size_t i = index.at(cur);
      if (leaf[i]) {
        out.push_back(i);
        continue;
      }
      const auto it = children.find(cur);
      if (it == children.end()) continue;
      for (const std::size_t c : it->second) {
        stack.push_back(spec.classes[c].name);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

std::string fmt_mbps(RateBps r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f Mb/s",
                static_cast<double>(r) * 8.0 / 1e6);
  return buf;
}

std::string fmt_ms(TimeNs t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms", static_cast<double>(t) / 1e6);
  return buf;
}

// ---------------------------------------------------------------- checks

// (a) Link-level rt admissibility — the *same* check the runtime uses:
// admit every leaf rt curve through an AdmissionControl in declaration
// order.  AdmissionControl keeps its aggregate exactly, so the verdict is
// order-independent: it is "the total sum fits under the link curve"
// (curves are nonnegative and nondecreasing, so every prefix of a
// feasible sum fits too), the runtime reaches the same verdict whatever
// order its classes arrived in, and the differential fuzzer re-proves it
// against shuffled insertion orders.
void check_link_admissibility(Ctx& ctx) {
  AdmissionControl ac(ctx.link_rate);
  RateBps reserved = 0;  // every leaf's long-term rate, even past a rejection
  for (std::size_t i = 0; i < ctx.spec.classes.size(); ++i) {
    const ClassSpec& c = ctx.spec.classes[i];
    if (!ctx.leaf[i] || c.rt.is_zero()) continue;
    reserved += c.rt.m2;
    if (!ac.admit(c.rt)) {
      ctx.report->rt_feasible = false;
      ctx.diag(Severity::kError, "rt-link-infeasible", c.name,
               "real-time curve " + to_string(c.rt) +
                   " pushes the aggregate rt obligation above the link "
                   "curve (" +
                   fmt_mbps(ctx.link_rate) +
                   "); the paper's admission condition (Section II, eq. "
                   "(5)) is violated and AdmissionControl would reject "
                   "this hierarchy");
    }
  }
  ctx.report->rt_utilization =
      static_cast<double>(reserved) / static_cast<double>(ctx.link_rate);
}

// (a, recursive) Upper-limit feasibility at every node that declares an
// ul curve: the subtree's aggregate rt guarantee must fit under the cap,
// otherwise the guarantee is unfulfillable no matter what the link does.
void check_ul_admissibility(Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.spec.classes.size(); ++i) {
    const ClassSpec& c = ctx.spec.classes[i];
    if (c.ul.is_zero()) continue;
    PiecewiseLinear sum;
    bool any = false;
    for (const std::size_t l : ctx.subtree_leaves(c.name)) {
      const ClassSpec& leaf = ctx.spec.classes[l];
      if (leaf.rt.is_zero()) continue;
      sum = sum.sum(PiecewiseLinear::from_service_curve(leaf.rt));
      any = true;
    }
    if (!any) continue;
    const PiecewiseLinear cap = PiecewiseLinear::from_service_curve(c.ul);
    if (!cap.dominates(sum)) {
      ctx.diag(Severity::kError, "rt-ul-infeasible", c.name,
               (ctx.leaf[i]
                    ? std::string("the class's own rt curve ")
                    : std::string("the aggregate rt guarantee of the "
                                  "subtree's leaves ")) +
                   "exceeds the upper-limit curve " + to_string(c.ul) +
                   " somewhere: the cap makes the real-time guarantee "
                   "unfulfillable");
    }
  }
}

// (c) Curve-shape lints.
void check_curve_shapes(Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.spec.classes.size(); ++i) {
    const ClassSpec& c = ctx.spec.classes[i];

    if (!ctx.leaf[i] && !c.rt.is_zero()) {
      ctx.diag(Severity::kWarning, "rt-on-interior", c.name,
               "interior class declares an rt curve; only leaf classes "
               "receive real-time guarantees (the runtime keeps it inert "
               "until every child is deleted)");
    }

    if (!c.ls.is_zero()) {
      if (c.ls.rate() == 0) {
        ctx.diag(Severity::kWarning, "ls-zero-slope", c.name,
                 "link-sharing curve " + to_string(c.ls) +
                     " goes flat after " + fmt_ms(c.ls.d) +
                     ": once the first segment is spent the class stops "
                     "competing for bandwidth and its backlog can grow "
                     "without bound");
      } else if (c.ls.m1 == 0 && c.ls.d > 0) {
        ctx.diag(Severity::kWarning, "ls-zero-slope", c.name,
                 "link-sharing curve " + to_string(c.ls) +
                     " has a zero-slope first segment: the class receives "
                     "no share for the first " + fmt_ms(c.ls.d) +
                     " of every backlog period");
      }
    }

    if (!c.ul.is_zero() && !c.ls.is_zero()) {
      const PiecewiseLinear cap = PiecewiseLinear::from_service_curve(c.ul);
      const PiecewiseLinear share = PiecewiseLinear::from_service_curve(c.ls);
      if (!cap.dominates(share)) {
        ctx.diag(Severity::kWarning, "ul-below-ls", c.name,
                 "upper-limit curve " + to_string(c.ul) +
                     " does not dominate the link-sharing curve " +
                     to_string(c.ls) +
                     ": part of the declared share can never be "
                     "delivered (lower ls to the cap, or raise ul)");
      }
    }
  }
}

// (c) Link-sharing consistency: children's long-term shares must fit in
// the parent's (the link's, at top level).  Transient (first-segment)
// excess is fine — that is what borrowing is for — so only tail rates
// are compared.
void check_ls_shares(Ctx& ctx) {
  for (const auto& [parent, kids] : ctx.children) {
    RateBps sum = 0;
    for (const std::size_t k : kids) sum += ctx.spec.classes[k].ls.rate();
    if (sum == 0) continue;
    RateBps capacity;
    std::string where;
    if (parent.empty()) {
      capacity = ctx.link_rate;
      where = "the link rate";
    } else {
      const ClassSpec& p = ctx.spec.classes[ctx.index.at(parent)];
      if (p.ls.is_zero()) continue;  // share undefined; nothing to bind to
      capacity = p.ls.rate();
      where = "parent '" + parent + "'s long-term share";
    }
    if (sum > capacity) {
      const std::string cls = parent.empty() ? "" : parent;
      ctx.diag(Severity::kWarning, "ls-oversubscribed", cls,
               "children's link-sharing shares sum to " + fmt_mbps(sum) +
                   ", exceeding " + where + " (" + fmt_mbps(capacity) +
                   "): the shares are nominal rates and cannot all be "
                   "honoured at once");
      // Under an oversubscribed parent a leaf cannot count on its
      // nominal share, so a leaf with no queue limit has no bound on
      // its backlog at exactly the moment load exceeds service — the
      // overload case the robustness runtime exists for.
      for (const std::size_t k : kids) {
        const ClassSpec& kid = ctx.spec.classes[k];
        if (ctx.leaf[k] && kid.qlimit == 0) {
          ctx.diag(Severity::kWarning, "qlimit-unbounded", kid.name,
                   "leaf has no queue limit under an oversubscribed "
                   "parent: its backlog is unbounded precisely when the "
                   "siblings' load exceeds the shared capacity; set a "
                   "qlimit sized to the expected burst");
        }
      }
    }
  }

  // Sustained rt load above an interior node's share punishes siblings
  // (the fairness tension of Section III): the subtree's guarantees are
  // still met, but only by permanently borrowing the siblings' share.
  for (std::size_t i = 0; i < ctx.spec.classes.size(); ++i) {
    const ClassSpec& c = ctx.spec.classes[i];
    if (ctx.leaf[i] || c.ls.is_zero()) continue;
    RateBps rt_sum = 0;
    for (const std::size_t l : ctx.subtree_leaves(c.name)) {
      rt_sum += ctx.spec.classes[l].rt.rate();
    }
    if (rt_sum > c.ls.rate()) {
      ctx.diag(Severity::kWarning, "rt-over-ls", c.name,
               "the subtree's leaves reserve " + fmt_mbps(rt_sum) +
                   " of sustained real-time service, more than the "
                   "class's own long-term share (" + fmt_mbps(c.ls.rate()) +
                   "): the guarantees hold, but only by permanently "
                   "borrowing from siblings");
    }
  }
}

// (c) Queue limits vs declared bursts, and source-aware lints.
void check_queues_and_sources(Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.spec.classes.size(); ++i) {
    const ClassSpec& c = ctx.spec.classes[i];
    if (!ctx.leaf[i]) {
      if (c.env_burst != 0 || c.env_rate != 0) {
        ctx.diag(Severity::kWarning, "envelope-on-interior", c.name,
                 "arrival envelope declared on an interior class; "
                 "envelopes describe leaf traffic and this one is "
                 "ignored");
      }
      continue;
    }
    if (c.qlimit != 0 && c.env_burst != 0) {
      const Bytes pkt = ctx.max_pkt_of(c.name);
      const Bytes capacity = static_cast<Bytes>(c.qlimit) * pkt;
      if (capacity < c.env_burst) {
        ctx.diag(Severity::kWarning, "qlimit-lt-burst", c.name,
                 "queue limit of " + std::to_string(c.qlimit) +
                     " packets (" + std::to_string(pkt) +
                     " B each) cannot hold the declared burst of " +
                     std::to_string(c.env_burst) +
                     " B: conformant traffic is guaranteed to be "
                     "tail-dropped");
      }
    }
    if (ctx.scenario != nullptr && !ctx.fed.count(c.name)) {
      ctx.diag(Severity::kNote, "class-unfed", c.name,
               "no source feeds this leaf; it reserves resources but "
               "carries no traffic in this scenario");
    }
  }
}

// (b) Per-leaf worst-case delay bounds (Theorem 2): the exact horizontal
// deviation between the declared arrival envelope and the leaf's
// *effective* guarantee min(rt, ul_self, ul_ancestors...), plus one
// max-packet transmission time for non-preemption.
void check_delay_bounds(Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.spec.classes.size(); ++i) {
    const ClassSpec& c = ctx.spec.classes[i];
    if (!ctx.leaf[i]) continue;
    const bool has_env = c.env_burst != 0 || c.env_rate != 0;
    if (c.rt.is_zero()) {
      if (has_env) {
        ctx.diag(Severity::kNote, "envelope-without-rt", c.name,
                 "arrival envelope declared but the class has no rt "
                 "curve: there is no guaranteed service curve to bound "
                 "its delay against");
      }
      continue;
    }
    if (!has_env) {
      ctx.diag(Severity::kNote, "no-envelope", c.name,
               "rt class has no declared arrival envelope; add "
               "`envelope " + c.name +
                   " <burst> <rate>` to obtain a worst-case delay bound");
      continue;
    }

    // Effective guarantee: the rt curve capped by every upper limit on
    // the root path (exact pointwise min).
    PiecewiseLinear effective = PiecewiseLinear::from_service_curve(c.rt);
    std::string cur = c.name;
    while (true) {
      const ClassSpec& node = ctx.spec.classes[ctx.index.at(cur)];
      if (!node.ul.is_zero()) {
        effective =
            effective.min(PiecewiseLinear::from_service_curve(node.ul));
      }
      if (ClassSpec::is_top_level(node.parent)) break;
      cur = node.parent;
    }

    LeafDelayBound b;
    b.cls = c.name;
    b.env_burst = c.env_burst;
    b.env_rate = c.env_rate;
    b.loc = ctx.loc_of(c.name);
    if (ctx.scenario != nullptr) {
      for (const ScenarioClass& scn : ctx.scenario->classes) {
        if (scn.name == c.name && scn.env_line != 0) {
          b.loc.line = scn.env_line;
          break;
        }
      }
    }
    const PiecewiseLinear env =
        PiecewiseLinear::token_bucket(c.env_burst, c.env_rate);
    const auto gap = env.max_horizontal_gap(effective);
    if (!gap) {
      ctx.diag(Severity::kWarning, "envelope-overruns-service", c.name,
               "the arrival envelope (burst " +
                   std::to_string(c.env_burst) + " B, rate " +
                   fmt_mbps(c.env_rate) +
                   ") overruns the effective guarantee: the worst-case "
                   "delay is unbounded (raise the rt curve, lower the "
                   "envelope, or relax an upper limit on the root path)");
      b.bound = std::nullopt;
    } else {
      b.bound = sat_add(*gap, tx_time(ctx.global_max_pkt, ctx.link_rate));
    }
    ctx.report->delay_bounds.push_back(std::move(b));
  }
}

// (d) Scheduler-family portability pre-flight: which families accept the
// spec losslessly (strict mode), which degrade it (and how), which
// cannot express it at all.
void check_portability(Ctx& ctx) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    PortabilityEntry e;
    e.kind = kind;
    HierarchySpec::CompileOptions strict;
    strict.strict = true;
    try {
      (void)ctx.spec.compile(kind, ctx.link_rate, strict);
      e.lossless = true;
    } catch (const std::exception&) {
      e.lossless = false;
    }
    if (!e.lossless) {
      try {
        HierarchySpec::Compiled lossy =
            ctx.spec.compile(kind, ctx.link_rate, {});
        e.notes = std::move(lossy.notes);
      } catch (const std::exception& ex) {
        e.compiles = false;
        e.notes = {ex.what()};
      }
    }
    ctx.report->portability.push_back(std::move(e));
  }
}

// ------------------------------------------------ end-to-end route walk

// Effective guarantee of `cls` inside one node's hierarchy: the rt curve
// capped by every upper limit on the root path (the same min-fold as
// check_delay_bounds).  nullopt when the class is absent or has no rt
// curve there — the hop then offers no guaranteed service at all.
std::optional<PiecewiseLinear> hop_guarantee(const HierarchySpec& spec,
                                             const std::string& cls) {
  std::map<std::string, const ClassSpec*> by_name;
  for (const ClassSpec& c : spec.classes) by_name[c.name] = &c;
  const auto it = by_name.find(cls);
  if (it == by_name.end() || it->second->rt.is_zero()) return std::nullopt;
  PiecewiseLinear eff = PiecewiseLinear::from_service_curve(it->second->rt);
  const ClassSpec* cur = it->second;
  while (true) {
    if (!cur->ul.is_zero()) {
      eff = eff.min(PiecewiseLinear::from_service_curve(cur->ul));
    }
    if (ClassSpec::is_top_level(cur->parent)) break;
    cur = by_name.at(cur->parent);
  }
  return eff;
}

// Largest packet a node can have on the wire: sources entering at the
// node plus routed flows passing through it (their packets are forwarded
// in unchanged).  Theorem 2's non-preemption term at that hop.
Bytes node_max_pkt(const Scenario& sc, const std::string& node,
                   Bytes fallback) {
  Bytes m = fallback;
  for (const ScenarioSource& s : sc.sources) {
    const Bytes pkt =
        s.kind == ScenarioSource::Kind::kVideo ? s.mtu : s.pkt_len;
    bool touches = s.node == node;
    if (!touches) {
      if (const ScenarioRoute* r = sc.find_route(s.cls)) {
        touches = std::find(r->nodes.begin(), r->nodes.end(), node) !=
                  r->nodes.end();
      }
    }
    if (touches) m = std::max(m, pkt);
  }
  return m;
}

// Largest packet the flow itself sends (qlimit capacity sizing).
Bytes flow_max_pkt(const Scenario& sc, const std::string& cls,
                   Bytes fallback) {
  Bytes m = 0;
  for (const ScenarioSource& s : sc.sources) {
    if (s.cls != cls) continue;
    m = std::max(
        m, s.kind == ScenarioSource::Kind::kVideo ? s.mtu : s.pkt_len);
  }
  return m == 0 ? fallback : m;
}

const ScenarioClass* find_scenario_class(const Scenario& sc,
                                         const std::string& node,
                                         const std::string& cls) {
  for (const ScenarioClass& c : sc.classes) {
    if (c.node == node && c.name == cls) return &c;
  }
  return nullptr;
}

void push_diag(AnalysisReport& report, Severity sev, std::string id,
               std::string cls, std::string message, SourceLoc loc) {
  Diagnostic d;
  d.severity = sev;
  d.id = std::move(id);
  d.cls = std::move(cls);
  d.message = std::move(message);
  d.loc = std::move(loc);
  report.diagnostics.push_back(std::move(d));
}

// The tentpole: walk every route, compose the per-hop guarantees with
// min-plus convolution, propagate the arrival envelope by deconvolution,
// and report per-hop and end-to-end budgets.
//
// Per hop i the guarantee is S_i = min(rt, ul_self, ul_ancestors...)
// delayed by one max-packet transmission time (folding Theorem 2's
// non-preemption term into the curve).  Then, writing E_1 for the
// declared first-hop envelope:
//     hop delay_i    = h(E_i, S_i)        (horizontal deviation)
//     hop backlog_i  = v(E_i, S_i)        (vertical deviation)
//     E_{i+1}        = E_i (/) S_i        (output envelope, deconvolution)
//     e2e delay      = h(E_1, S_1 (*) S_2 (*) ...)
// The composed bound pays the burst only once, so it is never worse —
// and usually much better — than the sum of the per-hop bounds.  Every
// curve operation is conservative in the safe direction (convolution
// floors service down, deconvolution rounds envelopes up), so the
// reported bounds remain sound upper bounds.
void check_routes(const Scenario& sc, const AnalysisOptions& opts,
                  AnalysisReport& report) {
  for (const ScenarioRoute& r : sc.routes) {
    const SourceLoc rloc{sc.file, r.line};
    const ScenarioClass* first =
        find_scenario_class(sc, r.nodes.front(), r.cls);
    if (first == nullptr) continue;  // parser rejects this; stay safe
    if (first->env_burst == 0 && first->env_rate == 0) {
      push_diag(report, Severity::kNote, "route-no-envelope", r.cls,
                "routed flow has no arrival envelope at its first hop; "
                "declare `envelope " + r.cls +
                    " <burst> <rate>` inside node " + r.nodes.front() +
                    " to obtain end-to-end delay and backlog bounds",
                rloc);
      continue;
    }

    FlowBudget fb;
    fb.cls = r.cls;
    fb.route = r.nodes;
    fb.env_burst = first->env_burst;
    fb.env_rate = first->env_rate;
    fb.loc = rloc;

    const PiecewiseLinear env =
        PiecewiseLinear::token_bucket(first->env_burst, first->env_rate);
    std::optional<PiecewiseLinear> hop_env = env;  // E_i
    std::optional<PiecewiseLinear> e2e;            // S_1 (*) ... (*) S_i
    bool all_hops_guaranteed = true;

    for (const std::string& nname : r.nodes) {
      const ScenarioNode* node = sc.find_node(nname);
      if (node == nullptr) continue;  // parser rejects this too
      HopBudget hb;
      hb.node = nname;
      if (hop_env) {
        hb.in_burst = hop_env->pieces().front().y;
        hb.in_rate = hop_env->tail_rate();
      }
      const auto g = hop_guarantee(sc.node_hierarchy_spec(nname), r.cls);
      if (!g) {
        push_diag(report, Severity::kNote, "route-hop-without-rt",
                  nname + "." + r.cls,
                  "hop " + nname + " gives the routed flow no rt "
                  "guarantee; the end-to-end bound is unbounded",
                  rloc);
        all_hops_guaranteed = false;
        fb.hops.push_back(std::move(hb));
        break;
      }
      const PiecewiseLinear shifted = g->delayed(
          tx_time(node_max_pkt(sc, nname, opts.default_max_pkt),
                  node->rate));
      e2e = e2e ? e2e->convolve(shifted) : shifted;
      if (hop_env) {
        hb.delay = hop_env->max_horizontal_gap(shifted);
        hb.backlog = hop_env->max_vertical_gap(shifted);
        const ScenarioClass* hc = find_scenario_class(sc, nname, r.cls);
        if (hc != nullptr && hc->qlimit != 0 && hb.backlog) {
          const Bytes pkt = flow_max_pkt(sc, r.cls, opts.default_max_pkt);
          const Bytes capacity = static_cast<Bytes>(hc->qlimit) * pkt;
          if (*hb.backlog > capacity) {
            push_diag(
                report, Severity::kWarning, "hop-backlog-over-qlimit",
                nname + "." + r.cls,
                "worst-case backlog of the routed flow at hop " + nname +
                    " is " + std::to_string(*hb.backlog) +
                    " B, more than the queue limit of " +
                    std::to_string(hc->qlimit) + " packets (" +
                    std::to_string(pkt) +
                    " B each) can hold: conformant traffic can be "
                    "tail-dropped mid-route",
                SourceLoc{sc.file, hc->line});
          }
        }
        hop_env = hop_env->deconvolve(shifted);
      }
      fb.hops.push_back(std::move(hb));
    }

    if (all_hops_guaranteed && e2e) {
      fb.e2e_delay = env.max_horizontal_gap(*e2e);
    }
    Bytes total = 0;
    bool have_total = !fb.hops.empty() && all_hops_guaranteed;
    for (const HopBudget& h : fb.hops) {
      if (!h.backlog) {
        have_total = false;
        break;
      }
      total = sat_add(total, *h.backlog);
    }
    if (have_total) fb.total_backlog = total;
    report.flows.push_back(std::move(fb));
  }
}

// `deadline` budgets: routed flows check against the route-composed
// bound, single-hop classes against their Theorem 2 bound.  The error
// anchors at the deadline directive itself (exact file:line).
void check_deadlines(const Scenario& sc, AnalysisReport& report) {
  for (const ScenarioDeadline& dl : sc.deadlines) {
    const SourceLoc dloc{sc.file, dl.line};
    if (sc.find_route(dl.cls) != nullptr) {
      for (FlowBudget& f : report.flows) {
        if (f.cls != dl.cls) continue;
        f.deadline = dl.budget;
        if (!f.e2e_delay) {
          push_diag(report, Severity::kError, "e2e-budget-exceeded", dl.cls,
                    "end-to-end delay of routed flow " + dl.cls +
                        " is unbounded (no finite bound can meet the "
                        "deadline of " + fmt_ms(dl.budget) + ")",
                    dloc);
        } else if (*f.e2e_delay > dl.budget) {
          push_diag(report, Severity::kError, "e2e-budget-exceeded", dl.cls,
                    "end-to-end delay bound " + fmt_ms(*f.e2e_delay) +
                        " of routed flow " + dl.cls +
                        " exceeds the declared deadline of " +
                        fmt_ms(dl.budget),
                    dloc);
        }
      }
      // A routed class without a first-hop envelope has no FlowBudget
      // row: the deadline is then unverifiable.
      const bool has_row =
          std::any_of(report.flows.begin(), report.flows.end(),
                      [&](const FlowBudget& f) { return f.cls == dl.cls; });
      if (!has_row) {
        push_diag(report, Severity::kWarning, "deadline-unverifiable",
                  dl.cls,
                  "deadline declared for routed flow " + dl.cls +
                      " but its first hop has no arrival envelope, so no "
                      "end-to-end bound can be derived",
                  dloc);
      }
      continue;
    }
    // Unrouted class: compare every per-node Theorem 2 bound ("cls" in
    // single-node reports, "node.cls" in multi-node ones).
    bool found = false;
    for (const LeafDelayBound& b : report.delay_bounds) {
      const bool match =
          b.cls == dl.cls ||
          (b.cls.size() > dl.cls.size() + 1 &&
           b.cls.compare(b.cls.size() - dl.cls.size() - 1,
                         std::string::npos, "." + dl.cls) == 0);
      if (!match) continue;
      found = true;
      if (!b.bound) {
        push_diag(report, Severity::kError, "e2e-budget-exceeded", b.cls,
                  "worst-case delay of " + b.cls +
                      " is unbounded (no finite bound can meet the "
                      "deadline of " + fmt_ms(dl.budget) + ")",
                  dloc);
      } else if (*b.bound > dl.budget) {
        push_diag(report, Severity::kError, "e2e-budget-exceeded", b.cls,
                  "worst-case delay bound " + fmt_ms(*b.bound) + " of " +
                      b.cls + " exceeds the declared deadline of " +
                      fmt_ms(dl.budget),
                  dloc);
      }
    }
    if (!found) {
      push_diag(report, Severity::kWarning, "deadline-unverifiable", dl.cls,
                "deadline declared for " + dl.cls +
                    " but no delay bound is derivable (the class needs "
                    "both an rt curve and an arrival envelope)",
                dloc);
    }
  }
}

AnalysisReport analyze_impl(const HierarchySpec& spec, RateBps link_rate,
                            const Scenario* scenario,
                            const AnalysisOptions& opts) {
  ensure(link_rate > 0, Errc::kInvalidArgument,
         "analysis link rate must be > 0");
  spec.validate();

  AnalysisReport report;
  report.file = scenario != nullptr ? scenario->file : "";
  report.num_classes = spec.classes.size();
  report.link_rate = link_rate;
  Ctx ctx{spec, link_rate, scenario, opts, {}, {}, {}, 0, {}, {}, &report};

  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    ctx.index[spec.classes[i].name] = i;
    const std::string& parent = spec.classes[i].parent;
    ctx.children[ClassSpec::is_top_level(parent) ? "" : parent].push_back(i);
  }
  ctx.leaf.resize(spec.classes.size());
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    ctx.leaf[i] = spec.is_leaf(spec.classes[i].name);
  }

  ctx.global_max_pkt = opts.default_max_pkt;
  if (scenario != nullptr) {
    for (const ScenarioSource& s : scenario->sources) {
      const Bytes pkt =
          s.kind == ScenarioSource::Kind::kVideo ? s.mtu : s.pkt_len;
      ctx.global_max_pkt = std::max(ctx.global_max_pkt, pkt);
      Bytes& per = ctx.class_max_pkt[s.cls];
      per = std::max(per, pkt);
      ctx.fed.insert(s.cls);
    }
  }

  check_link_admissibility(ctx);
  check_ul_admissibility(ctx);
  check_curve_shapes(ctx);
  check_ls_shares(ctx);
  check_queues_and_sources(ctx);
  check_delay_bounds(ctx);
  if (opts.portability) check_portability(ctx);

  return report;
}

}  // namespace

AnalysisReport analyze(const HierarchySpec& spec, RateBps link_rate,
                       const AnalysisOptions& opts) {
  return analyze_impl(spec, link_rate, nullptr, opts);
}

AnalysisReport analyze(const Scenario& sc, const AnalysisOptions& opts) {
  AnalysisReport report;
  if (!sc.multi_node) {
    const HierarchySpec spec = sc.to_hierarchy_spec();
    report = analyze_impl(spec, sc.link_rate, &sc, opts);
  } else {
    // Multi-node topology: each node's hierarchy is admitted against its
    // own link, so run the whole analysis once per node on a filtered
    // single-node view and merge, tagging findings "node.class".
    report.file = sc.file;
    report.link_rate = sc.link_rate;
    for (const ScenarioNode& node : sc.nodes) {
      Scenario sub;
      sub.file = sc.file;
      sub.link_rate = node.rate;
      sub.duration = sc.duration;
      sub.window = sc.window;
      sub.scheduler = sc.scheduler;
      sub.admission = sc.admission;
      sub.nodes.push_back(ScenarioNode{node.name, node.rate, node.line});
      for (const ScenarioClass& c : sc.classes) {
        if (c.node == node.name) sub.classes.push_back(c);
      }
      for (const ScenarioSource& s : sc.sources) {
        if (s.node == node.name) sub.sources.push_back(s);
      }
      // A routed class is fed on its later hops by the upstream node, not
      // by a source directive: synthesize the entry-hop sources there so
      // the unfed lint doesn't misfire and packet sizes still propagate
      // into the Theorem 2 transmission term.
      for (const ScenarioRoute& r : sc.routes) {
        if (std::find(r.nodes.begin() + 1, r.nodes.end(), node.name) ==
            r.nodes.end()) {
          continue;
        }
        for (const ScenarioSource& s : sc.sources) {
          if (s.cls != r.cls) continue;
          ScenarioSource fwd = s;
          fwd.node = node.name;
          sub.sources.push_back(std::move(fwd));
        }
      }
      const HierarchySpec spec = sub.to_hierarchy_spec();
      AnalysisReport rep = analyze_impl(spec, node.rate, &sub, opts);
      report.num_classes += rep.num_classes;
      report.rt_feasible = report.rt_feasible && rep.rt_feasible;
      report.rt_utilization =
          std::max(report.rt_utilization, rep.rt_utilization);
      for (Diagnostic& d : rep.diagnostics) {
        d.cls = d.cls.empty() ? node.name : node.name + "." + d.cls;
        report.diagnostics.push_back(std::move(d));
      }
      for (LeafDelayBound& b : rep.delay_bounds) {
        b.cls = node.name + "." + b.cls;
        report.delay_bounds.push_back(std::move(b));
      }
      for (PortabilityEntry& e : rep.portability) {
        for (std::string& n : e.notes) n = node.name + ": " + n;
      }
      if (report.portability.empty()) {
        report.portability = std::move(rep.portability);
      } else {
        for (std::size_t i = 0; i < rep.portability.size(); ++i) {
          PortabilityEntry& m = report.portability[i];
          PortabilityEntry& e = rep.portability[i];
          m.compiles = m.compiles && e.compiles;
          m.lossless = m.lossless && e.lossless;
          for (std::string& n : e.notes) m.notes.push_back(std::move(n));
        }
      }
    }
    check_routes(sc, opts, report);
  }
  check_deadlines(sc, report);
  if (!sc.events.empty()) {
    Diagnostic d;
    d.severity = Severity::kNote;
    d.id = "timed-events-unanalyzed";
    d.message = std::to_string(sc.events.size()) +
                " timed `at` event(s) are applied at run time "
                "(admission-gated when `admission` is set) and are outside "
                "the static analysis";
    d.loc.file = sc.file;
    d.loc.line = sc.events.front().line;
    report.diagnostics.push_back(std::move(d));
  }
  return report;
}

// ---------------------------------------------------------------- output

std::size_t AnalysisReport::errors() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::kError;
                    }));
}

std::size_t AnalysisReport::warnings() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::kWarning;
                    }));
}

std::size_t AnalysisReport::notes() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::kNote;
                    }));
}

std::string AnalysisReport::to_text() const {
  std::ostringstream os;
  os << (file.empty() ? "<spec>" : file) << ": " << num_classes
     << " classes, link " << fmt_mbps(link_rate) << "\n";
  for (const Diagnostic& d : diagnostics) os << d.to_string() << "\n";
  os << "rt admissibility: "
     << (rt_feasible ? "feasible" : "INFEASIBLE");
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  " (long-term reservation %.1f%% of the link)\n",
                  rt_utilization * 100.0);
    os << buf;
  }
  if (!delay_bounds.empty()) {
    os << "worst-case delay bounds (Theorem 2):\n";
    for (const LeafDelayBound& b : delay_bounds) {
      os << "  " << b.cls << ": ";
      if (b.bound) {
        os << fmt_ms(*b.bound);
      } else {
        os << "unbounded";
      }
      os << "  (envelope burst " << b.env_burst << " B, rate "
         << fmt_mbps(b.env_rate) << ")\n";
    }
  }
  if (!flows.empty()) {
    os << "end-to-end budgets (min-plus route composition):\n";
    for (const FlowBudget& f : flows) {
      os << "  " << f.cls << " via";
      for (const std::string& n : f.route) os << " " << n;
      os << ": delay "
         << (f.e2e_delay ? fmt_ms(*f.e2e_delay) : std::string("unbounded"));
      if (f.total_backlog) {
        os << ", backlog <= " << *f.total_backlog << " B";
      }
      if (f.deadline) os << ", deadline " << fmt_ms(*f.deadline);
      os << "  (envelope burst " << f.env_burst << " B, rate "
         << fmt_mbps(f.env_rate) << ")\n";
      for (const HopBudget& h : f.hops) {
        os << "    " << h.node << ": delay "
           << (h.delay ? fmt_ms(*h.delay) : std::string("unbounded"))
           << ", backlog "
           << (h.backlog ? std::to_string(*h.backlog) + " B"
                         : std::string("unbounded"))
           << "  (in burst " << h.in_burst << " B, rate "
           << fmt_mbps(h.in_rate) << ")\n";
      }
    }
  }
  if (!portability.empty()) {
    os << "portability:";
    for (const PortabilityEntry& e : portability) {
      os << " " << to_string(e.kind) << "="
         << (e.lossless
                 ? "lossless"
                 : (e.compiles
                        ? "lossy(" + std::to_string(e.notes.size()) + ")"
                        : "impossible"));
    }
    os << "\n";
  }
  os << "summary: " << errors() << " error(s), " << warnings()
     << " warning(s), " << notes() << " note(s)\n";
  return os.str();
}

namespace {

// `"key_ns": N,"key_ms": x` (or null/null) for an optional duration.
void json_opt_time(std::ostringstream& os, const char* key,
                   const std::optional<TimeNs>& t) {
  if (t) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s_ns\": %llu,\"%s_ms\": %.6g", key,
                  static_cast<unsigned long long>(*t), key,
                  static_cast<double>(*t) / 1e6);
    os << buf;
  } else {
    os << "\"" << key << "_ns\": null,\"" << key << "_ms\": null";
  }
}

}  // namespace

std::string AnalysisReport::to_json() const {
  std::ostringstream os;
  os << "{";
  os << "\"schema\": \"hfsc-lint-report-v2\",";
  os << "\"file\": \"" << json_escape(file) << "\",";
  os << "\"classes\": " << num_classes << ",";
  os << "\"link_rate_Bps\": " << link_rate << ",";
  os << "\"rt_feasible\": " << (rt_feasible ? "true" : "false") << ",";
  {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "\"rt_utilization\": %.6g,",
                  rt_utilization);
    os << buf;
  }
  os << "\"errors\": " << errors() << ",";
  os << "\"warnings\": " << warnings() << ",";
  os << "\"notes\": " << notes() << ",";
  os << "\"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i != 0) os << ",";
    os << "{\"severity\": \"" << to_string(d.severity) << "\","
       << "\"id\": \"" << json_escape(d.id) << "\","
       << "\"class\": \"" << json_escape(d.cls) << "\","
       << "\"file\": \"" << json_escape(d.loc.file) << "\","
       << "\"line\": " << d.loc.line << ","
       << "\"message\": \"" << json_escape(d.message) << "\"}";
  }
  os << "],";
  os << "\"delay_bounds\": [";
  for (std::size_t i = 0; i < delay_bounds.size(); ++i) {
    const LeafDelayBound& b = delay_bounds[i];
    if (i != 0) os << ",";
    os << "{\"class\": \"" << json_escape(b.cls) << "\","
       << "\"burst_bytes\": " << b.env_burst << ","
       << "\"rate_Bps\": " << b.env_rate << ",";
    if (b.bound) {
      char buf[64];
      std::snprintf(buf, sizeof(buf),
                    "\"bound_ns\": %llu,\"bound_ms\": %.6g}",
                    static_cast<unsigned long long>(*b.bound),
                    static_cast<double>(*b.bound) / 1e6);
      os << buf;
    } else {
      os << "\"bound_ns\": null,\"bound_ms\": null}";
    }
  }
  os << "],";
  os << "\"flows\": [";
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowBudget& f = flows[i];
    if (i != 0) os << ",";
    os << "{\"class\": \"" << json_escape(f.cls) << "\",\"route\": [";
    for (std::size_t j = 0; j < f.route.size(); ++j) {
      if (j != 0) os << ",";
      os << "\"" << json_escape(f.route[j]) << "\"";
    }
    os << "],\"env_burst_bytes\": " << f.env_burst
       << ",\"env_rate_Bps\": " << f.env_rate << ",";
    json_opt_time(os, "e2e_bound", f.e2e_delay);
    os << ",\"total_backlog_bytes\": ";
    if (f.total_backlog) {
      os << *f.total_backlog;
    } else {
      os << "null";
    }
    os << ",";
    json_opt_time(os, "deadline", f.deadline);
    os << ",\"hops\": [";
    for (std::size_t j = 0; j < f.hops.size(); ++j) {
      const HopBudget& h = f.hops[j];
      if (j != 0) os << ",";
      os << "{\"node\": \"" << json_escape(h.node)
         << "\",\"in_burst_bytes\": " << h.in_burst
         << ",\"in_rate_Bps\": " << h.in_rate << ",";
      json_opt_time(os, "delay", h.delay);
      os << ",\"backlog_bytes\": ";
      if (h.backlog) {
        os << *h.backlog;
      } else {
        os << "null";
      }
      os << "}";
    }
    os << "]}";
  }
  os << "],";
  os << "\"portability\": [";
  for (std::size_t i = 0; i < portability.size(); ++i) {
    const PortabilityEntry& e = portability[i];
    if (i != 0) os << ",";
    os << "{\"family\": \"" << to_string(e.kind) << "\","
       << "\"compiles\": " << (e.compiles ? "true" : "false") << ","
       << "\"lossless\": " << (e.lossless ? "true" : "false") << ","
       << "\"notes\": [";
    for (std::size_t j = 0; j < e.notes.size(); ++j) {
      if (j != 0) os << ",";
      os << "\"" << json_escape(e.notes[j]) << "\"";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string to_sarif(const std::vector<AnalysisReport>& reports) {
  // One run, one result per diagnostic; rules collected in first-seen
  // order so ruleIndex stays stable across the document.
  std::vector<std::string> rules;
  std::map<std::string, std::size_t> rule_index;
  for (const AnalysisReport& r : reports) {
    for (const Diagnostic& d : r.diagnostics) {
      if (rule_index.emplace(d.id, rules.size()).second) {
        rules.push_back(d.id);
      }
    }
  }
  std::ostringstream os;
  os << "{\"$schema\": "
        "\"https://docs.oasis-open.org/sarif/sarif/v2.1.0/os/schemas/"
        "sarif-schema-2.1.0.json\","
     << "\"version\": \"2.1.0\",\"runs\": [{\"tool\": {\"driver\": {"
     << "\"name\": \"hfsc_lint\","
     << "\"informationUri\": \"docs/ANALYSIS.md\",\"rules\": [";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"id\": \"" << json_escape(rules[i]) << "\"}";
  }
  os << "]}},\"results\": [";
  bool first = true;
  for (const AnalysisReport& r : reports) {
    for (const Diagnostic& d : r.diagnostics) {
      if (!first) os << ",";
      first = false;
      const char* level = "note";
      if (d.severity == Severity::kError) level = "error";
      if (d.severity == Severity::kWarning) level = "warning";
      os << "{\"ruleId\": \"" << json_escape(d.id) << "\","
         << "\"ruleIndex\": " << rule_index.at(d.id) << ","
         << "\"level\": \"" << level << "\","
         << "\"message\": {\"text\": \""
         << json_escape((d.cls.empty() ? "" : d.cls + ": ") + d.message)
         << "\"}";
      const std::string& uri = d.loc.file.empty() ? r.file : d.loc.file;
      if (!uri.empty()) {
        os << ",\"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": \""
           << json_escape(uri) << "\"}";
        if (d.loc.line != 0) {
          os << ",\"region\": {\"startLine\": " << d.loc.line << "}";
        }
        os << "}}]";
      }
      os << "}";
    }
  }
  os << "]}]}";
  return os.str();
}

}  // namespace hfsc
