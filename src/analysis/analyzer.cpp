#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <unordered_map>

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

// The guarantee class i can count on: its rt curve capped by every upper
// limit on its root path (exact pointwise min).
PiecewiseLinear effective_rt(const HierarchySpec& spec, std::size_t i) {
  const HierarchySpec::Index& idx = spec.index();
  PiecewiseLinear eff = PiecewiseLinear::from_service_curve(spec.classes[i].rt);
  for (std::size_t cur = i; cur != HierarchySpec::Index::npos;
       cur = idx.parent[cur]) {
    const ServiceCurve& ul = spec.classes[cur].ul;
    if (!ul.is_zero()) eff = eff.min(PiecewiseLinear::from_service_curve(ul));
  }
  return eff;
}

// A scenario node as the per-node checks see it: its hierarchy and the
// packet sizes of every source whose packets cross the node (its own
// sources plus the routed flows forwarded in from upstream hops).
struct NodeView {
  const HierarchySpec& spec;
  Bytes max_pkt = 0;  // Theorem 2 transmission term
  // Largest packet per class; its keys are the classes a source feeds.
  std::unordered_map<std::string, Bytes> class_max_pkt;
};

// Everything the checks of one hierarchy read.
struct Ctx {
  const HierarchySpec& spec;
  const HierarchySpec::Index& idx;
  RateBps link_rate;
  const NodeView* view;  // null for bare-spec analysis
  const AnalysisOptions& opts;
  AnalysisReport* report;

  void diag(Severity sev, std::string id, const std::string& cls,
            std::string message) {
    push_diag(*report, sev, std::move(id), cls, std::move(message),
              loc_of(cls));
  }

  // Where `cls` was declared; nowhere for a bare spec.
  SourceLoc loc_of(const std::string& cls) const {
    const std::size_t i = idx.find(cls);
    if (i == HierarchySpec::Index::npos) return {};
    return SourceLoc{report->file, spec.classes[i].line};
  }

  Bytes global_max_pkt() const {
    return view != nullptr ? view->max_pkt : opts.default_max_pkt;
  }

  Bytes max_pkt_of(const std::string& cls) const {
    if (view != nullptr) {
      const auto it = view->class_max_pkt.find(cls);
      if (it != view->class_max_pkt.end()) return it->second;
    }
    return global_max_pkt();
  }

  // Leaves of the subtree rooted at class i (i itself if a leaf), in
  // declaration order.
  std::vector<std::size_t> subtree_leaves(std::size_t i) const {
    std::vector<std::size_t> out;
    std::vector<std::size_t> stack{i};
    while (!stack.empty()) {
      const std::size_t cur = stack.back();
      stack.pop_back();
      if (idx.is_leaf(cur)) {
        out.push_back(cur);
        continue;
      }
      const std::vector<std::size_t>& kids = idx.children[cur];
      stack.insert(stack.end(), kids.begin(), kids.end());
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
    if (!ctx.idx.is_leaf(i) || c.rt.is_zero()) continue;
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
    for (const std::size_t l : ctx.subtree_leaves(i)) {
      const ClassSpec& leaf = ctx.spec.classes[l];
      if (leaf.rt.is_zero()) continue;
      sum = sum.sum(PiecewiseLinear::from_service_curve(leaf.rt));
      any = true;
    }
    if (!any) continue;
    const PiecewiseLinear cap = PiecewiseLinear::from_service_curve(c.ul);
    if (!cap.dominates(sum)) {
      ctx.diag(Severity::kError, "rt-ul-infeasible", c.name,
               (ctx.idx.is_leaf(i)
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

    if (!ctx.idx.is_leaf(i) && !c.rt.is_zero()) {
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
  const HierarchySpec::Index& idx = ctx.idx;
  const std::vector<ClassSpec>& classes = ctx.spec.classes;
  constexpr std::size_t kLink = HierarchySpec::Index::npos;
  auto shares = [&](std::size_t parent, const std::vector<std::size_t>& kids) {
    RateBps sum = 0;
    for (const std::size_t k : kids) sum += classes[k].ls.rate();
    if (sum == 0) return;
    RateBps capacity;
    std::string where;
    std::string cls;
    if (parent == kLink) {
      capacity = ctx.link_rate;
      where = "the link rate";
    } else {
      const ClassSpec& p = classes[parent];
      if (p.ls.is_zero()) return;  // share undefined; nothing to bind to
      capacity = p.ls.rate();
      cls = p.name;
      where = "parent '" + cls + "'s long-term share";
    }
    if (sum > capacity) {
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
        const ClassSpec& kid = classes[k];
        if (idx.is_leaf(k) && kid.qlimit == 0) {
          ctx.diag(Severity::kWarning, "qlimit-unbounded", kid.name,
                   "leaf has no queue limit under an oversubscribed "
                   "parent: its backlog is unbounded precisely when the "
                   "siblings' load exceeds the shared capacity; set a "
                   "qlimit sized to the expected burst");
        }
      }
    }
  };
  // The link first, then the interior classes by name.
  if (!idx.top_level.empty()) shares(kLink, idx.top_level);
  std::map<std::string, std::size_t> parents;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (!idx.is_leaf(i)) parents.emplace(classes[i].name, i);
  }
  for (const auto& [name, p] : parents) shares(p, idx.children[p]);

  // Sustained rt load above an interior node's share punishes siblings
  // (the fairness tension of Section III): the subtree's guarantees are
  // still met, but only by permanently borrowing the siblings' share.
  // Subtree sums accumulate bottom-up: every child follows its parent.
  std::vector<RateBps> rt_sum(classes.size(), 0);
  for (std::size_t i = classes.size(); i-- > 0;) {
    if (idx.is_leaf(i)) rt_sum[i] = classes[i].rt.rate();
    if (idx.parent[i] != kLink) rt_sum[idx.parent[i]] += rt_sum[i];
  }
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const ClassSpec& c = classes[i];
    if (idx.is_leaf(i) || c.ls.is_zero()) continue;
    if (rt_sum[i] > c.ls.rate()) {
      ctx.diag(Severity::kWarning, "rt-over-ls", c.name,
               "the subtree's leaves reserve " + fmt_mbps(rt_sum[i]) +
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
    if (!ctx.idx.is_leaf(i)) {
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
    if (ctx.view != nullptr && ctx.view->class_max_pkt.count(c.name) == 0) {
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
    if (!ctx.idx.is_leaf(i)) continue;
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

    const PiecewiseLinear effective = effective_rt(ctx.spec, i);

    LeafDelayBound b;
    b.cls = c.name;
    b.env_burst = c.env_burst;
    b.env_rate = c.env_rate;
    b.loc = SourceLoc{ctx.report->file,
                      c.env_line != 0 ? c.env_line : c.line};
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
      b.bound = sat_add(*gap, tx_time(ctx.global_max_pkt(), ctx.link_rate));
    }
    ctx.report->delay_bounds.push_back(std::move(b));
  }
}

// (d) Scheduler-family portability pre-flight: which families accept the
// spec losslessly (no loss note), which degrade it (and how), which
// cannot express it at all.
void check_portability(Ctx& ctx) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    PortabilityEntry e;
    e.kind = kind;
    // Every loss is a note, so one compile gives the whole verdict.
    try {
      e.notes = ctx.spec.compile(kind, ctx.link_rate, {}).notes;
      e.lossless = e.notes.empty();
    } catch (const std::exception& ex) {
      e.compiles = false;
      e.notes = {ex.what()};
    }
    ctx.report->portability.push_back(std::move(e));
  }
}

// ------------------------------------------------ end-to-end route walk

// A parsed scenario split per node in one pass over its classes and
// sources, plus the node and route lookups the cross-node checks use.
struct ScenarioViews {
  std::vector<NodeView> nodes;  // sc.nodes order; one view when single-node
  std::unordered_map<std::string, std::size_t> node_at;
  std::unordered_map<std::string, const ScenarioRoute*> route_of;

  ScenarioViews(const Scenario& sc, Bytes default_max_pkt) {
    for (const ScenarioRoute& r : sc.routes) route_of.emplace(r.cls, &r);
    nodes.reserve(sc.nodes.size());
    for (std::size_t k = 0; k < sc.nodes.size(); ++k) {
      nodes.push_back(NodeView{sc.nodes[k].spec, default_max_pkt, {}});
      node_at.emplace(sc.nodes[k].name, k);
    }
    auto view_of = [&](const std::string& node) -> NodeView* {
      const auto it = node_at.find(node);
      return it == node_at.end() ? nullptr : &nodes[it->second];
    };
    for (const ScenarioSource& s : sc.sources) {
      const Bytes pkt =
          s.kind == ScenarioSource::Kind::kVideo ? s.mtu : s.pkt_len;
      auto feed = [&](NodeView* v) {
        if (v == nullptr) return;
        v->max_pkt = std::max(v->max_pkt, pkt);
        Bytes& per = v->class_max_pkt[s.cls];
        per = std::max(per, pkt);
      };
      feed(view_of(s.node));
      // A routed class is fed on its later hops by the upstream node,
      // with the packets its sources send at the first hop.
      const auto r = route_of.find(s.cls);
      if (r == route_of.end()) continue;
      for (std::size_t h = 1; h < r->second->nodes.size(); ++h) {
        feed(view_of(r->second->nodes[h]));
      }
    }
  }

  // The declaring class of `cls` on node `node`, null when absent.
  const ClassSpec* find_class(const std::string& node,
                              const std::string& cls) const {
    const auto at = node_at.find(node);
    if (at == node_at.end()) return nullptr;
    const HierarchySpec& spec = nodes[at->second].spec;
    const std::size_t i = spec.index().find(cls);
    return i == HierarchySpec::Index::npos ? nullptr : &spec.classes[i];
  }
};

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
void check_routes(const Scenario& sc, const ScenarioViews& views,
                  const AnalysisOptions& opts, AnalysisReport& report) {
  for (const ScenarioRoute& r : sc.routes) {
    const SourceLoc rloc{sc.file, r.line};
    const ClassSpec* first = views.find_class(r.nodes.front(), r.cls);
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
      const auto at = views.node_at.find(nname);
      if (at == views.node_at.end()) continue;  // parser rejects this too
      const NodeView& v = views.nodes[at->second];
      HopBudget hb;
      hb.node = nname;
      if (hop_env) {
        hb.in_burst = hop_env->pieces().front().y;
        hb.in_rate = hop_env->tail_rate();
      }
      // The hop offers no guaranteed service when the class is absent
      // there or has no rt curve.
      const std::size_t i = v.spec.index().find(r.cls);
      if (i == HierarchySpec::Index::npos || v.spec.classes[i].rt.is_zero()) {
        push_diag(report, Severity::kNote, "route-hop-without-rt",
                  nname + "." + r.cls,
                  "hop " + nname + " gives the routed flow no rt "
                  "guarantee; the end-to-end bound is unbounded",
                  rloc);
        all_hops_guaranteed = false;
        fb.hops.push_back(std::move(hb));
        break;
      }
      const PiecewiseLinear shifted = effective_rt(v.spec, i).delayed(
          tx_time(v.max_pkt, sc.nodes[at->second].rate));
      e2e = e2e ? e2e->convolve(shifted) : shifted;
      if (hop_env) {
        hb.delay = hop_env->max_horizontal_gap(shifted);
        hb.backlog = hop_env->max_vertical_gap(shifted);
        const ClassSpec* hc = &v.spec.classes[i];
        if (hc->qlimit != 0 && hb.backlog) {
          // Every source of a routed class enters at its first hop and
          // is forwarded to every later one, so each hop's largest
          // packet of the class is the flow's.
          const auto fp = v.class_max_pkt.find(r.cls);
          const Bytes pkt = fp != v.class_max_pkt.end()
                                ? fp->second
                                : opts.default_max_pkt;
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
void check_deadlines(const Scenario& sc, const ScenarioViews& views,
                     AnalysisReport& report) {
  // Rows by the class name a deadline gives: flows by class, delay
  // bounds by "cls" in single-node reports and by "node.cls" or any of
  // its suffixes after a '.' in multi-node ones.
  std::unordered_map<std::string, std::vector<std::size_t>> flows_of;
  std::unordered_map<std::string, std::vector<std::size_t>> bounds_of;
  for (std::size_t k = 0; k < report.flows.size(); ++k) {
    flows_of[report.flows[k].cls].push_back(k);
  }
  for (std::size_t k = 0; k < report.delay_bounds.size(); ++k) {
    const std::string& name = report.delay_bounds[k].cls;
    bounds_of[name].push_back(k);
    for (std::size_t p = name.find('.', 1); p != std::string::npos;
         p = name.find('.', p + 1)) {
      bounds_of[name.substr(p + 1)].push_back(k);
    }
  }
  for (const ScenarioDeadline& dl : sc.deadlines) {
    const SourceLoc dloc{sc.file, dl.line};
    if (views.route_of.count(dl.cls) != 0) {
      const auto rows = flows_of.find(dl.cls);
      if (rows == flows_of.end()) {
        // A routed class without a first-hop envelope has no FlowBudget
        // row: the deadline is then unverifiable.
        push_diag(report, Severity::kWarning, "deadline-unverifiable",
                  dl.cls,
                  "deadline declared for routed flow " + dl.cls +
                      " but its first hop has no arrival envelope, so no "
                      "end-to-end bound can be derived",
                  dloc);
        continue;
      }
      for (const std::size_t k : rows->second) {
        FlowBudget& f = report.flows[k];
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
      continue;
    }
    // Unrouted class: compare every per-node Theorem 2 bound.
    const auto rows = bounds_of.find(dl.cls);
    if (rows == bounds_of.end()) {
      push_diag(report, Severity::kWarning, "deadline-unverifiable", dl.cls,
                "deadline declared for " + dl.cls +
                    " but no delay bound is derivable (the class needs "
                    "both an rt curve and an arrival envelope)",
                dloc);
      continue;
    }
    for (const std::size_t k : rows->second) {
      const LeafDelayBound& b = report.delay_bounds[k];
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
  }
}

AnalysisReport analyze_impl(const HierarchySpec& spec, RateBps link_rate,
                            const std::string& file, const NodeView* view,
                            const AnalysisOptions& opts) {
  ensure(link_rate > 0, Errc::kInvalidArgument,
         "analysis link rate must be > 0");
  AnalysisReport report;
  report.file = file;
  report.num_classes = spec.classes.size();
  report.link_rate = link_rate;
  Ctx ctx{spec, spec.index(), link_rate, view, opts, &report};

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
  return analyze_impl(spec, link_rate, "", nullptr, opts);
}

AnalysisReport analyze(const Scenario& sc, const AnalysisOptions& opts) {
  ensure(!sc.nodes.empty(), Errc::kInvalidArgument, "scenario has no nodes");
  const ScenarioViews views(sc, opts.default_max_pkt);
  AnalysisReport report;
  if (!sc.multi_node) {
    report = analyze_impl(views.nodes.front().spec, sc.nodes.front().rate,
                          sc.file, &views.nodes.front(), opts);
  } else {
    // Multi-node topology: each node's hierarchy is admitted against its
    // own link, so run the whole analysis once per node and merge,
    // tagging findings "node.class".
    report.file = sc.file;
    report.link_rate = sc.nodes.front().rate;
    for (std::size_t k = 0; k < sc.nodes.size(); ++k) {
      const ScenarioNode& node = sc.nodes[k];
      AnalysisReport rep = analyze_impl(views.nodes[k].spec, node.rate,
                                        sc.file, &views.nodes[k], opts);
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
    check_routes(sc, views, opts, report);
  }
  check_deadlines(sc, views, report);
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

namespace {

std::size_t count(const std::vector<Diagnostic>& ds, Severity sev) {
  return static_cast<std::size_t>(
      std::count_if(ds.begin(), ds.end(),
                    [sev](const Diagnostic& d) { return d.severity == sev; }));
}

}  // namespace

std::size_t AnalysisReport::errors() const noexcept {
  return count(diagnostics, Severity::kError);
}
std::size_t AnalysisReport::warnings() const noexcept {
  return count(diagnostics, Severity::kWarning);
}
std::size_t AnalysisReport::notes() const noexcept {
  return count(diagnostics, Severity::kNote);
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
