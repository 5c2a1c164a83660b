#include "config/hierarchy_spec.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sched/cbq.hpp"
#include "sched/drr.hpp"
#include "sched/fifo.hpp"
#include "sched/hpfq.hpp"
#include "sched/sced.hpp"
#include "sched/virtual_clock.hpp"
#include "util/errors.hpp"

namespace hfsc {

std::string_view to_string(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kHfsc: return "hfsc";
    case SchedulerKind::kHpfq: return "hpfq";
    case SchedulerKind::kCbq: return "cbq";
    case SchedulerKind::kDrr: return "drr";
    case SchedulerKind::kSced: return "sced";
    case SchedulerKind::kVirtualClock: return "vclock";
    case SchedulerKind::kFifo: return "fifo";
  }
  return "?";
}

std::optional<SchedulerKind> parse_scheduler_kind(std::string_view token) {
  for (SchedulerKind k : all_scheduler_kinds()) {
    if (token == to_string(k)) return k;
  }
  if (token == "virtualclock") return SchedulerKind::kVirtualClock;
  return std::nullopt;
}

const std::vector<SchedulerKind>& all_scheduler_kinds() {
  static const std::vector<SchedulerKind> kAll = {
      SchedulerKind::kHfsc, SchedulerKind::kHpfq,
      SchedulerKind::kCbq,  SchedulerKind::kDrr,
      SchedulerKind::kSced, SchedulerKind::kVirtualClock,
      SchedulerKind::kFifo,
  };
  return kAll;
}

namespace {

using ClassSpec = HierarchySpec::ClassSpec;
using Compiled = HierarchySpec::Compiled;
using CompileOptions = HierarchySpec::CompileOptions;

// The losses every rate-based family shares: curves collapsed to one
// long-term rate and queue limits dropped.  Returns the rate.
RateBps rate_based_losses(const ClassSpec& c, std::string_view family,
                          std::vector<std::string>& notes) {
  const RateBps r = c.share_rate();
  ensure(r > 0, Errc::kMissingCurve,
         "class '" + c.name + "': no long-term rate (m2 == 0) to map onto " +
             std::string(family));
  const ServiceCurve& src = !c.ls.is_zero() ? c.ls : c.rt;
  if (!src.is_linear()) {
    notes.push_back(
        "class '" + c.name + "': non-linear " +
            (!c.ls.is_zero() ? "ls" : "rt") +
            " curve degraded to its long-term rate under " +
            std::string(family));
  }
  if (c.qlimit != 0) {
    notes.push_back(
        "class '" + c.name + "': queue limit dropped (" +
            std::string(family) + " queues are unlimited)");
  }
  return r;
}

void note_hfsc_only_options(const CompileOptions& opts, std::string_view family,
                            std::vector<std::string>& notes) {
  // Run options, not spec losses.
  if (opts.audit_every != 0) {
    notes.push_back(std::string("invariant audit ignored (") +
                    std::string(family) + " has no auditor)");
  }
  if (opts.admission) {
    notes.push_back(std::string("admission control ignored (") +
                    std::string(family) + " has no admission check)");
  }
}

// Wraps a control-path failure with the class being compiled, matching the
// one-line "class 'video': admission rejected: …" contract the scenario
// engine has always had.
[[noreturn]] void rethrow_for(const std::string& name, const Error& e) {
  throw std::runtime_error("class '" + name + "': " + e.what());
}

// The id of c's parent among the classes compiled so far.
ClassId parent_id(const ClassSpec& c, const Compiled& out) {
  return ClassSpec::is_top_level(c.parent) ? kRootClass
                                           : out.ids.at(c.parent);
}

// Flat families drop the interior of the tree; leaves attach directly to
// the server.  Returns the leaves in declaration order.
std::vector<const ClassSpec*> flatten(const HierarchySpec& spec,
                                      std::string_view family,
                                      std::vector<std::string>& notes) {
  const HierarchySpec::Index& idx = spec.index();
  std::vector<const ClassSpec*> leaves;
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    const ClassSpec& c = spec.classes[i];
    if (idx.is_leaf(i)) {
      leaves.push_back(&c);
    } else {
      notes.push_back(
          "class '" + c.name + "': interior class dropped (" +
              std::string(family) + " is flat)");
    }
  }
  return leaves;
}

// One compiler per family, each filling `out`.

void compile_hfsc(const HierarchySpec& spec, RateBps link_rate,
                  const CompileOptions& opts, Compiled& out) {
  // H-FSC expresses the full spec: nothing to record.
  auto sched = std::make_unique<Hfsc>(link_rate);
  if (opts.audit_every != 0) sched->enable_self_check(opts.audit_every);
  if (opts.admission) sched->enable_admission_control();
  for (const ClassSpec& c : spec.classes) {
    ClassId id;
    try {
      id = sched->add_class(parent_id(c, out), c.config());
    } catch (const Error& e) {
      rethrow_for(c.name, e);
    }
    if (c.qlimit != 0) sched->set_queue_limit(id, c.qlimit);
    out.ids[c.name] = id;
  }
  out.hfsc = sched.get();
  out.sched = std::move(sched);
}

void compile_hpfq(const HierarchySpec& spec, RateBps link_rate,
                  const CompileOptions& opts, Compiled& out) {
  note_hfsc_only_options(opts, "H-PFQ", out.notes);
  auto sched = std::make_unique<HPfq>(link_rate);
  for (const ClassSpec& c : spec.classes) {
    const RateBps r = rate_based_losses(c, "H-PFQ", out.notes);
    if (!c.ul.is_zero()) {
      out.notes.push_back(
          "class '" + c.name +
              "': ul curve dropped (H-PFQ is work-conserving)");
    }
    try {
      out.ids[c.name] = sched->add_class(parent_id(c, out), r);
    } catch (const Error& e) {
      rethrow_for(c.name, e);
    }
  }
  out.sched = std::move(sched);
}

void compile_cbq(const HierarchySpec& spec, RateBps link_rate,
                 const CompileOptions& opts, Compiled& out) {
  note_hfsc_only_options(opts, "CBQ", out.notes);
  auto sched = std::make_unique<Cbq>(link_rate);
  for (const ClassSpec& c : spec.classes) {
    RateBps r = rate_based_losses(c, "CBQ", out.notes);
    bool borrow = true;
    if (!c.ul.is_zero()) {
      // CBQ's only cap is the estimator at the allocated rate: clamp the
      // allocation to the upper limit and forbid borrowing past it.
      borrow = false;
      r = std::min(r, c.ul.rate());
      ensure(r > 0, Errc::kMissingCurve,
             "class '" + c.name + "': ul long-term rate is zero under CBQ");
      out.notes.push_back(
          "class '" + c.name +
              "': ul curve became borrow=off with the allocation clamped "
              "to the ul rate under CBQ");
    }
    try {
      out.ids[c.name] = sched->add_class(parent_id(c, out), r, borrow);
    } catch (const Error& e) {
      rethrow_for(c.name, e);
    }
  }
  out.sched = std::move(sched);
}

void compile_drr(const HierarchySpec& spec, RateBps link_rate,
                 const CompileOptions& opts, Compiled& out) {
  note_hfsc_only_options(opts, "DRR", out.notes);
  auto sched = std::make_unique<Drr>();
  for (const ClassSpec* c : flatten(spec, "DRR", out.notes)) {
    const RateBps r = rate_based_losses(*c, "DRR", out.notes);
    if (!c->ul.is_zero()) {
      out.notes.push_back(
          "class '" + c->name + "': ul curve dropped (DRR is "
          "work-conserving)");
    }
    // A round serves ~one MTU-sized quantum per unit of link share; 8
    // full-size packets at an even split, never below one byte so a tiny
    // class still progresses.
    const Bytes n = std::max<std::size_t>(spec.classes.size(), 1);
    const Bytes quantum =
        std::max<Bytes>(1, muldiv_floor(Bytes{12000} * n, r, link_rate));
    out.ids[c->name] = sched->add_session(quantum);
  }
  out.sched = std::move(sched);
}

void compile_sced(const HierarchySpec& spec, const CompileOptions& opts,
                  Compiled& out) {
  note_hfsc_only_options(opts, "SCED", out.notes);
  auto sched = std::make_unique<Sced>();
  for (const ClassSpec* c : flatten(spec, "SCED", out.notes)) {
    // SCED keeps the full (possibly non-linear) guarantee: rt, else ls.
    const ServiceCurve& sc = !c->rt.is_zero() ? c->rt : c->ls;
    if (!c->ul.is_zero()) {
      out.notes.push_back(
          "class '" + c->name + "': ul curve dropped (SCED is "
          "work-conserving)");
    }
    if (c->qlimit != 0) {
      out.notes.push_back(
          "class '" + c->name + "': queue limit dropped (SCED queues are "
          "unlimited)");
    }
    out.ids[c->name] = sched->add_session(sc);
  }
  out.sched = std::move(sched);
}

void compile_vclock(const HierarchySpec& spec, const CompileOptions& opts,
                    Compiled& out) {
  note_hfsc_only_options(opts, "VirtualClock", out.notes);
  auto sched = std::make_unique<VirtualClock>();
  for (const ClassSpec* c : flatten(spec, "VirtualClock", out.notes)) {
    const RateBps r = rate_based_losses(*c, "VirtualClock", out.notes);
    if (!c->ul.is_zero()) {
      out.notes.push_back(
          "class '" + c->name + "': ul curve dropped (VirtualClock is "
          "work-conserving)");
    }
    out.ids[c->name] = sched->add_session(r);
  }
  out.sched = std::move(sched);
}

void compile_fifo(const HierarchySpec& spec, const CompileOptions& opts,
                  Compiled& out) {
  note_hfsc_only_options(opts, "FIFO", out.notes);
  out.notes.push_back(
      "all class guarantees collapsed into one shared FIFO queue");
  // FIFO ignores the class id on the wire, but synthetic ids on the
  // leaves keep per-class arrival statistics meaningful downstream.
  const HierarchySpec::Index& idx = spec.index();
  ClassId next = 1;
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    if (idx.is_leaf(i)) out.ids[spec.classes[i].name] = next++;
  }
  out.sched = std::make_unique<Fifo>();
}

}  // namespace

void HierarchySpec::Index::push(const ClassSpec& c) {
  ensure(!c.name.empty(), Errc::kInvalidArgument, "class with empty name");
  ensure(c.name != "root", Errc::kInvalidArgument,
         "'root' is reserved for the hierarchy root");
  ensure(!pos.count(c.name), Errc::kInvalidArgument,
         "duplicate class '" + c.name + "'");
  const std::size_t up =
      ClassSpec::is_top_level(c.parent) ? npos : find(c.parent);
  if (!ClassSpec::is_top_level(c.parent)) {
    ensure(up != npos, Errc::kInvalidClass,
           "class '" + c.name + "': parent '" + c.parent +
               "' not declared before its child");
  }
  for (const ServiceCurve* sc : {&c.rt, &c.ls, &c.ul}) {
    ensure(sc->is_zero() || sc->is_supported(), Errc::kUnsupportedCurve,
           "class '" + c.name + "': curve shape outside the two-piece "
           "algebra (must be concave, or convex with m1 = 0)");
  }
  ensure(!c.rt.is_zero() || !c.ls.is_zero(), Errc::kMissingCurve,
         "class '" + c.name + "': needs an rt or ls curve");
  const std::size_t i = parent.size();
  pos.emplace(c.name, i);
  parent.push_back(up);
  children.emplace_back();
  (up == npos ? top_level : children[up]).push_back(i);
}

void HierarchySpec::add(ClassSpec c) {
  index_.push(c);
  classes.push_back(std::move(c));
}

const HierarchySpec::Index& HierarchySpec::index() const {
  assert(index_.parent.size() == classes.size() &&
         "HierarchySpec::classes changed outside add()");
  return index_;
}

bool HierarchySpec::is_leaf(const std::string& name) const {
  const Index& idx = index();
  const std::size_t i = idx.find(name);
  return i == Index::npos || idx.is_leaf(i);
}

HierarchySpec::Compiled HierarchySpec::compile(
    SchedulerKind kind, RateBps link_rate, const CompileOptions& opts) const {
  Compiled out;
  switch (kind) {
    case SchedulerKind::kHfsc:
      compile_hfsc(*this, link_rate, opts, out);
      break;
    case SchedulerKind::kHpfq:
      compile_hpfq(*this, link_rate, opts, out);
      break;
    case SchedulerKind::kCbq:
      compile_cbq(*this, link_rate, opts, out);
      break;
    case SchedulerKind::kDrr:
      compile_drr(*this, link_rate, opts, out);
      break;
    case SchedulerKind::kSced:
      compile_sced(*this, opts, out);
      break;
    case SchedulerKind::kVirtualClock:
      compile_vclock(*this, opts, out);
      break;
    case SchedulerKind::kFifo:
      compile_fifo(*this, opts, out);
      break;
  }
  return out;
}

}  // namespace hfsc
