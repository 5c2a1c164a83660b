#include "config/hierarchy_spec.hpp"

#include <algorithm>
#include <stdexcept>

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
using IdMap = HierarchySpec::IdMap;
using CompileOptions = HierarchySpec::CompileOptions;

// Records a lossy mapping (default), or rejects it in strict mode.
void lose(std::vector<std::string>* notes, bool strict, Errc errc,
          const std::string& msg) {
  if (strict) throw Error(errc, msg);
  if (notes) notes->push_back(msg);
}

// The losses every rate-based family shares: curves collapsed to one
// long-term rate and queue limits dropped.  Returns the rate.
RateBps rate_based_losses(const ClassSpec& c, std::string_view family,
                          std::vector<std::string>* notes, bool strict) {
  const RateBps r = c.share_rate();
  ensure(r > 0, Errc::kMissingCurve,
         "class '" + c.name + "': no long-term rate (m2 == 0) to map onto " +
             std::string(family));
  const ServiceCurve& src = !c.ls.is_zero() ? c.ls : c.rt;
  if (!src.is_linear()) {
    lose(notes, strict, Errc::kUnsupportedCurve,
         "class '" + c.name + "': non-linear " +
             (!c.ls.is_zero() ? "ls" : "rt") +
             " curve degraded to its long-term rate under " +
             std::string(family));
  }
  if (c.qlimit != 0) {
    lose(notes, strict, Errc::kInvalidArgument,
         "class '" + c.name + "': queue limit dropped (" +
             std::string(family) + " queues are unlimited)");
  }
  return r;
}

void note_hfsc_only_options(const CompileOptions& opts, std::string_view family,
                            std::vector<std::string>* notes) {
  // Run options, not spec losses: never a strict-mode error.
  if (notes == nullptr) return;
  if (opts.audit_every != 0) {
    notes->push_back(std::string("invariant audit ignored (") +
                     std::string(family) + " has no auditor)");
  }
  if (opts.admission) {
    notes->push_back(std::string("admission control ignored (") +
                     std::string(family) + " has no admission check)");
  }
}

// Wraps a control-path failure with the class being compiled, matching the
// one-line "class 'video': admission rejected: …" contract the scenario
// engine has always had.
[[noreturn]] void rethrow_for(const std::string& name, const Error& e) {
  throw std::runtime_error("class '" + name + "': " + e.what());
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
  index();  // a directly assigned vector is indexed first
  index_.push(c);
  classes.push_back(std::move(c));
}

void HierarchySpec::validate() const {
  Index fresh;
  for (const ClassSpec& c : classes) fresh.push(c);
  index_ = std::move(fresh);
}

const HierarchySpec::Index& HierarchySpec::index() const {
  if (index_.parent.size() != classes.size()) validate();
  return index_;
}

bool HierarchySpec::is_leaf(const std::string& name) const {
  const Index& idx = index();
  const std::size_t i = idx.find(name);
  return i == Index::npos || idx.is_leaf(i);
}

std::unique_ptr<Hfsc> HierarchySpec::build_hfsc(
    RateBps link_rate, IdMap* ids, std::vector<std::string>* notes,
    const CompileOptions& opts) const {
  index();
  (void)notes;  // H-FSC expresses the full spec — nothing to record.
  auto sched = std::make_unique<Hfsc>(link_rate);
  if (opts.audit_every != 0) sched->enable_self_check(opts.audit_every);
  if (opts.admission) sched->enable_admission_control();
  IdMap local;
  for (const ClassSpec& c : classes) {
    const ClassId parent =
        ClassSpec::is_top_level(c.parent) ? kRootClass : local.at(c.parent);
    ClassId id;
    try {
      id = sched->add_class(parent, ClassConfig{c.rt, c.ls, c.ul});
    } catch (const Error& e) {
      rethrow_for(c.name, e);
    }
    if (c.qlimit != 0) sched->set_queue_limit(id, c.qlimit);
    local[c.name] = id;
  }
  if (ids) *ids = std::move(local);
  return sched;
}

std::unique_ptr<HPfq> HierarchySpec::build_hpfq(
    RateBps link_rate, IdMap* ids, std::vector<std::string>* notes,
    const CompileOptions& opts) const {
  index();
  note_hfsc_only_options(opts, "H-PFQ", notes);
  auto sched = std::make_unique<HPfq>(link_rate);
  IdMap local;
  for (const ClassSpec& c : classes) {
    const RateBps r = rate_based_losses(c, "H-PFQ", notes, opts.strict);
    if (!c.ul.is_zero()) {
      lose(notes, opts.strict, Errc::kInvalidArgument,
           "class '" + c.name +
               "': ul curve dropped (H-PFQ is work-conserving)");
    }
    const ClassId parent =
        ClassSpec::is_top_level(c.parent) ? kRootClass : local.at(c.parent);
    try {
      local[c.name] = sched->add_class(parent, r);
    } catch (const Error& e) {
      rethrow_for(c.name, e);
    }
  }
  if (ids) *ids = std::move(local);
  return sched;
}

std::unique_ptr<Cbq> HierarchySpec::build_cbq(
    RateBps link_rate, IdMap* ids, std::vector<std::string>* notes,
    const CompileOptions& opts) const {
  index();
  note_hfsc_only_options(opts, "CBQ", notes);
  auto sched = std::make_unique<Cbq>(link_rate);
  IdMap local;
  for (const ClassSpec& c : classes) {
    RateBps r = rate_based_losses(c, "CBQ", notes, opts.strict);
    bool borrow = true;
    if (!c.ul.is_zero()) {
      // CBQ's only cap is the estimator at the allocated rate: clamp the
      // allocation to the upper limit and forbid borrowing past it.
      borrow = false;
      r = std::min(r, c.ul.rate());
      ensure(r > 0, Errc::kMissingCurve,
             "class '" + c.name + "': ul long-term rate is zero under CBQ");
      lose(notes, opts.strict, Errc::kUnsupportedCurve,
           "class '" + c.name +
               "': ul curve became borrow=off with the allocation clamped "
               "to the ul rate under CBQ");
    }
    const ClassId parent =
        ClassSpec::is_top_level(c.parent) ? kRootClass : local.at(c.parent);
    try {
      local[c.name] = sched->add_class(parent, r, borrow);
    } catch (const Error& e) {
      rethrow_for(c.name, e);
    }
  }
  if (ids) *ids = std::move(local);
  return sched;
}

namespace {

// Flat families drop the interior of the tree; leaves attach directly to
// the server.  Returns the leaves in declaration order.
std::vector<const ClassSpec*> flatten(const HierarchySpec& spec,
                                      std::string_view family,
                                      std::vector<std::string>* notes,
                                      bool strict) {
  const HierarchySpec::Index& idx = spec.index();
  std::vector<const ClassSpec*> leaves;
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    const ClassSpec& c = spec.classes[i];
    if (idx.is_leaf(i)) {
      leaves.push_back(&c);
    } else {
      lose(notes, strict, Errc::kInvalidArgument,
           "class '" + c.name + "': interior class dropped (" +
               std::string(family) + " is flat)");
    }
  }
  return leaves;
}

}  // namespace

std::unique_ptr<Drr> HierarchySpec::build_drr(
    RateBps link_rate, IdMap* ids, std::vector<std::string>* notes,
    const CompileOptions& opts) const {
  index();
  note_hfsc_only_options(opts, "DRR", notes);
  auto sched = std::make_unique<Drr>();
  IdMap local;
  for (const ClassSpec* c : flatten(*this, "DRR", notes, opts.strict)) {
    const RateBps r = rate_based_losses(*c, "DRR", notes, opts.strict);
    if (!c->ul.is_zero()) {
      lose(notes, opts.strict, Errc::kInvalidArgument,
           "class '" + c->name + "': ul curve dropped (DRR is "
           "work-conserving)");
    }
    // A round serves ~one MTU-sized quantum per unit of link share; 8
    // full-size packets at an even split, never below one byte so a tiny
    // class still progresses.
    const Bytes quantum = std::max<Bytes>(
        1, muldiv_floor(Bytes{12000} * static_cast<Bytes>(
                            std::max<std::size_t>(classes.size(), 1)),
                        r, link_rate));
    local[c->name] = sched->add_session(quantum);
  }
  if (ids) *ids = std::move(local);
  return sched;
}

std::unique_ptr<Sced> HierarchySpec::build_sced(
    RateBps link_rate, IdMap* ids, std::vector<std::string>* notes,
    const CompileOptions& opts) const {
  index();
  note_hfsc_only_options(opts, "SCED", notes);
  (void)link_rate;  // SCED has no server curve parameter here.
  auto sched = std::make_unique<Sced>();
  IdMap local;
  for (const ClassSpec* c : flatten(*this, "SCED", notes, opts.strict)) {
    // SCED keeps the full (possibly non-linear) guarantee: rt, else ls.
    const ServiceCurve& sc = !c->rt.is_zero() ? c->rt : c->ls;
    if (!c->ul.is_zero()) {
      lose(notes, opts.strict, Errc::kInvalidArgument,
           "class '" + c->name + "': ul curve dropped (SCED is "
           "work-conserving)");
    }
    if (c->qlimit != 0) {
      lose(notes, opts.strict, Errc::kInvalidArgument,
           "class '" + c->name + "': queue limit dropped (SCED queues are "
           "unlimited)");
    }
    local[c->name] = sched->add_session(sc);
  }
  if (ids) *ids = std::move(local);
  return sched;
}

std::unique_ptr<VirtualClock> HierarchySpec::build_vclock(
    RateBps link_rate, IdMap* ids, std::vector<std::string>* notes,
    const CompileOptions& opts) const {
  index();
  note_hfsc_only_options(opts, "VirtualClock", notes);
  (void)link_rate;
  auto sched = std::make_unique<VirtualClock>();
  IdMap local;
  for (const ClassSpec* c : flatten(*this, "VirtualClock", notes,
                                    opts.strict)) {
    const RateBps r = rate_based_losses(*c, "VirtualClock", notes,
                                        opts.strict);
    if (!c->ul.is_zero()) {
      lose(notes, opts.strict, Errc::kInvalidArgument,
           "class '" + c->name + "': ul curve dropped (VirtualClock is "
           "work-conserving)");
    }
    local[c->name] = sched->add_session(r);
  }
  if (ids) *ids = std::move(local);
  return sched;
}

std::unique_ptr<Fifo> HierarchySpec::build_fifo(
    RateBps link_rate, IdMap* ids, std::vector<std::string>* notes,
    const CompileOptions& opts) const {
  index();
  note_hfsc_only_options(opts, "FIFO", notes);
  (void)link_rate;
  lose(notes, opts.strict, Errc::kInvalidArgument,
       "all class guarantees collapsed into one shared FIFO queue");
  auto sched = std::make_unique<Fifo>();
  // FIFO ignores the class id on the wire, but synthetic ids keep
  // per-class arrival statistics meaningful downstream.
  IdMap local;
  ClassId next = 1;
  for (const ClassSpec* c : flatten(*this, "FIFO", nullptr, false)) {
    local[c->name] = next++;
  }
  if (ids) *ids = std::move(local);
  return sched;
}

HierarchySpec::Compiled HierarchySpec::compile(
    SchedulerKind kind, RateBps link_rate, const CompileOptions& opts) const {
  Compiled out;
  switch (kind) {
    case SchedulerKind::kHfsc: {
      auto s = build_hfsc(link_rate, &out.ids, &out.notes, opts);
      out.hfsc = s.get();
      out.sched = std::move(s);
      break;
    }
    case SchedulerKind::kHpfq:
      out.sched = build_hpfq(link_rate, &out.ids, &out.notes, opts);
      break;
    case SchedulerKind::kCbq:
      out.sched = build_cbq(link_rate, &out.ids, &out.notes, opts);
      break;
    case SchedulerKind::kDrr:
      out.sched = build_drr(link_rate, &out.ids, &out.notes, opts);
      break;
    case SchedulerKind::kSced:
      out.sched = build_sced(link_rate, &out.ids, &out.notes, opts);
      break;
    case SchedulerKind::kVirtualClock:
      out.sched = build_vclock(link_rate, &out.ids, &out.notes, opts);
      break;
    case SchedulerKind::kFifo:
      out.sched = build_fifo(link_rate, &out.ids, &out.notes, opts);
      break;
  }
  return out;
}

}  // namespace hfsc
