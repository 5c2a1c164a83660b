#include "core/hfsc.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/auditor.hpp"

namespace hfsc {

namespace {
// Overflow-free average of two u64 values.
constexpr TimeNs avg(TimeNs a, TimeNs b) noexcept {
  return a / 2 + b / 2 + (a & b & 1);
}

// The ClassId at the top of an active-children heap; 0 when it is empty.
ClassId top_child(const IndexedHeap<TimeNs>& heap) noexcept {
  return heap.empty() ? kRootClass : heap.top_tag();
}
}  // namespace

Hfsc::Hfsc(RateBps link_rate, SystemVtPolicy vt_policy)
    : link_rate_(link_rate), vt_policy_(vt_policy) {
  ensure(link_rate > 0, Errc::kInvalidArgument, "link rate must be > 0");
  nodes_.emplace_back();  // root
  hot_.emplace_back();
  curves_.emplace_back();
}

void Hfsc::check_config(const ClassConfig& cfg, bool leaf) {
  ensure(cfg.rt.is_zero() || cfg.rt.is_supported(), Errc::kUnsupportedCurve,
         "rt curve must be concave or convex with m1 = 0");
  ensure(cfg.ls.is_zero() || cfg.ls.is_supported(), Errc::kUnsupportedCurve,
         "ls curve must be concave or convex with m1 = 0");
  ensure(cfg.ul.is_zero() || cfg.ul.is_supported(), Errc::kUnsupportedCurve,
         "ul curve must be concave or convex with m1 = 0");
  if (leaf) {
    ensure(!cfg.rt.is_zero() || !cfg.ls.is_zero(), Errc::kMissingCurve,
           "a leaf needs at least one of rt/ls to ever receive service");
  } else {
    ensure(!cfg.ls.is_zero(), Errc::kMissingCurve,
           "interior classes need a link-sharing curve");
  }
}

void Hfsc::maybe_self_check() {
  // A Txn commit counts as one operation; it self-checks once at the end
  // rather than after each applied op (mid-apply state is transient), so
  // apply_unchecked never calls this.
  if (self_check_every_ == 0 || in_self_check_) return;
  if (++op_count_ % self_check_every_ != 0) return;
  in_self_check_ = true;  // audit() reads state only; guard re-entry anyway
  const AuditReport report = audit(*this);
  in_self_check_ = false;
  ++self_checks_run_;
  if (!report.ok()) {
    throw Error(Errc::kInvariantViolation, report.to_string());
  }
}

TimeNs Hfsc::system_vt(const Node& p) const noexcept {
  // Section IV-C: v_max is the running watermark, which also carries the
  // virtual clock across the parent's idle periods; v_min is the top of
  // the active-children heap.  The paper's policy is the midpoint.
  if (p.active_children.empty()) return p.vt_watermark;
  switch (vt_policy_) {
    case SystemVtPolicy::kMin:
      return p.active_children.top_key();
    case SystemVtPolicy::kMax:
      return p.vt_watermark;
    case SystemVtPolicy::kMidpoint:
      break;
  }
  return avg(p.active_children.top_key(), p.vt_watermark);
}

void Hfsc::update_ed(ClassId cls, TimeNs now) {
  HotClass& h = hot_[cls];
  ClassCurves& cc = curves_[cls];
  assert(h.has_rt() && queues_.has(cls));
  const ServiceCurve& rt = nodes_[cls].cfg.rt;
  cc.dc.min_with(rt, now, h.cumul);
  cc.ec.min_with(rt, now, h.cumul);
  if (rt.m1 < rt.m2) cc.ec.flatten_to_second_slope();
  h.e = cc.ec.y2x(h.cumul);
  h.d = cc.dc.y2x(sat_add(h.cumul, queues_.head(cls).len));
  rt_requests_.update(cls, h.e, h.d, now);
}

void Hfsc::update_d(ClassId cls) {
  HotClass& h = hot_[cls];
  assert(h.has_rt() && queues_.has(cls));
  h.d = curves_[cls].dc.y2x(sat_add(h.cumul, queues_.head(cls).len));
}

void Hfsc::activate_ls_path(ClassId cls, TimeNs now) {
  for (ClassId c = cls; c != kRootClass && !hot_[c].active();) {
    HotClass& h = hot_[c];
    Node& p = nodes_[h.parent];
    const TimeNs v = system_vt(p);
    ClassCurves& cc = curves_[c];
    const ClassConfig& cfg = nodes_[c].cfg;
    cc.vc.min_with(cfg.ls, v, h.total);
    h.vt = cc.vc.y2x(h.total);
    if (h.has_ul()) {
      cc.uc.min_with(cfg.ul, now, h.total);
      h.fit = cc.uc.y2x(h.total);
    }
    h.set_active(true);
    const ClassId before = top_child(p.active_children);
    p.active_children.push(h.idx_in_parent, h.vt, c);
    note_top(h.parent, p, before);
    p.vt_watermark = std::max(p.vt_watermark, h.vt);
    c = h.parent;
  }
  hot_[kRootClass].set_active(true);
}

void Hfsc::charge_total(ClassId cls, Bytes len, TimeNs /*now*/) {
  // Walk the hot slab leaf-to-root: each step reads one HotClass line and
  // (for active non-root classes) the matching curve-slab entry.  Both
  // slab bases are pinned so the compiler keeps them in registers across
  // the y2x and heap-update calls (no mutator runs inside the walk).  The
  // parent's ls_min is rewritten unconditionally: its line is the next
  // one the walk reads anyway.
  HotClass* const hot = hot_.data();
  ClassCurves* const curves = curves_.data();
  for (ClassId c = cls;;) {
    HotClass& h = hot[c];
    h.total += len;
    if (c != kRootClass && h.active()) {
      Node& p = nodes_[h.parent];
      h.vt = curves[c].vc.y2x(h.total);
      p.active_children.update(h.idx_in_parent, h.vt);
      p.vt_watermark = std::max(p.vt_watermark, h.vt);
      hot[h.parent].ls_min = p.active_children.top_tag();
    }
    if (h.has_ul()) h.fit = curves[c].uc.y2x(h.total);
    if (c == kRootClass) break;
    c = h.parent;
  }
}

void Hfsc::set_passive(ClassId cls) {
  for (ClassId c = cls; c != kRootClass;) {
    HotClass& h = hot_[c];
    if (!h.active()) break;
    Node& p = nodes_[h.parent];
    h.set_active(false);
    const ClassId before = p.active_children.top_tag();
    p.active_children.erase(h.idx_in_parent);
    note_top(h.parent, p, before);
    if (!p.active_children.empty()) return;
    c = h.parent;
  }
  hot_[kRootClass].set_active(false);
}

void Hfsc::note_top(ClassId parent, const Node& p, ClassId before) noexcept {
  const ClassId after = top_child(p.active_children);
  if (after != before) hot_[parent].ls_min = after;
}

std::optional<ClassId> Hfsc::ls_select(TimeNs now) {
  ls_next_fit_ = kTimeInfinity;
  const HotClass* const hot = hot_.data();
  if (!hot[kRootClass].active()) return std::nullopt;
  // The children of c ordering after `tried` are open (all while it is 0).
  for (ClassId c = kRootClass, tried = kRootClass;;) {
    ClassId child = hot[c].ls_min;  // 0 (never blocked) when none
    if (tried != kRootClass || hot[child].blocked(now)) {
      child = ls_first_fit(c, tried, now);
    }
    if (child == kRootClass) {
      // Every open child of c is blocked, so c is too (ALTQ: an interior
      // class's fit is the later of its own and its children's earliest):
      // go back up to try c's next sibling.
      if (c == kRootClass) return std::nullopt;
      tried = std::exchange(c, hot[c].parent);
    } else if (!hot[child].interior()) {
      return child;
    } else {
      c = child;
      tried = kRootClass;
    }
  }
}

ClassId Hfsc::ls_first_fit(ClassId parent, ClassId after, TimeNs now) {
  // A child's place in its parent's heap order: (vt, idx_in_parent).
  using Place = std::pair<TimeNs, std::uint32_t>;
  const HotClass* const hot = hot_.data();
  const Place lo{hot[after].vt, hot[after].idx_in_parent};
  Place best{kTimeInfinity, ~std::uint32_t{0}};
  ClassId best_cls = kRootClass;
  const IndexedHeap<TimeNs>& heap = nodes_[parent].active_children;
  // The least open unblocked child: below an accepted child, or below
  // one ordering after the best so far, nothing orders before the best.
  heap.walk([&](TimeNs vt, std::uint32_t idx, ClassId cls) {
    const Place at{vt, idx};
    if (!(at < best)) return false;
    if (hot[cls].blocked(now) || (after != kRootClass && at <= lo)) {
      return true;
    }
    best = at;
    best_cls = cls;
    return false;
  });
  // The blocked children ordering before it: the earliest of their fit
  // times is when the choice at this level can next change.
  heap.walk([&](TimeNs vt, std::uint32_t idx, ClassId cls) {
    if (!(Place{vt, idx} < best)) return false;
    if (hot[cls].blocked(now)) {
      ls_next_fit_ = std::min(ls_next_fit_, hot[cls].fit);
    }
    return true;
  });
  return best_cls;
}

Packet Hfsc::serve(ClassId leaf, Criterion crit, TimeNs now) {
  HotClass& h = hot_[leaf];
  Node& n = nodes_[leaf];
  Packet p = queues_.pop(leaf);
  if (crit == Criterion::kRealTime) {
    h.cumul += p.len;
    ++rt_selections_;
  } else {
    ++ls_selections_;
  }
  ++n.pkts_sent;
  n.last_progress = now;
  n.starved_flagged = false;
  charge_total(leaf, p.len, now);
  if (queues_.has(leaf)) {
    if (h.has_rt()) {
      if (crit == Criterion::kRealTime) {
        // Fig. 5(a) tail: new head under the real-time criterion.
        h.e = curves_[leaf].ec.y2x(h.cumul);
      }
      // Fig. 5(b): after a link-sharing service only the deadline moves
      // (c did not change but the head packet's length may differ).
      update_d(leaf);
      rt_requests_.update(leaf, h.e, h.d, now);
    }
  } else {
    if (h.has_rt()) rt_requests_.erase(leaf);
    if (h.active()) set_passive(leaf);
  }
  last_criterion_ = crit;
  return p;
}

// The apply step of every class mutation, direct or batched.  The rules
// and the admission gate ran before (core/txn.cpp), so nothing here
// validates.
ClassId Hfsc::apply_unchecked(const Op& op) {
  switch (op.kind) {
    case Op::Kind::kAdd: {
      const ClassConfig& cfg = op.cfg;
      HotClass h;
      h.parent = op.parent;
      h.refresh_flags(cfg);
      h.idx_in_parent =
          static_cast<std::uint32_t>(nodes_[op.parent].children.size());
      // Anchor all runtime curves at the origin; the becomes-active
      // min-fold re-anchors them (min(S(t), S(t - a) + c) == S(t - a) + c
      // at first activation, so no special first-time flag is needed).
      ClassCurves cc;
      if (!cfg.rt.is_zero()) {
        cc.dc = RuntimeCurve(cfg.rt, 0, 0);
        cc.ec = RuntimeCurve(cfg.rt, 0, 0);
        if (cfg.rt.m1 < cfg.rt.m2) cc.ec.flatten_to_second_slope();
      }
      if (!cfg.ls.is_zero()) cc.vc = RuntimeCurve(cfg.ls, 0, 0);
      if (!cfg.ul.is_zero()) cc.uc = RuntimeCurve(cfg.ul, 0, 0);

      nodes_.emplace_back().cfg = cfg;
      hot_.push_back(h);
      curves_.push_back(cc);
      const ClassId id = static_cast<ClassId>(nodes_.size() - 1);
      if (nodes_[op.parent].children.empty()) {
        hot_[op.parent].set_flag(HotClass::kInterior, true);
      }
      nodes_[op.parent].children.push_back(id);
      queues_.ensure(id);
      return id;
    }
    case Op::Kind::kChange: {
      const ClassId cls = op.cls;
      const ClassConfig& cfg = op.cfg;
      const TimeNs now = clamp_now(op.now);
      Node& n = nodes_[cls];
      HotClass& h = hot_[cls];
      ClassCurves& cc = curves_[cls];
      const bool had_ls = h.has_ls();
      n.cfg = cfg;
      h.refresh_flags(cfg);

      // Real-time side: re-anchor at (now, c).
      if (h.has_rt()) {
        cc.dc = RuntimeCurve(cfg.rt, now, h.cumul);
        cc.ec = RuntimeCurve(cfg.rt, now, h.cumul);
        if (cfg.rt.m1 < cfg.rt.m2) cc.ec.flatten_to_second_slope();
        if (queues_.has(cls)) {
          h.e = cc.ec.y2x(h.cumul);
          h.d = cc.dc.y2x(sat_add(h.cumul, queues_.head(cls).len));
          rt_requests_.update(cls, h.e, h.d, now);
        }
      } else if (rt_requests_.contains(cls)) {
        rt_requests_.erase(cls);
      }

      // Link-sharing side: re-anchor at (v, w).
      if (h.has_ls()) {
        cc.vc = RuntimeCurve(cfg.ls, h.vt, h.total);
        if (h.active()) {
          h.vt = cc.vc.y2x(h.total);
          Node& p = nodes_[h.parent];
          const ClassId before = p.active_children.top_tag();
          p.active_children.update(h.idx_in_parent, h.vt);
          note_top(h.parent, p, before);
          p.vt_watermark = std::max(p.vt_watermark, h.vt);
        } else if (queues_.has(cls)) {
          activate_ls_path(cls, now);
        }
      } else if (had_ls && h.active()) {
        set_passive(cls);
      }

      // Upper limit: re-anchor at (now, w).
      if (h.has_ul()) {
        cc.uc = RuntimeCurve(cfg.ul, now, h.total);
        h.fit = cc.uc.y2x(h.total);
      } else {
        h.fit = 0;
      }
      return cls;
    }
    case Op::Kind::kDelete: {
      const ClassId cls = op.cls;
      Node& n = nodes_[cls];
      HotClass& h = hot_[cls];
      // Purge queued packets, counting them as drops.
      while (queues_.has(cls)) {
        const Packet p = queues_.pop(cls);
        ++n.pkts_dropped;
        n.bytes_dropped += p.len;
      }
      if (rt_requests_.contains(cls)) rt_requests_.erase(cls);
      if (h.active()) set_passive(cls);

      // Detach from the parent: swap-remove from the children vector and
      // fix the displaced sibling's index (including its heap entry if
      // active).
      Node& p = nodes_[h.parent];
      const std::uint32_t idx = h.idx_in_parent;
      const auto last = static_cast<std::uint32_t>(p.children.size() - 1);
      if (idx != last) {
        const ClassId moved = p.children[last];
        p.children[idx] = moved;
        HotClass& m = hot_[moved];
        if (m.active()) {
          const TimeNs key = p.active_children.key_of(m.idx_in_parent);
          const ClassId before = p.active_children.top_tag();
          p.active_children.erase(m.idx_in_parent);
          p.active_children.push(idx, key, moved);
          note_top(h.parent, p, before);
        }
        m.idx_in_parent = idx;
      }
      p.children.pop_back();
      if (p.children.empty()) {
        hot_[h.parent].set_flag(HotClass::kInterior, false);
      }
      h.set_flag(HotClass::kDeleted, true);
      return cls;
    }
    case Op::Kind::kQueueLimit:
      nodes_[op.cls].queue_limit = op.limit;
      return op.cls;
  }
  return op.cls;
}

void Hfsc::enqueue(TimeNs now, Packet pkt) {
  maybe_self_check();
  now = clamp_now(now);
  // Data-path hardening: absorb malformed events without throwing (the
  // forwarding plane must survive hostile input; see util/errors.hpp).
  // Malformed packets are counted ONLY in the rejection taxonomy, never
  // as per-class drops: `pkts_dropped` means "accepted, then dropped"
  // (queue limit, push-out, watchdog, delete purge), so that
  //   offered == sent + dropped + rejected + backlog
  // holds with no overlap between the buckets.
  if (pkt.cls == 0 || pkt.cls >= hot_.size() || !hot_[pkt.cls].live_leaf()) {
    ++counters_.bad_class;
    return;
  }
  Node& n = nodes_[pkt.cls];
  if (pkt.len == 0) {
    ++counters_.zero_len;
    return;
  }
  if (pkt.len > max_packet_len_) {
    ++counters_.oversized;
    return;
  }
  if (n.queue_limit != 0 && queues_.queue_len(pkt.cls) >= n.queue_limit) {
    ++n.pkts_dropped;
    n.bytes_dropped += pkt.len;
    return;
  }
  const bool was_empty = !queues_.has(pkt.cls);
  queues_.push(pkt);
  if (!was_empty) return;
  n.last_progress = now;  // a starvation episode starts at backlog onset
  n.starved_flagged = false;
  const HotClass& h = hot_[pkt.cls];
  if (h.has_rt()) update_ed(pkt.cls, now);
  if (h.has_ls()) activate_ls_path(pkt.cls, now);
}

bool Hfsc::drop_tail(ClassId cls) {
  if (cls == kRootClass || cls >= hot_.size() || !hot_[cls].live_leaf() ||
      !queues_.has(cls)) {
    return false;
  }
  Node& n = nodes_[cls];
  const HotClass& h = hot_[cls];
  const Packet p = queues_.pop_back(cls);
  ++n.pkts_dropped;
  n.bytes_dropped += p.len;
  if (!queues_.has(cls)) {
    if (h.has_rt() && rt_requests_.contains(cls)) rt_requests_.erase(cls);
    if (h.active()) set_passive(cls);
  }
  return true;
}

std::optional<Packet> Hfsc::dequeue(TimeNs now) {
  maybe_self_check();
  now = clamp_now(now);
  maybe_watchdog(now);
  if (queues_.packets() == 0) return std::nullopt;
  // Real-time criterion: used exactly when some leaf is eligible — i.e.
  // when leaving the choice to link-sharing could endanger a guarantee.
  if (auto cls = rt_requests_.min_deadline_eligible(now)) {
    return serve(*cls, Criterion::kRealTime, now);
  }
  if (auto leaf = ls_select(now)) {
    return serve(*leaf, Criterion::kLinkShare, now);
  }
  // Backlogged but nothing may be sent now (rt-only classes not yet
  // eligible and/or upper limits blocking); next_wakeup() says when to
  // try again.
  return std::nullopt;
}

TimeNs Hfsc::next_wakeup(TimeNs /*now*/) const noexcept {
  return std::min(rt_requests_.next_eligible_time(), ls_next_fit_);
}

// ----------------------------------------------------- admission control

AdmissionControl Hfsc::leaf_aggregate(RateBps link_rate) const {
  AdmissionControl ac(link_rate);
  for (ClassId c = 1; c < nodes_.size(); ++c) {
    if (hot_[c].live_leaf() && hot_[c].has_rt()) ac.add(nodes_[c].cfg.rt);
  }
  return ac;
}

bool Hfsc::try_enable_admission_control(RateBps link_rate) {
  // The AdmissionControl constructor rejects link_rate == 0.  The fresh
  // aggregate is checked before it replaces the old one, so a misfit
  // leaves the previous admission state (enabled or not) untouched.
  auto fresh = std::make_unique<AdmissionControl>(leaf_aggregate(link_rate));
  if (!fresh->fits()) return false;
  admission_ = std::move(fresh);
  return true;
}

void Hfsc::enable_admission_control(RateBps link_rate) {
  if (try_enable_admission_control(link_rate)) return;
  ++admission_rejections_;
  const ClassId c = first_misfit(nullptr, link_rate);
  const ServiceCurve offending =
      c != kRootClass ? nodes_[c].cfg.rt : ServiceCurve{};
  throw Error(Errc::kAdmissionRejected,
              "existing real-time curves already exceed the link curve "
              "(offending curve " +
                  to_string(offending) +
                  "); admission control left unchanged");
}

// -------------------------------------------------- starvation watchdog

void Hfsc::maybe_watchdog(TimeNs now) {
  if (starvation_horizon_ == 0 || now < next_starvation_scan_) return;
  next_starvation_scan_ =
      sat_add(now, std::max<TimeNs>(1, starvation_horizon_ / 4));
  for (ClassId c = 1; c < nodes_.size(); ++c) {
    Node& n = nodes_[c];
    if (!hot_[c].live_leaf() || n.starved_flagged || !queues_.has(c)) {
      continue;
    }
    if (now - n.last_progress >= starvation_horizon_) {
      n.starved_flagged = true;
      ++starvation_events_;
    }
  }
}

std::vector<ClassId> Hfsc::starved_classes(TimeNs now) const {
  std::vector<ClassId> out;
  if (starvation_horizon_ == 0) return out;
  for (ClassId c = 1; c < nodes_.size(); ++c) {
    const Node& n = nodes_[c];
    if (!hot_[c].live_leaf() || !queues_.has(c)) continue;
    if (now >= n.last_progress &&
        now - n.last_progress >= starvation_horizon_) {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace hfsc
