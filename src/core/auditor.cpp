#include "core/auditor.hpp"

#include <sstream>

namespace hfsc {

std::string AuditReport::to_string() const {
  if (failures.empty()) return "audit clean";
  std::ostringstream os;
  os << failures.size() << " audit failure(s):";
  for (const std::string& f : failures) os << "\n  " << f;
  return os.str();
}

AuditReport audit(const Hfsc& s) {
  AuditReport r;
  const auto& nodes = s.nodes_;
  const auto& queues = s.queues_;
  auto fail = [&](ClassId c, const std::string& what) {
    r.failures.push_back("class " + std::to_string(c) + ": " + what);
  };

  std::size_t queued_packets = 0;
  Bytes queued_bytes = 0;

  for (ClassId c = 0; c < nodes.size(); ++c) {
    const auto& n = nodes[c];
    const auto& h = s.hot_[c];
    const auto& cc = s.curves_[c];

    // The hot path trusts cached curve-presence flags instead of testing
    // cfg each time; they must never drift from the configuration.
    if (h.has_rt() != !n.cfg.rt.is_zero() ||
        h.has_ls() != !n.cfg.ls.is_zero() ||
        h.has_ul() != !n.cfg.ul.is_zero()) {
      fail(c, "cached curve-presence flags disagree with the config");
    }
    // Likewise the interior bit, read instead of the children list.
    if (h.interior() != !n.children.empty()) {
      fail(c, "cached interior flag disagrees with the tree");
    }

    if (h.deleted()) {
      if (c == kRootClass) fail(c, "root marked deleted");
      if (h.active()) fail(c, "deleted but active");
      if (queues.has(c)) fail(c, "deleted but has queued packets");
      if (s.rt_requests_.contains(c)) fail(c, "deleted but in eligible set");
      if (!n.children.empty()) fail(c, "deleted with live children");
      continue;
    }

    // Tree structure: the parent/child links must mirror each other.
    if (c != kRootClass) {
      if (h.parent >= nodes.size() || s.hot_[h.parent].deleted()) {
        fail(c, "parent link points at an unknown or deleted class");
        continue;
      }
      const auto& p = nodes[h.parent];
      if (h.idx_in_parent >= p.children.size() ||
          p.children[h.idx_in_parent] != c) {
        fail(c, "idx_in_parent does not match the parent's children list");
      }
    }
    for (std::uint32_t i = 0; i < n.children.size(); ++i) {
      const ClassId child = n.children[i];
      if (child == kRootClass || child >= nodes.size() ||
          s.hot_[child].deleted()) {
        fail(c, "children list holds an invalid class id");
      } else if (s.hot_[child].parent != c) {
        fail(c, "child's parent link disagrees");
      }
    }

    // Queue accounting: packets live only at leaves, and the O(1)
    // per-class byte counter (the governor's enqueue-path signal) must
    // agree with an independent recount of the ring.
    const std::size_t qlen = queues.queue_len(c);
    const Bytes recounted = queues.recount_bytes(c);
    queued_packets += qlen;
    queued_bytes += recounted;
    if (queues.bytes_in(c) != recounted) {
      fail(c, "incremental per-class byte counter out of sync with queue");
    }
    if (qlen > 0 && (c == kRootClass || !n.children.empty())) {
      fail(c, "non-leaf class has queued packets");
    }

    const bool is_leaf = c != kRootClass && n.children.empty();
    const bool backlogged = queues.has(c);

    // Active flags: leaf active <=> ls curve + backlog; interior (and
    // root) active <=> non-empty active-children heap.
    if (is_leaf) {
      const bool should = h.has_ls() && backlogged;
      if (h.active() != should) {
        fail(c, h.active() ? "leaf active without ls backlog"
                           : "backlogged ls leaf not active");
      }
    } else {
      if (h.active() != !n.active_children.empty()) {
        fail(c, "interior active flag disagrees with the children heap");
      }
    }

    // Heap consistency: the heap holds exactly the active children, keyed
    // by their current virtual time, under the watermark.
    std::size_t active_kids = 0;
    for (std::uint32_t i = 0; i < n.children.size(); ++i) {
      const ClassId child = n.children[i];
      if (child >= nodes.size() || s.hot_[child].deleted()) continue;
      const auto& ch = s.hot_[child];
      if (ch.active()) {
        ++active_kids;
        if (!n.active_children.contains(i)) {
          fail(c, "active child missing from the heap");
        } else {
          if (n.active_children.key_of(i) != ch.vt) {
            fail(c, "heap key out of sync with child vt");
          }
          if (n.vt_watermark < n.active_children.key_of(i)) {
            fail(c, "vt watermark below an active child's key");
          }
        }
      } else if (n.active_children.contains(i)) {
        fail(c, "passive child still in the heap");
      }
      if (n.active_children.contains(i) &&
          n.active_children.tag_of(i) != child) {
        fail(c, "heap entry's tag is not the child's class id");
      }
    }
    if (n.active_children.size() != active_kids) {
      fail(c, "heap size does not match the number of active children");
    }
    // ls_select follows ls_min instead of reading the heap.
    const ClassId top = n.active_children.empty()
                            ? kRootClass
                            : n.active_children.top_tag();
    if (h.ls_min != top) {
      fail(c, "cached ls_min (" + std::to_string(h.ls_min) +
                  ") is not the heap's top child (" + std::to_string(top) +
                  ")");
    }

    // Real-time side: eligible-set membership <=> backlogged rt leaf, and
    // the cached (e, d) equal the curves' inverses at the operating point.
    const bool should_request = is_leaf && h.has_rt() && backlogged;
    if (s.rt_requests_.contains(c) != should_request) {
      fail(c, should_request ? "backlogged rt leaf missing from eligible set"
                             : "stale entry in the eligible set");
    }
    if (should_request) {
      // The set must hold the request as hot_ caches it: a key left stale
      // by a missed update would order the class wrongly.
      if (const auto held = s.rt_requests_.held(c)) {
        if (held->d != h.d) fail(c, "eligible set holds a stale deadline");
        if (held->e != 0 && held->e != h.e) {
          fail(c, "eligible set holds a stale eligible time");
        }
      }
      if (h.e != cc.ec.y2x(h.cumul)) {
        fail(c, "cached eligible time disagrees with E^-1(c)");
      }
      if (h.d != cc.dc.y2x(sat_add(h.cumul, queues.head(c).len))) {
        fail(c, "cached deadline disagrees with D^-1(c + len)");
      }
      if (h.e > h.d) fail(c, "eligible time after deadline");
    }

    // Curve/counter consistency.
    if (h.active() && c != kRootClass && h.has_ls() &&
        h.vt != cc.vc.y2x(h.total)) {
      fail(c, "virtual time disagrees with V^-1(w)");
    }
    if (h.has_ul() && h.fit != cc.uc.y2x(h.total)) {
      fail(c, "fit time disagrees with U^-1(w)");
    }
    if (h.cumul > h.total) fail(c, "rt service exceeds total service");

    // Service conservation: live children never out-serve the parent.
    if (!n.children.empty()) {
      Bytes child_total = 0;
      for (const ClassId child : n.children) {
        if (child < nodes.size()) {
          child_total = sat_add(child_total, s.hot_[child].total);
        }
      }
      if (child_total > h.total) {
        fail(c, "children's total service exceeds the parent's");
      }
    }
  }

  // Whole-scheduler queue totals must match the per-class sums.
  if (queued_packets != queues.packets()) {
    fail(kRootClass, "per-class packet counts do not sum to the backlog");
  }
  if (queued_bytes != queues.bytes()) {
    fail(kRootClass, "per-class byte counts do not sum to the backlog");
  }

  // Admission bookkeeping: the tracked aggregate must equal one rebuilt
  // from the live leaves' rt curves (the aggregate is exact, so == holds
  // whatever order the curves arrived in), and it must still fit under
  // the link curve.
  if (s.admission_) {
    const AdmissionControl expect =
        s.leaf_aggregate(s.admission_->link_rate());
    if (s.admission_->admitted() != expect.admitted()) {
      fail(kRootClass, "admission bookkeeping tracks " +
                           std::to_string(s.admission_->admitted()) +
                           " curves but the tree has " +
                           std::to_string(expect.admitted()) + " rt leaves");
    }
    if (!(*s.admission_ == expect)) {
      fail(kRootClass,
           "admission aggregate curve out of sync with the leaf rt curves");
    }
    if (!expect.fits()) {
      fail(kRootClass, "admitted rt curves exceed the admission link curve");
    }
  }

  // Watchdog bookkeeping: progress stamps never run ahead of the
  // scheduler's clock (they are only written with clamped `now` values).
  for (ClassId c = 1; c < nodes.size(); ++c) {
    if (s.hot_[c].deleted()) continue;
    if (nodes[c].last_progress > s.last_now_) {
      fail(c, "starvation progress stamp is in the future");
    }
  }

  return r;
}

}  // namespace hfsc
