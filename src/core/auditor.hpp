// Runtime invariant auditor for the H-FSC scheduler.
//
// The paper's guarantees (Theorems 1-2, Section VI) rest on the mutual
// consistency of the scheduler's internal state: the deadline/eligible
// curves and the eligible set on the real-time side, the virtual curves
// and per-parent active-children heaps on the link-sharing side, and the
// shared packet-queue accounting.  audit() cross-checks all of it in one
// O(classes + backlog) pass and reports every violation found:
//
//  * tree structure: parent/child links and idx_in_parent agree; deleted
//    classes are fully detached (no queue, not active, not in the rt set);
//  * queue accounting: packets only at live leaves; per-class packet and
//    byte sums match the ClassQueues totals;
//  * active flags: a leaf is active iff it has an ls curve and a backlog;
//    an interior class (and the root) is active iff its active-children
//    heap is non-empty; every active class's ancestors are active;
//  * heaps: each parent's heap holds exactly its active children, each
//    heap key equals the child's virtual time, and the vt watermark
//    dominates every key;
//  * real-time side: eligible-set membership <=> backlogged rt leaf; the
//    stored (e, d) match the curves' inverses at the operating point and
//    e <= d (the eligible curve never lags the deadline curve);
//  * curve/counter consistency: vt = V^-1(w) for active classes,
//    fit = U^-1(w) under an upper limit, rt service <= total service;
//  * service conservation: the sum of live children's total service never
//    exceeds the parent's.
//
// Intended uses: after-the-fact checks in tests, the every-N-operations
// self-check hook (Hfsc::enable_self_check), and the fault-injection
// harness (tests/support/fault_injector.hpp).
#pragma once

#include <string>
#include <vector>

#include "core/hfsc.hpp"

namespace hfsc {

struct AuditReport {
  std::vector<std::string> failures;

  bool ok() const noexcept { return failures.empty(); }
  // All failures, one per line ("audit clean" when ok()).
  std::string to_string() const;
};

AuditReport audit(const Hfsc& sched);

}  // namespace hfsc
