// Fault-injection harness for scheduler robustness testing.
//
// FaultInjector sits between a workload and a Scheduler and perturbs the
// stream of events the scheduler sees, modelling the anomalies a
// production scheduler must survive (docs/ROBUSTNESS.md):
//
//  * clock faults — permanent forward jumps (the injector accumulates a
//    skew added to every `now` it forwards) and transient regressions
//    (a single call sees an older clock than its predecessor);
//  * malformed packets — extra packets with a bogus class id, zero
//    length, or a length above the sane cap are injected alongside the
//    real traffic (the hardened data path must reject all of them, so
//    the real traffic's accounting stays exact);
//  * config churn (H-FSC only, via enable_churn) — ephemeral traffic-less
//    classes are added and deleted mid-backlog, designated live leaves
//    are re-shaped with change_class, and queue limits flap.
//
// The injector is itself a Scheduler, so a Simulator or a hand-rolled
// test loop can drive it exactly like the wrapped instance.  Everything
// it does is deterministic in the seed; counts() reports what was
// injected so tests can assert the run actually exercised each fault.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hfsc.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace hfsc {

struct FaultPlan {
  // Clock anomalies (applied to both enqueue and dequeue clocks).
  double p_clock_jump = 0.0;     // forward jump, uniform in (0, max_jump]
  double p_clock_regress = 0.0;  // transient backwards step
  TimeNs max_jump = msec(20);
  TimeNs max_regress = msec(20);
  // Malformed extra packets, injected before the real event.
  double p_bad_class = 0.0;   // unknown / interior / deleted class id
  double p_zero_len = 0.0;    // zero-length packet to a valid leaf
  double p_oversized = 0.0;   // length above the scheduler's cap
  // Config churn (requires enable_churn).
  double p_queue_limit = 0.0;  // flap a mutable leaf's queue limit
  double p_class_churn = 0.0;  // add/change/delete classes mid-backlog
  // Transactional churn (requires enable_churn): whole batches staged
  // through Hfsc::Txn and either committed or rolled back mid-backlog.
  double p_txn_commit = 0.0;
  double p_txn_abort = 0.0;
  // Checkpoint/restore round trip mid-backlog: serialize, restore into a
  // fresh Hfsc and compare state digests.  The injector keeps driving the
  // ORIGINAL instance; a digest mismatch is counted, not thrown.
  double p_checkpoint = 0.0;
};

struct FaultCounts {
  std::uint64_t clock_jumps = 0;
  std::uint64_t clock_regressions = 0;
  std::uint64_t bad_class_packets = 0;
  std::uint64_t zero_len_packets = 0;
  std::uint64_t oversized_packets = 0;
  std::uint64_t queue_limit_changes = 0;
  std::uint64_t classes_added = 0;
  std::uint64_t classes_changed = 0;
  std::uint64_t classes_deleted = 0;
  std::uint64_t txn_commits = 0;
  std::uint64_t txn_aborts = 0;
  std::uint64_t checkpoint_roundtrips = 0;
  std::uint64_t checkpoint_mismatches = 0;  // restored digest != original

  std::uint64_t total() const noexcept {
    return clock_jumps + clock_regressions + bad_class_packets +
           zero_len_packets + oversized_packets + queue_limit_changes +
           classes_added + classes_changed + classes_deleted + txn_commits +
           txn_aborts + checkpoint_roundtrips;
  }
};

class FaultInjector final : public Scheduler {
 public:
  FaultInjector(Scheduler& inner, FaultPlan plan, std::uint64_t seed)
      : inner_(inner),
        name_("FaultInjector(" + std::string(inner.name()) + ")"),
        plan_(plan),
        rng_(seed) {}

  // Enables class-churn and queue-limit faults.  The injector adds and
  // deletes its own ephemeral (never-backlogged) leaves under
  // `churn_parent`, and applies change_class / set_queue_limit to the
  // caller-designated `mutable_leaves` — it never touches other classes,
  // so the caller controls which parts of the hierarchy may mutate.
  void enable_churn(Hfsc& hfsc, ClassId churn_parent,
                    std::vector<ClassId> mutable_leaves);

  void enqueue(TimeNs now, Packet pkt) override;
  std::optional<Packet> dequeue(TimeNs now) override;

  std::size_t backlog_packets() const noexcept override {
    return inner_.backlog_packets();
  }
  Bytes backlog_bytes() const noexcept override {
    return inner_.backlog_bytes();
  }
  TimeNs next_wakeup(TimeNs now) const noexcept override {
    return inner_.next_wakeup(now);
  }
  DataPathCounters counters() const noexcept override {
    return inner_.counters();
  }
  std::uint64_t class_drops(ClassId cls) const noexcept override {
    return inner_.class_drops(cls);
  }
  std::string_view name() const noexcept override { return name_; }

  const FaultCounts& counts() const noexcept { return counts_; }
  // Accumulated forward clock skew the inner scheduler currently sees.
  TimeNs skew() const noexcept { return skew_; }

 private:
  // Maps the caller's clock into the (possibly jumped/regressed) clock
  // handed to the inner scheduler.
  TimeNs perturb_now(TimeNs now);
  void inject_packets(TimeNs inner_now);
  void churn(TimeNs inner_now);
  void txn_churn(TimeNs inner_now);
  void checkpoint_roundtrip();

  Scheduler& inner_;
  std::string name_;      // backs the name() view
  Hfsc* hfsc_ = nullptr;  // non-null once churn is enabled
  ClassId churn_parent_ = kRootClass;
  std::vector<ClassId> mutable_leaves_;
  std::vector<ClassId> ephemeral_;  // injector-owned churn classes
  FaultPlan plan_;
  Rng rng_;
  FaultCounts counts_;
  TimeNs skew_ = 0;
};

}  // namespace hfsc
