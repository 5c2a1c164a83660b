#include "fault_injector.hpp"

#include <algorithm>
#include <sstream>

#include "core/checkpoint.hpp"

namespace hfsc {

void FaultInjector::enable_churn(Hfsc& hfsc, ClassId churn_parent,
                                 std::vector<ClassId> mutable_leaves) {
  hfsc_ = &hfsc;
  churn_parent_ = churn_parent;
  mutable_leaves_ = std::move(mutable_leaves);
}

TimeNs FaultInjector::perturb_now(TimeNs now) {
  if (plan_.p_clock_jump > 0 && plan_.max_jump > 0 &&
      rng_.chance(plan_.p_clock_jump)) {
    skew_ += 1 + rng_.uniform(0, plan_.max_jump - 1);
    ++counts_.clock_jumps;
  }
  TimeNs inner_now = sat_add(now, skew_);
  if (plan_.p_clock_regress > 0 && plan_.max_regress > 0 &&
      rng_.chance(plan_.p_clock_regress)) {
    // Transient: only this call sees the old clock; the hardened data
    // path must clamp instead of rewinding its curves.
    inner_now = sat_sub(inner_now, 1 + rng_.uniform(0, plan_.max_regress - 1));
    ++counts_.clock_regressions;
  }
  return inner_now;
}

void FaultInjector::inject_packets(TimeNs inner_now) {
  if (plan_.p_bad_class > 0 && rng_.chance(plan_.p_bad_class)) {
    // Alternate between an out-of-range id, the root, and (when churn is
    // on) a deleted ephemeral class.
    ClassId cls = static_cast<ClassId>(1'000'000'007 + rng_.uniform(0, 7));
    switch (rng_.uniform(0, 2)) {
      case 0: cls = kRootClass; break;
      case 1:
        if (hfsc_ != nullptr) {
          for (ClassId c = 1; c < hfsc_->num_classes(); ++c) {
            if (hfsc_->is_deleted(c)) { cls = c; break; }
          }
        }
        break;
      default: break;
    }
    inner_.enqueue(inner_now, Packet{cls, 100, inner_now, 0});
    ++counts_.bad_class_packets;
  }
  if (plan_.p_zero_len > 0 && !mutable_leaves_.empty() &&
      rng_.chance(plan_.p_zero_len)) {
    const ClassId cls =
        mutable_leaves_[rng_.uniform(0, mutable_leaves_.size() - 1)];
    inner_.enqueue(inner_now, Packet{cls, 0, inner_now, 0});
    ++counts_.zero_len_packets;
  }
  if (plan_.p_oversized > 0 && !mutable_leaves_.empty() &&
      rng_.chance(plan_.p_oversized)) {
    const ClassId cls =
        mutable_leaves_[rng_.uniform(0, mutable_leaves_.size() - 1)];
    inner_.enqueue(inner_now,
                   Packet{cls, kMaxSanePacketLen + 1, inner_now, 0});
    ++counts_.oversized_packets;
  }
}

void FaultInjector::churn(TimeNs inner_now) {
  if (hfsc_ == nullptr) return;
  if (plan_.p_queue_limit > 0 && !mutable_leaves_.empty() &&
      rng_.chance(plan_.p_queue_limit)) {
    const ClassId cls =
        mutable_leaves_[rng_.uniform(0, mutable_leaves_.size() - 1)];
    // Flap between tight, loose and unlimited.
    const std::size_t limit =
        rng_.chance(0.3) ? 0 : static_cast<std::size_t>(rng_.uniform(1, 16));
    hfsc_->set_queue_limit(cls, limit);
    ++counts_.queue_limit_changes;
  }
  if (plan_.p_class_churn > 0 && rng_.chance(plan_.p_class_churn)) {
    switch (rng_.uniform(0, 2)) {
      case 0: {  // add an ephemeral (traffic-less) leaf mid-backlog
        const RateBps r = kbps(1 + rng_.uniform(0, 999));
        ephemeral_.push_back(hfsc_->add_class(
            churn_parent_,
            ClassConfig::link_share_only(ServiceCurve::linear(r))));
        ++counts_.classes_added;
        break;
      }
      case 1: {  // re-shape a live leaf while it may be mid-service
        if (mutable_leaves_.empty()) break;
        const ClassId cls =
            mutable_leaves_[rng_.uniform(0, mutable_leaves_.size() - 1)];
        const RateBps m2 = kbps(100 + rng_.uniform(0, 900));
        const RateBps m1 = m2 * (1 + rng_.uniform(0, 3));  // concave
        hfsc_->change_class(
            inner_now, cls,
            ClassConfig::both(ServiceCurve{
                m1, usec(100) + rng_.uniform(0, msec(5)), m2}));
        ++counts_.classes_changed;
        break;
      }
      default: {  // delete an ephemeral leaf
        if (ephemeral_.empty()) break;
        const std::size_t i = rng_.uniform(0, ephemeral_.size() - 1);
        hfsc_->delete_class(ephemeral_[i]);
        ephemeral_.erase(ephemeral_.begin() + static_cast<long>(i));
        ++counts_.classes_deleted;
        break;
      }
    }
  }
}

void FaultInjector::txn_churn(TimeNs inner_now) {
  if (hfsc_ == nullptr) return;
  const bool commit = plan_.p_txn_commit > 0 && rng_.chance(plan_.p_txn_commit);
  const bool abort = !commit && plan_.p_txn_abort > 0 &&
                     rng_.chance(plan_.p_txn_abort);
  if (!commit && !abort) return;

  // Stage a batch mixing every op kind: a couple of ephemeral adds, a
  // re-shape of a mutable leaf, a queue-limit flap on a staged ephemeral,
  // and (sometimes) the delete of an existing ephemeral.  All ops are
  // valid, so commit() must succeed; rollback() must leave no trace.
  Hfsc::Txn txn = hfsc_->begin();
  std::vector<ClassId> staged;
  const std::size_t n_adds = 1 + rng_.uniform(0, 2);
  for (std::size_t i = 0; i < n_adds; ++i) {
    const RateBps r = kbps(1 + rng_.uniform(0, 999));
    staged.push_back(txn.add_class(
        churn_parent_,
        ClassConfig::link_share_only(ServiceCurve::linear(r))));
  }
  if (!mutable_leaves_.empty() && rng_.chance(0.5)) {
    const ClassId cls =
        mutable_leaves_[rng_.uniform(0, mutable_leaves_.size() - 1)];
    const RateBps m2 = kbps(100 + rng_.uniform(0, 900));
    const RateBps m1 = m2 * (1 + rng_.uniform(0, 3));
    txn.change_class(inner_now, cls,
                     ClassConfig::both(ServiceCurve{
                         m1, usec(100) + rng_.uniform(0, msec(5)), m2}));
  }
  if (rng_.chance(0.5)) {
    // Against a *predicted* id from this very batch — ephemeral leaves
    // carry no traffic, so a committed limit cannot perturb the workload.
    const ClassId cls = staged[rng_.uniform(0, staged.size() - 1)];
    txn.set_queue_limit(
        cls, rng_.chance(0.3) ? 0
                              : static_cast<std::size_t>(rng_.uniform(1, 16)));
  }
  if (!ephemeral_.empty() && rng_.chance(0.5)) {
    const std::size_t i = rng_.uniform(0, ephemeral_.size() - 1);
    txn.delete_class(ephemeral_[i]);
    if (commit) ephemeral_.erase(ephemeral_.begin() + static_cast<long>(i));
  }

  if (commit) {
    txn.commit();
    ephemeral_.insert(ephemeral_.end(), staged.begin(), staged.end());
    ++counts_.txn_commits;
  } else {
    txn.rollback();
    ++counts_.txn_aborts;
  }
}

void FaultInjector::checkpoint_roundtrip() {
  if (hfsc_ == nullptr || plan_.p_checkpoint == 0 ||
      !rng_.chance(plan_.p_checkpoint)) {
    return;
  }
  std::stringstream buf;
  checkpoint(*hfsc_, buf);
  const Hfsc restored = restore_checkpoint(buf);  // throws on corruption
  if (state_digest(restored) != state_digest(*hfsc_)) {
    ++counts_.checkpoint_mismatches;
  }
  ++counts_.checkpoint_roundtrips;
}

void FaultInjector::enqueue(TimeNs now, Packet pkt) {
  const TimeNs inner_now = perturb_now(now);
  inject_packets(inner_now);
  churn(inner_now);
  txn_churn(inner_now);
  checkpoint_roundtrip();
  inner_.enqueue(inner_now, pkt);
}

std::optional<Packet> FaultInjector::dequeue(TimeNs now) {
  const TimeNs inner_now = perturb_now(now);
  inject_packets(inner_now);
  churn(inner_now);
  txn_churn(inner_now);
  checkpoint_roundtrip();
  return inner_.dequeue(inner_now);
}

}  // namespace hfsc
