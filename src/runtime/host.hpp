// RuntimeHost: the overload-resilient runtime around a single Hfsc
// (docs/ROBUSTNESS.md Sections 9–11).
//
// The host composes the three resilience pieces into one object:
//
//   * every user mutation is one commit_batch — a Hfsc::Txn of any
//     number of Hfsc::Ops — and each successful batch is appended to the
//     write-ahead Journal as one `txn` record (apply-then-journal, see
//     runtime/journal.hpp), so the pair
//     (checkpoint image, journal image) is always enough to rebuild the
//     scheduler: recover() = restore the checkpoint, replay the
//     surviving records past its watermark, verify by audit;
//   * the OverloadGovernor (runtime/governor.hpp) is sampled on the
//     data path at a bounded cadence; the actions it plans are executed
//     here and journaled atomically as one `gov` record (mutations +
//     post-action governor state), so governor interventions are
//     crash-recoverable exactly like user mutations;
//   * crash points (arm_crash / tear_next_append) let the chaos harness
//     (sim/chaos.hpp) kill the host at every persistence boundary and
//     prove recovery is digest-identical.
//
// Snapshots use checkpoint format v2: the core state plus an ext blob
// holding the journal watermark and the governor's durable state, so a
// runtime snapshot is still a plain core checkpoint to core tools.
//
// The data path keeps the core's never-throws contract; CrashSignal is
// the one deliberate exception type and only fires when the harness has
// armed it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/auditor.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "runtime/governor.hpp"
#include "runtime/journal.hpp"

namespace hfsc {

// Where a simulated crash can be injected.  Together these cover every
// ordering of (apply, journal append, checkpoint write, compaction) a
// real crash could interleave with.
enum class CrashPoint {
  kNone,
  kAfterApply,          // mutation applied, record not yet journaled
  kAfterJournalAppend,  // record journaled (the op is durable)
  kBeforeCheckpoint,    // snapshot requested, nothing written yet
  kAfterCheckpoint,     // snapshot written, journal not yet compacted
  kAfterCompact,        // snapshot written and journal compacted
};

inline constexpr CrashPoint kAllCrashPoints[] = {
    CrashPoint::kAfterApply,      CrashPoint::kAfterJournalAppend,
    CrashPoint::kBeforeCheckpoint, CrashPoint::kAfterCheckpoint,
    CrashPoint::kAfterCompact,
};

const char* to_string(CrashPoint p) noexcept;

// Thrown when an armed crash point is reached.  Deliberately NOT an
// hfsc::Error: a simulated power cut is not part of the error taxonomy,
// and nothing below the harness should ever catch it by accident.
struct CrashSignal {
  CrashPoint point = CrashPoint::kNone;
};

struct RuntimeOptions {
  RateBps link_rate = 0;
  bool governor_enabled = true;
  GovernorConfig governor{};
  // 0 = admission control off.  This is the governor's "base" rate; at
  // level 3 it is tightened to base * governor.headroom.
  RateBps admission_rate = 0;
  TimeNs watchdog_horizon = 0;  // 0 = watchdog off
  TimeNs sample_interval = msec(1);
  // Journal durability (runtime/journal.hpp).  kOnCommit bounds a
  // crash's journal loss to the one append in flight; kNone leaves the
  // whole post-checkpoint tail at the mercy of the "OS" and exists to
  // make that gap observable in tests.
  SyncPolicy sync_policy = SyncPolicy::kOnCommit;
};

class RuntimeHost {
 public:
  explicit RuntimeHost(const RuntimeOptions& opts);

  // --- Journaled control plane ---------------------------------------------
  // The one journaled entry point for user mutations: commits the ops
  // atomically through Hfsc::Txn (the Hfsc mutators' rules) and journals
  // them as one `txn` record.  Returns the ids of the classes it added,
  // in op order; throws without journaling if the commit fails.
  using BatchOp = Hfsc::Op;
  std::vector<ClassId> commit_batch(const std::vector<BatchOp>& ops);

  // --- Data path -----------------------------------------------------------
  // Wraps the scheduler's data path with the governor's enqueue hook
  // (level >= 1 push-out on non-rt leaves) and its bounded-cadence
  // sampling.  Inherits the core's never-throws contract.
  void enqueue(TimeNs now, Packet pkt);
  std::optional<Packet> dequeue(TimeNs now);
  // Drains up to max_pkts packets into `out` and returns how many were
  // served: a loop of dequeue(now) that stops at the first nullopt, so
  // governor samples land between the same two packets as k single
  // calls.
  std::size_t dequeue_batch(TimeNs now, std::size_t max_pkts,
                            std::vector<Packet>& out);

  // --- Persistence ---------------------------------------------------------
  // Writes a format-v2 snapshot into checkpoint_image() and compacts
  // the journal up to the snapshot's watermark.
  void save_checkpoint();
  const std::string& checkpoint_image() const noexcept {
    return checkpoint_image_;
  }
  const std::string& journal_image() const noexcept {
    return journal_.image();
  }
  // The journal prefix a crash is guaranteed to preserve under the
  // host's SyncPolicy — what honest crash recovery must be fed.
  std::string durable_journal_image() const {
    return std::string(journal_.durable_image());
  }
  const Journal& journal() const noexcept { return journal_; }

  // Rebuilds a host from the persisted pair.  An empty checkpoint image
  // means "never checkpointed": recovery starts from a fresh scheduler
  // built from `opts`.  Throws Error{kBadCheckpoint} / {kBadJournal} on
  // corrupt inputs (torn journal tails are truncated, not fatal) and
  // Error{kInvariantViolation} if the replayed state fails the audit.
  static RuntimeHost recover(const RuntimeOptions& opts,
                             const std::string& checkpoint_image,
                             const std::string& journal_image);

  // --- Observability and chaos hooks ---------------------------------------
  std::uint64_t digest() const { return state_digest(sched_); }
  // Core invariant audit plus the governor's own invariants (clamped /
  // quarantined sets are live non-rt leaves; admission headroom state
  // matches the governor's).
  AuditReport audit_runtime() const;

  // Arms a one-shot simulated crash at `p`; the next time the host
  // reaches that point it throws CrashSignal.
  void arm_crash(CrashPoint p) noexcept { armed_ = p; }
  // Arms a torn write: the next journal append is chopped `drop_bytes`
  // short (clamped to that record) and the host crashes immediately —
  // the only way a real torn tail comes to exist.
  void tear_next_append(std::size_t drop_bytes) noexcept {
    tear_bytes_ = drop_bytes;
  }

  Hfsc& sched() noexcept { return sched_; }
  const Hfsc& sched() const noexcept { return sched_; }
  OverloadGovernor& governor() noexcept { return gov_; }
  const OverloadGovernor& governor() const noexcept { return gov_; }
  int gov_level() const noexcept { return gov_.level(); }
  std::vector<GovEvent> drain_events() { return gov_.drain_events(); }

 private:
  struct RecoverTag {};
  RuntimeHost(const RuntimeOptions& opts, Hfsc&& restored, RecoverTag);

  void maybe_crash(CrashPoint p) {
    if (armed_ == p) {
      armed_ = CrashPoint::kNone;
      throw CrashSignal{p};
    }
  }
  // Appends `payload`; honors an armed tear (torn append + crash).
  void journal_append(const std::string& payload);
  // Runs the governor if the sampling interval elapsed.
  void maybe_sample(TimeNs now);
  // Executes a governor plan through direct scheduler mutations and
  // journals the whole intervention as one `gov` record.
  void execute(const GovActions& actions, TimeNs now);
  // Commits `ops` as one Hfsc::Txn and drops deleted classes from the
  // governor's saved state — the shared step of commit_batch and its
  // journal replay, so recovery converges to the same governor state.
  std::vector<ClassId> commit_ops(const std::vector<BatchOp>& ops);
  // Replays one journal payload onto the scheduler (recovery path).
  void apply_record(const std::string& payload);
  // True if `cls` is a live leaf that carries (`with_rt`) or lacks an rt
  // curve.
  bool live_leaf(ClassId cls, bool with_rt) const {
    return cls != kRootClass && cls < sched_.num_classes() &&
           !sched_.is_deleted(cls) && sched_.is_leaf(cls) &&
           sched_.config_of(cls).rt.is_zero() != with_rt;
  }
  std::uint64_t total_drops() const;
  // Moves admission to `rate` unless the hierarchy does not fit it; a
  // refusal changes nothing and counts no rejection.
  bool retune_admission(RateBps rate) {
    return rate != 0 && sched_.admission_enabled() &&
           sched_.try_enable_admission_control(rate);
  }
  RateBps tightened_rate() const noexcept {
    const double h = opts_.governor.headroom;
    return static_cast<RateBps>(static_cast<double>(opts_.admission_rate) * h);
  }

  RuntimeOptions opts_;
  Hfsc sched_;
  OverloadGovernor gov_;
  Journal journal_;
  std::string checkpoint_image_;
  std::uint64_t checkpoint_seq_ = 0;  // journal watermark in the snapshot
  TimeNs next_sample_ = 0;
  CrashPoint armed_ = CrashPoint::kNone;
  std::size_t tear_bytes_ = 0;
  bool replaying_ = false;
};

}  // namespace hfsc
