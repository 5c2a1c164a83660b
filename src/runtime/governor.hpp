// Overload governor: a hysteresis-guarded degradation ladder
// (docs/ROBUSTNESS.md Section 9).
//
// The governor samples cheap signals the scheduler already maintains —
// aggregate backlog bytes, the per-class drop counters, the starvation
// watchdog's flagged set — and walks a four-level ladder:
//
//   level 0  normal operation, zero interference;
//   level 1  early drop: arrivals to a non-rt leaf whose queued bytes
//            exceed a per-class threshold are pushed out from the TAIL
//            (Hfsc::drop_tail) instead of blindly tail-dropping at the
//            queue-limit cliff — the head packet, whose length the
//            cached deadline was computed from, is never disturbed;
//   level 2  clamp: the link-sharing curves of flagged (persistently
//            over-threshold, non-rt) leaves are scaled down; offenders
//            that stay flagged for quarantine_after consecutive samples
//            are quarantined behind a tiny queue limit;
//   level 3  tighten admission: the admission-control headroom for NEW
//            rt flows shrinks to `headroom` of the link.
//
// Each level subsumes the ones below it, every transition and per-class
// action is emitted as a typed GovEvent, and everything is reversible:
// when load decays the ladder walks back down, clamps and quarantines
// are undone from the saved originals, and the admission headroom is
// restored.
//
// The hard invariant at EVERY level: admitted real-time guarantees are
// never degraded.  The governor never drops from, clamps, quarantines,
// or otherwise touches a leaf with an rt curve, and tightening admission
// affects only flows not yet admitted.
//
// Layering: the governor is pure policy.  It never mutates the scheduler
// itself — decide() returns a GovActions plan and the runtime host
// (runtime/host.hpp) executes it through the journaled mutator path, so
// every governor action is crash-recoverable like any other mutation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/hfsc.hpp"
#include "util/types.hpp"

namespace hfsc {

struct GovernorConfig {
  // Aggregate-backlog thresholds (bytes) for entering levels 1..3, and
  // the hysteresis exit thresholds for leaving them (exit < enter, so a
  // load hovering at a boundary does not flap the ladder).
  Bytes enter_backlog[3] = {512 * 1024, 2 * 1024 * 1024, 8 * 1024 * 1024};
  Bytes exit_backlog[3] = {256 * 1024, 1024 * 1024, 4 * 1024 * 1024};
  // Per-class queued-bytes threshold: above it a non-rt leaf is subject
  // to early drop (level >= 1); at half of it the leaf is flagged as an
  // offender at the clamping level (level >= 2) — the early drop pins a
  // flooder at or just below the full threshold, so the offender scan
  // must trigger beneath the cap.
  Bytes class_threshold = 128 * 1024;
  // Consecutive samples of evidence required to move up / down one
  // level.  Escalation is eager, de-escalation deliberately sluggish.
  int up_samples = 2;
  int down_samples = 6;
  // Level 2: flagged classes' ls slopes are scaled by this fraction.
  double clamp_fraction = 0.25;
  // Samples a clamped class must stay over threshold to be quarantined.
  int quarantine_after = 4;
  // Quarantined classes' queue limit (packets).
  std::size_t quarantine_qlimit = 4;
  // Level 3: fraction of the admission link rate left open to new flows.
  double headroom = 0.75;
};

enum class GovEventKind {
  kLevelUp,
  kLevelDown,
  kClamp,
  kUnclamp,
  kQuarantine,
  kRelease,
  kTightenAdmission,
  kRestoreAdmission,
};

const char* to_string(GovEventKind k) noexcept;

struct GovEvent {
  GovEventKind kind;
  TimeNs when = 0;
  int from_level = 0;  // level transitions
  int to_level = 0;
  ClassId cls = kRootClass;  // per-class actions
  std::string to_string() const;
};

// The signals one sample is based on; assembled by the host from
// scheduler state it already has at hand.
struct GovSignals {
  Bytes backlog_bytes = 0;
  std::uint64_t drops = 0;        // cumulative, all classes
  std::size_t starved_leaves = 0; // |starved_classes(now)|
};

// What the host must execute after a sample.  All listed classes are
// non-rt leaves (the governor enforces the rt invariant when choosing).
struct GovActions {
  std::vector<ClassId> clamp;       // scale ls by clamp_fraction
  std::vector<ClassId> unclamp;     // restore saved cfg
  std::vector<ClassId> quarantine;  // apply quarantine_qlimit
  std::vector<ClassId> release;     // restore saved queue limit
  bool tighten_admission = false;
  bool restore_admission = false;
  bool empty() const noexcept {
    return clamp.empty() && unclamp.empty() && quarantine.empty() &&
           release.empty() && !tighten_admission && !restore_admission;
  }
};

class OverloadGovernor {
 public:
  explicit OverloadGovernor(GovernorConfig cfg) : cfg_(cfg) {}

  int level() const noexcept { return level_; }
  const GovernorConfig& config() const noexcept { return cfg_; }

  // Enqueue-path hook (level >= 1): should this arrival trigger a
  // push-out?  `rt_leaf` spares guaranteed classes unconditionally.
  bool should_push_out(Bytes class_bytes, bool rt_leaf) const noexcept {
    return level_ >= 1 && !rt_leaf && class_bytes > cfg_.class_threshold;
  }

  // One ladder step.  Reads the signals, updates the hysteresis
  // counters, possibly moves one level, and returns the plan of
  // reversible actions for the host to execute.  `sched` is only
  // inspected (to pick offenders among live non-rt leaves).
  GovActions sample(const GovSignals& sig, TimeNs now, const Hfsc& sched);

  // The host reports the saved state for actions it executed, so the
  // governor can restore it on de-escalation.
  void note_clamped(ClassId cls, const ClassConfig& original) {
    clamped_[cls] = original;
  }
  void note_quarantined(ClassId cls, std::size_t original_limit) {
    quarantined_[cls] = original_limit;
  }
  const std::map<ClassId, ClassConfig>& clamped() const noexcept {
    return clamped_;
  }
  const std::map<ClassId, std::size_t>& quarantined() const noexcept {
    return quarantined_;
  }
  ClassConfig saved_config(ClassId cls) const { return clamped_.at(cls); }
  std::size_t saved_qlimit(ClassId cls) const { return quarantined_.at(cls); }
  void forget_clamp(ClassId cls) { clamped_.erase(cls); }
  void forget_quarantine(ClassId cls) { quarantined_.erase(cls); }
  bool admission_tightened() const noexcept { return tightened_; }
  void note_admission(bool tightened) { tightened_ = tightened; }

  // Typed event stream; drain() hands the accumulated events over.
  std::vector<GovEvent> drain_events() {
    std::vector<GovEvent> out;
    out.swap(events_);
    return out;
  }
  std::uint64_t push_outs() const noexcept { return push_outs_; }
  void count_push_out() noexcept { ++push_outs_; }

  // Durable state (level, saved originals, tightened flag) as an opaque
  // text blob for the checkpoint ext section / `gov` journal records.
  // Volatile hysteresis counters are deliberately excluded: after a
  // recovery the ladder re-earns its evidence, it does not inherit it.
  std::string serialize() const;
  // Replaces the durable state; throws Error{kBadCheckpoint} on a
  // malformed blob (util/text_codec.hpp: strict unsigned numerals, the
  // message ends with the offending byte offset in the blob).
  void restore(std::string_view blob);

 private:
  void emit(GovEvent e) { events_.push_back(e); }
  // The ladder level the raw signals ask for, before hysteresis.
  int target_level(const GovSignals& sig) const noexcept;

  GovernorConfig cfg_;
  int level_ = 0;
  int up_streak_ = 0;
  int down_streak_ = 0;
  bool tightened_ = false;
  // Offender bookkeeping at level >= 2: consecutive flagged samples.
  std::map<ClassId, int> flagged_streak_;
  // Saved originals for reversal, keyed by class.
  std::map<ClassId, ClassConfig> clamped_;
  std::map<ClassId, std::size_t> quarantined_;
  std::vector<GovEvent> events_;
  std::uint64_t push_outs_ = 0;
};

}  // namespace hfsc
