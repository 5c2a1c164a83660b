#include "runtime/governor.hpp"

#include "util/errors.hpp"
#include "util/text_codec.hpp"

namespace hfsc {

const char* to_string(GovEventKind k) noexcept {
  switch (k) {
    case GovEventKind::kLevelUp: return "level-up";
    case GovEventKind::kLevelDown: return "level-down";
    case GovEventKind::kClamp: return "clamp";
    case GovEventKind::kUnclamp: return "unclamp";
    case GovEventKind::kQuarantine: return "quarantine";
    case GovEventKind::kRelease: return "release";
    case GovEventKind::kTightenAdmission: return "tighten-admission";
    case GovEventKind::kRestoreAdmission: return "restore-admission";
  }
  return "?";
}

std::string GovEvent::to_string() const {
  std::string s = std::string(hfsc::to_string(kind)) + " @" +
                  std::to_string(when);
  if (kind == GovEventKind::kLevelUp || kind == GovEventKind::kLevelDown) {
    s += " level " + std::to_string(from_level) + "->" +
         std::to_string(to_level);
  } else if (cls != kRootClass) {
    s += " class " + std::to_string(cls);
  }
  return s;
}

int OverloadGovernor::target_level(const GovSignals& sig) const noexcept {
  int t = 0;
  for (int i = 0; i < 3; ++i) {
    if (sig.backlog_bytes >= cfg_.enter_backlog[i]) t = i + 1;
  }
  // A starving leaf under real pressure is direct evidence the current
  // response is not enough; starvation with an idle link is legal
  // (upper limits, rt-only curves) and escalates nothing.
  if (t > 0 && t < 3 && sig.starved_leaves > 0) ++t;
  return t;
}

GovActions OverloadGovernor::sample(const GovSignals& sig, TimeNs now,
                                    const Hfsc& sched) {
  GovActions out;

  const int target = target_level(sig);
  const bool wants_up = target > level_;
  const bool wants_down =
      level_ > 0 && target < level_ &&
      sig.backlog_bytes < cfg_.exit_backlog[level_ - 1] &&
      sig.starved_leaves == 0;

  if (wants_up) {
    ++up_streak_;
    down_streak_ = 0;
  } else if (wants_down) {
    ++down_streak_;
    up_streak_ = 0;
  } else {
    up_streak_ = 0;
    down_streak_ = 0;
  }

  if (wants_up && up_streak_ >= cfg_.up_samples) {
    const int from = level_;
    ++level_;  // one rung at a time; the ladder is walked, not jumped
    up_streak_ = 0;
    emit(GovEvent{GovEventKind::kLevelUp, now, from, level_});
    if (level_ >= 3) {
      emit(GovEvent{GovEventKind::kTightenAdmission, now, from, level_});
    }
  } else if (wants_down && down_streak_ >= cfg_.down_samples) {
    const int from = level_;
    --level_;
    down_streak_ = 0;
    emit(GovEvent{GovEventKind::kLevelDown, now, from, level_});
    if (level_ < 3 && tightened_) {
      emit(GovEvent{GovEventKind::kRestoreAdmission, now, from, level_});
    }
    if (level_ < 2) {
      // Full reversal: every clamp and quarantine is undone from the
      // saved originals the moment the clamping level is left.
      for (const auto& [cls, saved] : clamped_) {
        (void)saved;
        out.unclamp.push_back(cls);
        emit(GovEvent{GovEventKind::kUnclamp, now, from, level_, cls});
      }
      for (const auto& [cls, saved] : quarantined_) {
        (void)saved;
        out.release.push_back(cls);
        emit(GovEvent{GovEventKind::kRelease, now, from, level_, cls});
      }
      flagged_streak_.clear();
    }
  }

  // Admission headroom is requested as long as the ladder sits at level
  // 3 (and released below it), not only on the transition edge: if the
  // host could not tighten — the admitted aggregate would not fit the
  // reduced link — it retries at the next sample.
  if (level_ >= 3 && !tightened_) out.tighten_admission = true;
  if (level_ < 3 && tightened_) out.restore_admission = true;

  if (level_ >= 2) {
    // Offender scan: live non-rt leaves persistently holding at least
    // half the push-out cap.  The level-1 early drop pins a flooding
    // class at or just below class_threshold, so the clamping level
    // must flag below the cap or a capped flooder would never be seen.
    // rt-bearing leaves are constitutionally exempt — their guarantees
    // are the thing the ladder exists to protect.
    for (ClassId c = 1; c < sched.num_classes(); ++c) {
      if (sched.is_deleted(c) || !sched.is_leaf(c)) continue;
      const ClassConfig& cfg = sched.config_of(c);
      if (!cfg.rt.is_zero()) continue;
      if (sched.queued_bytes(c) >= cfg_.class_threshold / 2) {
        const int streak = ++flagged_streak_[c];
        if (clamped_.find(c) == clamped_.end()) {
          out.clamp.push_back(c);
          emit(GovEvent{GovEventKind::kClamp, now, level_, level_, c});
        } else if (streak >= cfg_.quarantine_after &&
                   quarantined_.find(c) == quarantined_.end()) {
          out.quarantine.push_back(c);
          emit(GovEvent{GovEventKind::kQuarantine, now, level_, level_, c});
        }
      } else {
        flagged_streak_.erase(c);
      }
    }
  }

  return out;
}

std::string OverloadGovernor::serialize() const {
  std::string out;
  put_record(out, "gov-state", 1);
  put_record(out, "level", level_, tightened_);
  put_record(out, "clamped", clamped_.size());
  for (const auto& [cls, c] : clamped_) {
    put_record(out, cls, c.rt.m1, c.rt.d, c.rt.m2, c.ls.m1, c.ls.d, c.ls.m2,
               c.ul.m1, c.ul.d, c.ul.m2);
  }
  put_record(out, "quarantined", quarantined_.size());
  for (const auto& [cls, limit] : quarantined_) put_record(out, cls, limit);
  out += "end\n";
  return out;
}

void OverloadGovernor::restore(std::string_view blob) {
  TextReader in(blob, Errc::kBadCheckpoint, "governor state: ");
  in.expect("gov-state");
  if (in.num<unsigned>("version") != 1) in.fail("unsupported version");
  in.expect("level");
  const auto level = in.num<unsigned>("level");
  if (level > 3) in.fail("level out of range");
  const bool tight = in.flag("tightened");
  in.expect("clamped");
  std::map<ClassId, ClassConfig> clamped;
  for (auto n = in.num<std::size_t>("clamped count"); n > 0; --n) {
    const auto cls = in.num<ClassId>("clamped class");
    ClassConfig& cfg = clamped[cls];
    for (ServiceCurve* sc : {&cfg.rt, &cfg.ls, &cfg.ul}) {
      sc->m1 = in.num<RateBps>("m1");
      sc->d = in.num<TimeNs>("d");
      sc->m2 = in.num<RateBps>("m2");
    }
  }
  in.expect("quarantined");
  std::map<ClassId, std::size_t> quarantined;
  for (auto n = in.num<std::size_t>("quarantined count"); n > 0; --n) {
    const auto cls = in.num<ClassId>("quarantined class");
    quarantined[cls] = in.num<std::size_t>("saved queue limit");
  }
  in.expect("end");
  in.expect_end();

  level_ = static_cast<int>(level);
  tightened_ = tight;
  clamped_ = std::move(clamped);
  quarantined_ = std::move(quarantined);
  // Hysteresis evidence does not survive recovery (see header).
  up_streak_ = down_streak_ = 0;
  flagged_streak_.clear();
}

}  // namespace hfsc
