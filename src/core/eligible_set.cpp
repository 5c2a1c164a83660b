#include "core/eligible_set.hpp"

#include <algorithm>
#include <bit>

namespace hfsc {

void DualHeapEligibleSet::drain(int l, unsigned s) {
  std::vector<Entry>& entries = slot(l, s);
  for (const Entry& en : entries) promote(en);
  filed_ -= entries.size();
  entries.clear();
  occupied_[l] &= ~(std::uint64_t{1} << s);
}

void DualHeapEligibleSet::advance(TimeNs now) {
  if (filed_ == 0) return;  // reached only by a query at kTimeInfinity
  const TimeNs prev = last_;
  last_ = now;
  // Let `top` be the level of the highest digit where now differs from
  // prev.  Every key below that level, and every key there in a slot
  // before now's digit, lies in (prev, now].  The slot of now's digit
  // straddles now.  The later slots, like every higher level, already sit
  // where they belong relative to now.
  const int top = level_of(prev ^ now);
  for (int l = 0; l < top; ++l) {
    for (std::uint64_t m = occupied_[l]; m != 0; m &= m - 1) {
      drain(l, std::countr_zero(m));
    }
  }
  const unsigned at = digit(now, top);
  const std::uint64_t at_bit = std::uint64_t{1} << at;
  for (std::uint64_t m = occupied_[top] & (at_bit - 1); m != 0; m &= m - 1) {
    drain(top, std::countr_zero(m));
  }
  if ((occupied_[top] & at_bit) != 0) {
    // The straddling slot's keys agree with now down to digit `top`, so
    // those after now re-file onto lower levels, never back into this
    // slot.  Liveness is left for the drain to check.
    std::vector<Entry>& entries = slot(top, at);
    filed_ -= entries.size();
    for (const Entry& en : entries) {
      if (en.e > now) {
        file(en);
      } else {
        promote(en);
      }
    }
    entries.clear();
    occupied_[top] &= ~at_bit;
  }
  due_ = smallest_key();
}

TimeNs DualHeapEligibleSet::smallest_key() const noexcept {
  for (int l = 0; l < kLevels; ++l) {
    const std::uint64_t m = occupied_[l];
    if (m == 0) continue;
    TimeNs least = kTimeInfinity;
    for (const Entry& en : slot(l, std::countr_zero(m))) {
      least = std::min(least, en.e);
    }
    return least;
  }
  return kTimeInfinity;
}

void DualHeapEligibleSet::refile_all() {
  for (int l = 0; l < kLevels; ++l) {
    for (std::uint64_t m = occupied_[l]; m != 0; m &= m - 1) {
      slot(l, std::countr_zero(m)).clear();
    }
    occupied_[l] = 0;
  }
  filed_ = 0;
  due_ = kTimeInfinity;
  for (ClassId c = 0; c < req_.size(); ++c) {
    if (req_[c].e != 0) file(Entry{req_[c].e, c});
  }
}

TimeNs DualHeapEligibleSet::next_eligible_time() const {
  if (!ready_.empty()) return 0;
  if (pending_ == 0) return kTimeInfinity;
  // The first slot holding a live entry holds the smallest pending e.
  for (int l = 0; l < kLevels; ++l) {
    for (std::uint64_t m = occupied_[l]; m != 0; m &= m - 1) {
      bool found = false;
      TimeNs best = 0;
      for (const Entry& en : slot(l, std::countr_zero(m))) {
        if (live(en) && (!found || en.e < best)) {
          found = true;
          best = en.e;
        }
      }
      if (found) return best;
    }
  }
  return kTimeInfinity;  // not reached: each pending request has an entry
}

}  // namespace hfsc
