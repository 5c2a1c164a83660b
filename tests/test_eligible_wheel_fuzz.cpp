// Differential fuzz of the dual heap's pending-side wheel against a
// brute-force model (the model of tests/test_eligible_set.cpp, with the
// exact winner and wakeup hint of tests/test_eligible_ablation_fuzz.cpp).
//
// DualHeapEligibleSet files a pending request in a 64-way wheel level by
// the highest 6-bit digit where its eligible time differs from the clock,
// and leaves re-keyed or erased requests behind as dead entries.  The
// other fuzzers span at most 20 ms and 40 classes, which keeps every key
// on the wheel's lowest four levels.  This one reaches the rest:
//  * eligible times over the full 64-bit range, kTimeInfinity included;
//  * clock jumps onto digit boundaries 2^(6k) and one either side of
//    them, and onto pending eligible times exactly;
//  * a class re-entering pending with the eligible time of its own dead
//    entry;
//  * erase and re-key of pending requests;
//  * next_eligible_time() when the lowest occupied slots hold only dead
//    entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>

#include "core/eligible_set.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

struct Req {
  TimeNs e, d;
};

std::optional<ClassId> want_winner(const std::map<ClassId, Req>& model,
                                   TimeNs now) {
  std::optional<ClassId> want;
  for (const auto& [id, r] : model) {
    if (r.e <= now && (!want || r.d < model.at(*want).d)) want = id;
  }
  return want;
}

TimeNs want_next(const std::map<ClassId, Req>& model, TimeNs now) {
  TimeNs next = kTimeInfinity;
  for (const auto& [id, r] : model) {
    next = std::min(next, r.e <= now ? TimeNs{0} : r.e);
  }
  return next;
}

// A key above `now`: near it, past a digit boundary, anywhere up to
// kTimeInfinity, kTimeInfinity itself, or within `span` of now.  A phase
// of the run keeps one span, so the keys crowd a few slots of one level
// and the clock (steps of up to span / 8) cuts through those slots.
TimeNs draw_key(Rng& rng, TimeNs now, TimeNs span) {
  const TimeNs room = kTimeInfinity - now;
  if (room == 0) return now;
  switch (rng.uniform(0, 6)) {
    case 0:
      return now + rng.uniform(1, std::min<TimeNs>(room, 200));
    case 1: {
      const int k = static_cast<int>(rng.uniform(1, 10));
      const TimeNs step = TimeNs{1} << (6 * k);
      const TimeNs boundary = (now / step + 1) * step;  // wraps at k = 10
      if (boundary <= now || boundary == 0) return kTimeInfinity;
      const TimeNs off = rng.uniform(0, 2);  // boundary - 1, +0, +1
      return boundary - 1 + off > now ? boundary - 1 + off : boundary;
    }
    case 2: {
      const TimeNs wide = room >> rng.uniform(0, 63);
      return now + rng.uniform(1, std::max<TimeNs>(wide, 1));
    }
    case 3:
      return kTimeInfinity;
    case 4:
      return now + rng.uniform(1, std::min<TimeNs>(room, TimeNs{1} << 40));
    default:
      return now + rng.uniform(1, std::min(room, span));
  }
}

// The next clock: a small step, a digit boundary or one either side of
// it, a pending eligible time or one before it, a long jump, or a step
// of up to span / 8.
TimeNs draw_clock(Rng& rng, TimeNs now, TimeNs span,
                  const std::map<ClassId, Req>& model) {
  const TimeNs room = kTimeInfinity - now;
  if (room == 0) return now;
  switch (rng.uniform(0, 6)) {
    case 0:
      return now + rng.uniform(0, std::min<TimeNs>(room, 300));
    case 1: {
      const int k = static_cast<int>(rng.uniform(1, 10));
      const TimeNs step = TimeNs{1} << (6 * k);
      const TimeNs boundary = (now / step + 1) * step;
      if (boundary <= now || boundary == 0) return now;
      const TimeNs t = boundary - 1 + rng.uniform(0, 2);
      return t >= now ? t : now;
    }
    case 2: {
      // Exactly onto (or just before) some pending eligible time.
      if (model.empty()) return now;
      auto it = model.begin();
      std::advance(it, rng.uniform(0, model.size() - 1));
      const TimeNs e = it->second.e;
      if (e <= now) return now;
      return rng.uniform(0, 1) == 0 ? e : e - 1;
    }
    case 3:
      return now + rng.uniform(0, room >> rng.uniform(8, 63));
    case 4:
      return now + rng.uniform(0, std::min<TimeNs>(room, TimeNs{1} << 24));
    default:
      return now + rng.uniform(0, std::min(room, span / 8));
  }
}

class EligibleWheelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EligibleWheelFuzz, MatchesBruteForceOverTheFullKeyRange) {
  Rng rng(GetParam());
  DualHeapEligibleSet set;
  std::map<ClassId, Req> model;
  std::map<ClassId, TimeNs> last_pending_e;  // each class's newest filed e
  // Start the clock anywhere, so the upper digits take part from the
  // first step.
  TimeNs now = 0;
  if (rng.uniform(0, 3) != 0) {
    const TimeNs bits = rng.next_u64();
    now = bits >> rng.uniform(0, 63);
  }

  TimeNs span = 0;
  for (int step = 0; step < 20000; ++step) {
    if (step % 500 == 0) span = TimeNs{1} << rng.uniform(6, 63);
    const ClassId cls = static_cast<ClassId>(rng.uniform(1, 64));
    switch (rng.uniform(0, 5)) {
      case 0:
      case 1: {
        TimeNs e;
        const auto old = last_pending_e.find(cls);
        if (old != last_pending_e.end() && old->second > now &&
            rng.uniform(0, 2) == 0) {
          e = old->second;  // the key of its own (maybe dead) entry
        } else if (rng.uniform(0, 5) == 0) {
          e = now - rng.uniform(0, now);  // already eligible
        } else {
          e = draw_key(rng, now, span);
        }
        if (e > now) last_pending_e[cls] = e;
        // Deadlines on a coarse grid so exact ties are common.
        const TimeNs unit = TimeNs{1} << rng.uniform(0, 56);
        const TimeNs d = rng.uniform(0, 40) * unit;
        set.update(cls, e, d, now);
        model[cls] = {e, d};
        break;
      }
      case 2:
        set.erase(cls);
        model.erase(cls);
        break;
      case 3: {
        // Erase or re-key a whole run of small keys, so the lowest slots
        // hold only dead entries when the hint is read.
        for (auto it = model.begin(); it != model.end();) {
          if (it->second.e <= now || rng.uniform(0, 1) == 0) {
            ++it;
            continue;
          }
          const ClassId id = it->first;
          if (rng.uniform(0, 1) == 0) {
            set.erase(id);
            it = model.erase(it);
          } else {
            const TimeNs e = draw_key(rng, now, span);
            last_pending_e[id] = e;
            set.update(id, e, it->second.d, now);
            it->second.e = e;
            ++it;
          }
        }
        break;
      }
      default: {
        now = draw_clock(rng, now, span, model);
        const std::optional<ClassId> got = set.min_deadline_eligible(now);
        ASSERT_EQ(got, want_winner(model, now))
            << "step " << step << " now " << now;
        // Serve the winner as Hfsc does: it re-posts its next request or,
        // with its queue empty, leaves.  The ready side turns over, so a
        // request promoted too early soon wins a query it should not.
        if (got && rng.uniform(0, 3) != 0) {
          set.erase(*got);
          model.erase(*got);
        } else if (got) {
          const TimeNs e = draw_key(rng, now, span);
          last_pending_e[*got] = e;
          set.update(*got, e, model[*got].d, now);
          model[*got].e = e;
        }
        break;
      }
    }
    ASSERT_EQ(set.next_eligible_time(), want_next(model, now))
        << "step " << step << " now " << now;
    ASSERT_EQ(set.contains(cls), model.count(cls) != 0) << "step " << step;
    ASSERT_EQ(set.empty(), model.empty()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EligibleWheelFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Many classes with far-future keys that are re-keyed and erased over
// and over while the clock stands still: the dead entries must be shed
// (the set rebuilds its wheel) and the answers must not change.
TEST(EligibleWheel, DeadEntriesAreShedWithoutChangingAnswers) {
  Rng rng(99);
  DualHeapEligibleSet set;
  std::map<ClassId, Req> model;
  const TimeNs now = msec(1);
  for (int round = 0; round < 200; ++round) {
    for (ClassId c = 1; c <= 50; ++c) {
      const TimeNs e = rng.uniform(0, 3) == 0
                           ? kTimeInfinity
                           : now + rng.uniform(1, 1'000'000);
      set.update(c, e, e, now);
      model[c] = {e, e};
      if (rng.uniform(0, 4) == 0) {
        set.erase(c);
        model.erase(c);
      }
    }
    ASSERT_EQ(set.next_eligible_time(), want_next(model, now)) << round;
  }
  const TimeNs later = now + 2'000'000;
  ASSERT_EQ(set.min_deadline_eligible(later), want_winner(model, later));
  ASSERT_EQ(set.next_eligible_time(), want_next(model, later));
}

}  // namespace
}  // namespace hfsc
