// The real-time request structure of H-FSC (paper Section V).
//
// The real-time criterion needs, at each dequeue:
//     among classes with eligible time e <= now, the minimum deadline d.
//
// The paper proposes two O(log n) structures.  DualHeapEligibleSet is
// the one H-FSC runs, held by value in Hfsc: the paper's "calendar queue
// for keeping track of the eligible times in conjunction with a heap for
// maintaining the requests' deadlines".  Ready requests (e <= now) sit in
// an indexed heap keyed by d.  Pending ones sit in a hierarchical 64-way
// wheel keyed by their exact e: level l reads the 6-bit digit l of e, and
// a request is filed at the level of the highest digit where e differs
// from the clock.  Inserting a pending request, re-keying it and erasing
// it are O(1) (a re-keyed or erased request leaves a dead entry behind,
// dropped when its slot drains).  Advancing the clock drains every slot
// wholly at or before it into the ready heap and re-files the one slot it
// falls in onto lower levels, so each request is moved at most once per
// level: O(1) per request for the wheel's 11 levels.  The wheel is the
// calendar queue with no bucket width to tune.  update, erase and the
// query are defined inline in this header so they inline into Hfsc's
// dequeue loop; the clock advance and the wakeup hint are in
// eligible_set.cpp.
//
// The paper's other structure, the augmented tree of ref. [16], is a
// reference kept beside the tests that check this one against it
// (tests/support/aug_tree_eligible_set.hpp).
//
// Contract:
//
//  * update(cls, e, d, now) inserts or updates the (e, d) request of cls.
//
//  * `now` must be monotone non-decreasing across calls on one instance
//    (Hfsc guarantees this via its clock clamp); behavior under a
//    regressed clock is safe but unspecified.
//
//  * min_deadline_eligible(now) returns the class with the smallest
//    deadline among those with e <= now.  Deadline ties break toward the
//    smallest ClassId, so the sequence of winners is a function of the
//    inputs alone (the augmented tree returns the same one, pinned by
//    tests/test_eligible_ablation_fuzz.cpp).
//
//  * next_eligible_time() returns the earliest time at which
//    min_deadline_eligible() could return a class: 0 if a request is
//    already eligible (its e is <= the latest `now` the structure has
//    seen), the smallest pending e otherwise, kTimeInfinity when empty.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "sched/packet.hpp"
#include "util/indexed_heap.hpp"
#include "util/types.hpp"

namespace hfsc {

class DualHeapEligibleSet {
 public:
  DualHeapEligibleSet() : slots_(kLevels * 64) {}

  void update(ClassId cls, TimeNs e, TimeNs d, TimeNs now) {
    if (cls >= req_.size()) req_.resize(cls + 1);
    Request& r = req_[cls];
    r.d = d;
    // In-place re-key when the request stays ready: the steady-state path
    // (one served class re-posting its next request) then costs one sift
    // instead of an erase + push pair.  The wheel holds only keys above
    // last_, which is never above a monotone `now`.
    if (e <= now || e <= last_) {
      drop_pending(r);
      ready_.push_or_update(cls, d);
      return;
    }
    if (ready_.contains(cls)) ready_.erase(cls);
    if (r.e == e) return;  // the live entry is already in the wheel
    if (r.e == 0) ++pending_;
    r.e = e;
    // Dead entries can pile up only as fast as requests are re-keyed, so
    // a rebuild once they outnumber the classes costs O(1) per update.
    if (filed_ >= 2 * req_.size() + kSlack) {
      refile_all();  // files this request too
    } else {
      file(Entry{e, cls});
    }
  }

  void erase(ClassId cls) {
    if (ready_.contains(cls)) {
      ready_.erase(cls);
    } else if (cls < req_.size()) {
      drop_pending(req_[cls]);
    }
  }

  bool contains(ClassId cls) const {
    return ready_.contains(cls) || (cls < req_.size() && req_[cls].e != 0);
  }
  bool empty() const { return ready_.empty() && pending_ == 0; }

  // The request the set holds for cls, for the auditor: its deadline, and
  // its eligible time while it is pending (0 once it is ready).  nullopt
  // when cls has no request.
  struct Held {
    TimeNs e;
    TimeNs d;
  };
  std::optional<Held> held(ClassId cls) const {
    if (ready_.contains(cls)) return Held{0, ready_.key_of(cls)};
    if (cls < req_.size() && req_[cls].e != 0) {
      return Held{req_[cls].e, req_[cls].d};
    }
    return std::nullopt;
  }

  std::optional<ClassId> min_deadline_eligible(TimeNs now) {
    if (now >= due_) advance(now);
    if (ready_.empty()) return std::nullopt;
    return ready_.top_id();
  }

  TimeNs next_eligible_time() const;

 private:
  // 64 slots per level, one 6-bit digit of the key each: 11 levels cover
  // 64-bit keys.
  static constexpr int kDigitBits = 6;
  static constexpr int kLevels = (64 + kDigitBits - 1) / kDigitBits;
  static constexpr std::size_t kSlack = 64;

  struct Request {
    TimeNs d = 0;  // deadline
    TimeNs e = 0;  // eligible time while pending, 0 otherwise
  };
  // A wheel entry is live while its key is its class's pending e.
  // Re-keying or erasing a pending request leaves the old entry behind
  // (it is dropped when its slot drains); an old entry whose key equals
  // the new e stands for the same request, and whichever copy drains
  // first promotes it.
  struct Entry {
    TimeNs e;
    ClassId cls;
  };

  // The level of the highest digit where a key differs from the wheel's
  // reference time, given their xor (non-zero).
  static int level_of(TimeNs key_xor_ref) noexcept {
    return (63 - std::countl_zero(key_xor_ref)) / kDigitBits;
  }
  static unsigned digit(TimeNs e, int level) noexcept {
    return static_cast<unsigned>(e >> (kDigitBits * level)) & 63;
  }

  bool live(const Entry& en) const noexcept {
    return req_[en.cls].e == en.e;
  }
  void drop_pending(Request& r) noexcept {
    if (r.e == 0) return;
    r.e = 0;
    --pending_;
  }
  // Files an entry whose key is > last_.
  void file(const Entry& en) {
    const int l = level_of(en.e ^ last_);
    const unsigned s = digit(en.e, l);
    slot(l, s).push_back(en);
    occupied_[l] |= std::uint64_t{1} << s;
    ++filed_;
    if (en.e < due_) due_ = en.e;
  }
  // Moves every pending request with e <= now into ready_ and makes now
  // the wheel's reference time.
  void advance(TimeNs now);
  // The smallest key in the wheel, live or dead (kTimeInfinity when
  // empty): the least key of the lowest occupied slot.
  TimeNs smallest_key() const noexcept;
  // Moves the request of a live entry with e <= last_ into ready_.
  void promote(const Entry& en) {
    Request& r = req_[en.cls];
    if (r.e != en.e) return;  // dead
    r.e = 0;
    --pending_;
    ready_.push(en.cls, r.d);
  }
  std::vector<Entry>& slot(int l, unsigned s) { return slots_[64 * l + s]; }
  const std::vector<Entry>& slot(int l, unsigned s) const {
    return slots_[64 * l + s];
  }
  // Empties one slot, promoting its live entries.
  void drain(int l, unsigned s);
  // Rebuilds the wheel from the pending requests, shedding dead entries.
  void refile_all();

  IndexedHeap<TimeNs> ready_;  // eligible, keyed by d
  TimeNs last_ = 0;            // the latest `now` the wheel advanced to
  // The smallest key in the wheel: a query before it has nothing to
  // drain and leaves last_ where it is.
  TimeNs due_ = kTimeInfinity;
  // Pending requests (e > last_): level l holds the entries whose key
  // agrees with last_ above digit l and differs in it, in the slot named
  // by the key's digit l.  Lower levels and lower slots hold smaller keys.
  // Bit s of occupied_[l] is set while slot (l, s) is non-empty.  The
  // slots themselves live on the heap, away from Hfsc's own lines.
  std::uint64_t occupied_[kLevels] = {};
  std::vector<std::vector<Entry>> slots_;  // slot (l, s) at 64 * l + s
  std::vector<Request> req_;  // ClassId -> request
  std::size_t pending_ = 0;   // pending requests
  std::size_t filed_ = 0;     // wheel entries, live or dead
};

}  // namespace hfsc
