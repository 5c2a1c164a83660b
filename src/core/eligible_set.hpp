// Real-time request structures for H-FSC (paper Section V).
//
// The real-time criterion needs, at each dequeue:
//     among classes with eligible time e <= now, the minimum deadline d.
//
// The paper proposes two implementations, both O(log n).  Three concrete
// classes with the same member functions are provided.  Hfsc holds a
// DualHeapEligibleSet by value; the other two are Section V reference
// structures that the tests check against it and the E10 bench measures:
//
//  * DualHeapEligibleSet — the one H-FSC uses.  A pending heap keyed by e
//    plus a ready heap keyed by d; requests migrate as the clock passes
//    their eligible time.  (An indexed heap stands in for the paper's
//    calendar queue on the pending side; same O(log n) bound, simpler
//    memory behavior.)  Its methods are defined inline in this header so
//    they inline into Hfsc's dequeue loop.
//
//  * AugTreeEligibleSet — "an augmented binary tree data structure as the
//    one described in [16]": a balanced search tree ordered by e where
//    every node also stores the minimum d (and the smallest class id
//    achieving it) in its subtree; the query walks the e <= now prefix in
//    O(log n) without any state migration.  Nodes come from an internal
//    pool (chunked arena + free list), so steady-state update/erase
//    cycles never touch the allocator.
//
//  * CalendarEligibleSet — the literal calendar queue plus deadline heap
//    (see the class comment below).
//
// Shared contract (every class provides update, erase, contains, empty,
// min_deadline_eligible and next_eligible_time):
//
//  * update(cls, e, d, now) inserts or updates the (e, d) request of cls.
//
//  * `now` must be monotone non-decreasing across calls on one instance
//    (Hfsc guarantees this via its clock clamp); behavior under a
//    regressed clock is safe but unspecified.
//
//  * min_deadline_eligible(now) returns the class with the smallest
//    deadline among those with e <= now.  Deadline ties break toward the
//    smallest ClassId in every implementation, so all three produce
//    identical sequences for identical inputs (pinned by
//    tests/test_eligible_ablation_fuzz.cpp).
//
//  * next_eligible_time() returns the earliest time at which
//    min_deadline_eligible() could return a class: 0 if a request is
//    already eligible (its e is <= the latest `now` the structure has
//    seen), the smallest pending e otherwise, kTimeInfinity when empty.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sched/packet.hpp"
#include "util/indexed_heap.hpp"
#include "util/types.hpp"

namespace hfsc {

class DualHeapEligibleSet {
 public:
  void update(ClassId cls, TimeNs e, TimeNs d, TimeNs now) {
    if (cls >= deadline_of_.size()) deadline_of_.resize(cls + 1, 0);
    deadline_of_[cls] = d;
    // In-place re-key when the request stays on the same side of `now`;
    // the steady-state path (one served class re-posting its next
    // request) then costs one sift instead of an erase + push pair.
    if (e <= now) {
      if (pending_.contains(cls)) pending_.erase(cls);
      ready_.push_or_update(cls, d);
    } else {
      if (ready_.contains(cls)) ready_.erase(cls);
      pending_.push_or_update(cls, e);
    }
  }

  void erase(ClassId cls) {
    if (pending_.contains(cls)) {
      pending_.erase(cls);
    } else if (ready_.contains(cls)) {
      ready_.erase(cls);
    }
  }

  bool contains(ClassId cls) const {
    return pending_.contains(cls) || ready_.contains(cls);
  }
  bool empty() const { return pending_.empty() && ready_.empty(); }

  std::optional<ClassId> min_deadline_eligible(TimeNs now) {
    while (!pending_.empty() && pending_.top_key() <= now) {
      const ClassId cls = pending_.pop();
      ready_.push(cls, deadline_of_[cls]);
    }
    if (ready_.empty()) return std::nullopt;
    return ready_.top_id();
  }

  TimeNs next_eligible_time() const {
    if (!ready_.empty()) return 0;
    if (pending_.empty()) return kTimeInfinity;
    return pending_.top_key();
  }

 private:
  IndexedHeap<TimeNs> pending_;  // e > last seen now, keyed by e
  IndexedHeap<TimeNs> ready_;    // eligible, keyed by d
  std::vector<TimeNs> deadline_of_;  // ClassId -> d (for promotions)
};

class AugTreeEligibleSet {
 public:
  AugTreeEligibleSet();
  ~AugTreeEligibleSet();

  void update(ClassId cls, TimeNs e, TimeNs d, TimeNs now);
  void erase(ClassId cls);
  bool contains(ClassId cls) const;
  bool empty() const;
  std::optional<ClassId> min_deadline_eligible(TimeNs now);
  TimeNs next_eligible_time() const;

 private:
  struct Node;

  Node* alloc_node();
  void free_node(Node* n) noexcept;

  // Treap ordered by (e, cls) with subtree (min deadline, min class id
  // achieving it) augmentation.
  Node* root_ = nullptr;
  std::vector<Node*> node_of_;  // ClassId -> node (null if absent)
  std::uint64_t rng_state_ = 0x9E3779B97F4A7C15ULL;
  // Latest `now` observed; makes next_eligible_time() report "already
  // eligible" exactly like the migrating implementations do.
  TimeNs seen_now_ = 0;

  // Node pool: chunked arena plus an intrusive free list (reusing the
  // `left` pointer), so update/erase churn is allocation-free after
  // warmup.
  static constexpr std::size_t kPoolChunk = 256;
  std::vector<std::unique_ptr<Node[]>> pool_;
  Node* free_list_ = nullptr;

  std::uint64_t next_priority();
  static void pull(Node* n);
  static Node* merge(Node* a, Node* b);
  // Splits by key (e, cls): left gets keys < (e, cls), right the rest.
  static void split(Node* n, TimeNs e, ClassId cls, Node** l, Node** r);
};

// The literal structure of Section V's second alternative: "a calendar
// queue for keeping track of the eligible times in conjunction with a
// heap for maintaining the requests' deadlines".  Pending requests hash
// into fixed-width time buckets (Brown's calendar queue, simplified to a
// fixed bucket count with lazy day-rollover) and migrate into the
// deadline heap as the clock passes them; min_deadline_eligible() is the
// same O(log n) pop, but the pending side costs O(1) per insert instead
// of O(log n).
//
// Day-rollover safety: a request whose eligible time lies more than
// num_buckets * width in the future hashes into a bucket that the scan
// reaches a full "day" before the request matures.  Bucket entries
// therefore carry their exact eligible time, and migrate() only promotes
// an entry once e <= now — a future-revolution entry is skipped and
// stays in its bucket (pinned by EligibleSetTest.CalendarDayRollover).
class CalendarEligibleSet {
 public:
  // bucket_width: the calendar's time granularity; requests whose
  // eligible times fall in the same bucket migrate together (they are
  // re-checked exactly, so correctness does not depend on the width).
  explicit CalendarEligibleSet(TimeNs bucket_width = usec(100),
                               std::size_t num_buckets = 256);

  void update(ClassId cls, TimeNs e, TimeNs d, TimeNs now);
  void erase(ClassId cls);
  bool contains(ClassId cls) const;
  bool empty() const { return size_ == 0; }
  std::optional<ClassId> min_deadline_eligible(TimeNs now);
  TimeNs next_eligible_time() const;

 private:
  struct Request {
    TimeNs e = 0;
    TimeNs d = 0;
    bool present = false;
    bool in_ready = false;
    std::size_t bucket = 0;
  };
  // A pending entry carries its eligible time so migrate() can decide
  // promotion (and future-revolution skipping) without touching req_.
  struct Entry {
    ClassId cls = 0;
    TimeNs e = 0;
  };

  std::size_t bucket_of(TimeNs e) const noexcept {
    return static_cast<std::size_t>(e / width_) % buckets_.size();
  }
  void migrate(TimeNs now);

  TimeNs width_;
  std::vector<std::vector<Entry>> buckets_;  // pending, by eligible time
  IndexedHeap<TimeNs> ready_;                // eligible, keyed by deadline
  std::vector<Request> req_;                 // ClassId -> request
  std::size_t size_ = 0;
  TimeNs migrated_until_ = 0;  // clock position of the calendar scan
};

}  // namespace hfsc
