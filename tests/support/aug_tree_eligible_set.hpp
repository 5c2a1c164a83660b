// The augmented-tree eligible set of paper Section V — the reference that
// the dual heap H-FSC runs is checked against.
//
// Section V: the real-time requests can be kept in "an augmented binary
// tree data structure as the one described in [16]": a balanced search
// tree ordered by eligible time e where every node also stores the
// minimum deadline d (and the smallest class id achieving it) in its
// subtree.  The query walks the e <= now prefix in O(log n) without any
// state migration.  Nodes come from an internal pool (chunked arena +
// free list), so steady-state update/erase cycles never touch the
// allocator.
//
// It has DualHeapEligibleSet's members and contract
// (core/eligible_set.hpp): the same winner from min_deadline_eligible(),
// deadline ties broken toward the smallest ClassId, and the same
// next_eligible_time() (0 once a request is eligible at the latest `now`
// seen, the smallest pending e otherwise, kTimeInfinity when empty).
// tests/test_eligible_set.cpp and tests/test_eligible_ablation_fuzz.cpp
// hold the two to that; bench/bench_eligible_ablation (E10) times both.
// H-FSC never runs it, so it compiles into those targets only.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sched/packet.hpp"
#include "util/types.hpp"

namespace hfsc {

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

}  // namespace hfsc
