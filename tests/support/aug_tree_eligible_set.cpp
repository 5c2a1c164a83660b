#include "aug_tree_eligible_set.hpp"

#include <algorithm>
#include <cassert>

namespace hfsc {

struct AugTreeEligibleSet::Node {
  TimeNs e = 0;
  TimeNs d = 0;
  TimeNs min_d = 0;      // min deadline in this subtree
  ClassId cls = 0;
  ClassId min_d_cls = 0; // smallest class id achieving min_d in the subtree
  std::uint64_t prio = 0;
  Node* left = nullptr;
  Node* right = nullptr;
};

AugTreeEligibleSet::AugTreeEligibleSet() = default;

AugTreeEligibleSet::~AugTreeEligibleSet() = default;  // pool_ owns the nodes

AugTreeEligibleSet::Node* AugTreeEligibleSet::alloc_node() {
  if (free_list_ == nullptr) {
    pool_.push_back(std::make_unique<Node[]>(kPoolChunk));
    Node* chunk = pool_.back().get();
    for (std::size_t i = 0; i < kPoolChunk; ++i) {
      chunk[i].left = free_list_;
      free_list_ = &chunk[i];
    }
  }
  Node* n = free_list_;
  free_list_ = n->left;
  return n;
}

void AugTreeEligibleSet::free_node(Node* n) noexcept {
  n->left = free_list_;
  free_list_ = n;
}

std::uint64_t AugTreeEligibleSet::next_priority() {
  // xorshift64*
  std::uint64_t x = rng_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_state_ = x;
  return x * 0x2545F4914F6CDD1DULL;
}

void AugTreeEligibleSet::pull(Node* n) {
  n->min_d = n->d;
  n->min_d_cls = n->cls;
  auto fold = [&](const Node* c) {
    if (c && (c->min_d < n->min_d ||
              (c->min_d == n->min_d && c->min_d_cls < n->min_d_cls))) {
      n->min_d = c->min_d;
      n->min_d_cls = c->min_d_cls;
    }
  };
  fold(n->left);
  fold(n->right);
}

AugTreeEligibleSet::Node* AugTreeEligibleSet::merge(Node* a, Node* b) {
  if (!a) return b;
  if (!b) return a;
  if (a->prio > b->prio) {
    a->right = merge(a->right, b);
    pull(a);
    return a;
  }
  b->left = merge(a, b->left);
  pull(b);
  return b;
}

void AugTreeEligibleSet::split(Node* n, TimeNs e, ClassId cls, Node** l,
                               Node** r) {
  if (!n) {
    *l = *r = nullptr;
    return;
  }
  const bool goes_left = n->e < e || (n->e == e && n->cls < cls);
  if (goes_left) {
    split(n->right, e, cls, &n->right, r);
    *l = n;
    pull(n);
  } else {
    split(n->left, e, cls, l, &n->left);
    *r = n;
    pull(n);
  }
}

void AugTreeEligibleSet::update(ClassId cls, TimeNs e, TimeNs d, TimeNs now) {
  erase(cls);
  seen_now_ = std::max(seen_now_, now);
  if (cls >= node_of_.size()) node_of_.resize(cls + 1, nullptr);
  Node* fresh = alloc_node();
  *fresh = Node{e, d, d, cls, cls, next_priority(), nullptr, nullptr};
  node_of_[cls] = fresh;
  Node *l, *r;
  split(root_, e, cls, &l, &r);
  root_ = merge(merge(l, fresh), r);
}

void AugTreeEligibleSet::erase(ClassId cls) {
  if (cls >= node_of_.size() || node_of_[cls] == nullptr) return;
  Node* target = node_of_[cls];
  Node *l, *mid, *r;
  split(root_, target->e, target->cls, &l, &mid);
  // mid's leftmost node is exactly (e, cls); split it off.
  split(mid, target->e, target->cls + 1, &mid, &r);
  assert(mid != nullptr && mid->cls == cls && !mid->left && !mid->right);
  free_node(mid);
  node_of_[cls] = nullptr;
  root_ = merge(l, r);
}

bool AugTreeEligibleSet::contains(ClassId cls) const {
  return cls < node_of_.size() && node_of_[cls] != nullptr;
}

bool AugTreeEligibleSet::empty() const { return root_ == nullptr; }

std::optional<ClassId> AugTreeEligibleSet::min_deadline_eligible(TimeNs now) {
  seen_now_ = std::max(seen_now_, now);
  // Walk the e <= now prefix: at a node with e <= now, the node itself and
  // its whole left subtree are eligible — the subtree contributes its
  // (min_d, min_d_cls) pair directly, no descent required.
  Node* n = root_;
  bool have = false;
  TimeNs best_d = 0;
  ClassId best_cls = 0;
  auto consider = [&](TimeNs d, ClassId cls) {
    if (!have || d < best_d || (d == best_d && cls < best_cls)) {
      have = true;
      best_d = d;
      best_cls = cls;
    }
  };
  while (n) {
    if (n->e <= now) {
      consider(n->d, n->cls);
      if (n->left) consider(n->left->min_d, n->left->min_d_cls);
      n = n->right;
    } else {
      n = n->left;
    }
  }
  if (!have) return std::nullopt;
  return best_cls;
}

TimeNs AugTreeEligibleSet::next_eligible_time() const {
  if (!root_) return kTimeInfinity;
  const Node* n = root_;
  while (n->left) n = n->left;
  return n->e <= seen_now_ ? 0 : n->e;
}

}  // namespace hfsc
