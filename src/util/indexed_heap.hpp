// A handle-based 4-ary min-heap.
//
// Schedulers need priority queues whose elements' keys change while queued
// (a class's deadline/eligible/virtual time is recomputed whenever its head
// packet changes) and that support removal from the middle (a class going
// passive).  IndexedHeap stores a dense array of (key, id) nodes plus a
// side table mapping id -> heap slot, giving O(log n) push / pop / erase /
// update and O(1) top and containment tests.
//
// Layout: node i's children are 4i+1 .. 4i+4, so a 100k heap is 9 levels
// deep instead of a binary heap's 17, and with 8-byte keys the four
// siblings a sift-down compares are 64 contiguous bytes.  Sifts move a
// hole rather than swapping: each level copies one node and writes one
// slot, and the moving node is written once where it comes to rest.
//
// Ids are small non-negative integers (class indices).  Ties are broken by
// id, so (key, id) is a total order and top() never depends on the layout:
// the pop sequence is the same as any other correct heap's.
//
// Each node also carries a 32-bit tag that rides along with its id and
// takes no part in the order.  It fills what would otherwise be padding,
// so a caller can keep a second name for each element (H-FSC stores the
// child's ClassId beside its index in the parent) and read it at the top
// without a side table.  Heaps that pass no tag store 0.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hfsc {

template <typename Key>
class IndexedHeap {
 public:
  using Id = std::uint32_t;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  bool contains(Id id) const noexcept {
    return id < slot_.size() && slot_[id] != kNoSlot;
  }

  // Key of the minimum element; heap must be non-empty.
  const Key& top_key() const noexcept {
    assert(!heap_.empty());
    return heap_.front().key;
  }

  Id top_id() const noexcept {
    assert(!heap_.empty());
    return heap_.front().id;
  }

  std::uint32_t top_tag() const noexcept {
    assert(!heap_.empty());
    return heap_.front().tag;
  }

  const Key& key_of(Id id) const noexcept {
    assert(contains(id));
    return heap_[slot_[id]].key;
  }

  std::uint32_t tag_of(Id id) const noexcept {
    assert(contains(id));
    return heap_[slot_[id]].tag;
  }

  // Inserts id with the given key and tag.  id must not already be
  // present.
  void push(Id id, Key key, std::uint32_t tag = 0) {
    assert(!contains(id));
    assert(heap_.size() < kNoSlot);  // every slot must be representable
    if (id >= slot_.size()) slot_.resize(std::size_t{id} + 1, kNoSlot);
    heap_.emplace_back();  // the hole the new node rises from
    sift_up(heap_.size() - 1, Node{std::move(key), id, tag});
  }

  // Removes and returns the id with the smallest key.
  Id pop() {
    assert(!heap_.empty());
    const Id id = heap_.front().id;
    erase_slot(0);
    return id;
  }

  // Removes id from the heap.  id must be present.
  void erase(Id id) {
    assert(contains(id));
    erase_slot(slot_[id]);
  }

  // Changes the key of a present element (up or down); its tag stays.
  void update(Id id, Key key) {
    assert(contains(id));
    const std::size_t s = slot_[id];
    Node n{std::move(key), id, heap_[s].tag};
    if (less(n, heap_[s])) {
      sift_up(s, std::move(n));
    } else {
      sift_down(s, std::move(n));
    }
  }

  // push if absent, update otherwise.
  void push_or_update(Id id, Key key) {
    if (contains(id)) {
      update(id, std::move(key));
    } else {
      push(id, std::move(key));
    }
  }

  void clear() noexcept {
    for (const Node& n : heap_) slot_[n.id] = kNoSlot;
    heap_.clear();
  }

  // Pruned pre-order walk from the top: calls visit(key, id, tag) and
  // enters the element's children only when it returns true.  Everything
  // below an element orders after it, so a walk that stops at each
  // element satisfying a predicate meets the least such element, the one
  // a pop sequence would meet first.  Read-only and stackless.
  template <typename Visit>
  void walk(Visit&& visit) const {
    const std::size_t size = heap_.size();
    std::size_t s = 0;
    while (s < size) {
      const Node& n = heap_[s];
      if (visit(n.key, n.id, n.tag) && kArity * s + 1 < size) {
        s = kArity * s + 1;
        continue;
      }
      // Past the last of a sibling group (slots 4p+1 .. 4p+4) or the
      // array's end, climb to the first ancestor with a next sibling.
      while (s != 0 && (s % kArity == 0 || s + 1 == size)) {
        s = (s - 1) / kArity;
      }
      if (s == 0) return;
      ++s;
    }
  }

  // O(n + ids) structural check for tests: no node orders before its
  // parent, each node's slot entry points back at it, and exactly
  // size() ids have a slot.
  bool well_formed() const noexcept {
    for (std::size_t s = 0; s < heap_.size(); ++s) {
      if (s > 0 && less(heap_[s], heap_[(s - 1) / kArity])) return false;
      const Id id = heap_[s].id;
      if (id >= slot_.size() || slot_[id] != s) return false;
    }
    std::size_t slotted = 0;
    for (const std::uint32_t s : slot_) slotted += s != kNoSlot ? 1 : 0;
    return slotted == heap_.size();
  }

 private:
  static constexpr std::size_t kArity = 4;

  struct Node {
    Key key;
    Id id;
    std::uint32_t tag;
  };
  static_assert(sizeof(Key) != 8 || sizeof(Node) == 16,
                "with 8-byte keys the tag must fit the node's padding");

  static bool less(const Node& a, const Node& b) noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }

  // Stores n at slot s and records where it went.
  void place(std::size_t s, Node&& n) noexcept {
    slot_[n.id] = static_cast<std::uint32_t>(s);
    heap_[s] = std::move(n);
  }

  void erase_slot(std::size_t s) {
    slot_[heap_[s].id] = kNoSlot;
    Node last = std::move(heap_.back());
    heap_.pop_back();
    if (s == heap_.size()) return;  // the erased node was the last one
    // The last node fills the hole and travels one way only: up when it
    // orders before the hole's parent, otherwise down.
    if (s > 0 && less(last, heap_[(s - 1) / kArity])) {
      sift_up(s, std::move(last));
    } else {
      sift_down(s, std::move(last));
    }
  }

  // Moves the hole at s up until n fits under its parent, then fills it.
  void sift_up(std::size_t s, Node&& n) {
    while (s > 0) {
      const std::size_t parent = (s - 1) / kArity;
      if (!less(n, heap_[parent])) break;
      place(s, std::move(heap_[parent]));
      s = parent;
    }
    place(s, std::move(n));
  }

  // Moves the hole at s down past every smaller child, then fills it.
  void sift_down(std::size_t s, Node&& n) {
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first = kArity * s + 1;
      if (first >= size) break;
      const std::size_t end = first + kArity < size ? first + kArity : size;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (less(heap_[c], heap_[best])) best = c;
      }
      if (!less(heap_[best], n)) break;
      place(s, std::move(heap_[best]));
      s = best;
    }
    place(s, std::move(n));
  }

  std::vector<Node> heap_;
  std::vector<std::uint32_t> slot_;
};

}  // namespace hfsc
