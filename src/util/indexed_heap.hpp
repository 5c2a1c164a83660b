// A handle-based binary min-heap.
//
// Schedulers need priority queues whose elements' keys change while queued
// (a class's deadline/eligible/virtual time is recomputed whenever its head
// packet changes) and that support removal from the middle (a class going
// passive).  IndexedHeap stores a dense array of (key, id) pairs plus a
// side table mapping id -> heap slot, giving O(log n) push / pop / erase /
// update and O(1) top and containment tests.
//
// Ids are small non-negative integers (class indices).  Ties are broken by
// id so iteration order is deterministic across runs.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hfsc {

template <typename Key>
class IndexedHeap {
 public:
  using Id = std::uint32_t;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

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

  const Key& key_of(Id id) const noexcept {
    assert(contains(id));
    return heap_[slot_[id]].key;
  }

  // Inserts id with the given key.  id must not already be present.
  void push(Id id, Key key) {
    assert(!contains(id));
    if (id >= slot_.size()) slot_.resize(id + 1, kNoSlot);
    heap_.push_back(Node{std::move(key), id});
    slot_[id] = heap_.size() - 1;
    sift_up(heap_.size() - 1);
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

  // Changes the key of a present element (up or down).
  void update(Id id, Key key) {
    assert(contains(id));
    const std::size_t s = slot_[id];
    const bool went_down = less(Node{key, id}, heap_[s]);
    heap_[s].key = std::move(key);
    if (went_down) {
      sift_up(s);
    } else {
      sift_down(s);
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
    heap_.clear();
    slot_.assign(slot_.size(), kNoSlot);
  }

 private:
  struct Node {
    Key key;
    Id id;
  };

  static bool less(const Node& a, const Node& b) noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }

  void erase_slot(std::size_t s) {
    slot_[heap_[s].id] = kNoSlot;
    if (s + 1 != heap_.size()) {
      heap_[s] = std::move(heap_.back());
      slot_[heap_[s].id] = s;
      heap_.pop_back();
      // The moved-in node may need to travel either way.
      sift_up(s);
      sift_down(s);
    } else {
      heap_.pop_back();
    }
  }

  void sift_up(std::size_t s) {
    while (s > 0) {
      const std::size_t parent = (s - 1) / 2;
      if (!less(heap_[s], heap_[parent])) break;
      swap_slots(s, parent);
      s = parent;
    }
  }

  void sift_down(std::size_t s) {
    const std::size_t n = heap_.size();
    if (s >= n) return;
    for (;;) {
      const std::size_t l = 2 * s + 1;
      const std::size_t r = 2 * s + 2;
      std::size_t smallest = s;
      if (l < n && less(heap_[l], heap_[smallest])) smallest = l;
      if (r < n && less(heap_[r], heap_[smallest])) smallest = r;
      if (smallest == s) break;
      swap_slots(s, smallest);
      s = smallest;
    }
  }

  void swap_slots(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    slot_[heap_[a].id] = a;
    slot_[heap_[b].id] = b;
  }

  std::vector<Node> heap_;
  std::vector<std::size_t> slot_;
};

}  // namespace hfsc
