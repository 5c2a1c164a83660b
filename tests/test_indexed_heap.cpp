// Unit + randomized model tests for util/indexed_heap.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/indexed_heap.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

TEST(IndexedHeap, PopsInKeyOrder) {
  IndexedHeap<int> h;
  h.push(3, 30);
  h.push(1, 10);
  h.push(2, 20);
  EXPECT_EQ(h.top_id(), 1u);
  EXPECT_EQ(h.pop(), 1u);
  EXPECT_EQ(h.pop(), 2u);
  EXPECT_EQ(h.pop(), 3u);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeap, TiesBreakById) {
  IndexedHeap<int> h;
  h.push(9, 5);
  h.push(2, 5);
  h.push(7, 5);
  EXPECT_EQ(h.pop(), 2u);
  EXPECT_EQ(h.pop(), 7u);
  EXPECT_EQ(h.pop(), 9u);
}

TEST(IndexedHeap, EraseFromMiddle) {
  IndexedHeap<int> h;
  for (int i = 0; i < 10; ++i) h.push(static_cast<std::uint32_t>(i), i * 10);
  h.erase(5);
  EXPECT_FALSE(h.contains(5));
  EXPECT_EQ(h.size(), 9u);
  std::vector<std::uint32_t> order;
  while (!h.empty()) order.push_back(h.pop());
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 6, 7, 8, 9}));
}

TEST(IndexedHeap, UpdateMovesBothWays) {
  IndexedHeap<int> h;
  h.push(1, 10);
  h.push(2, 20);
  h.push(3, 30);
  h.update(3, 5);  // down
  EXPECT_EQ(h.top_id(), 3u);
  h.update(3, 99);  // up
  EXPECT_EQ(h.top_id(), 1u);
  h.update(1, 15);  // stays top? no: 15 < 20 yes
  EXPECT_EQ(h.top_id(), 1u);
}

TEST(IndexedHeap, KeyOfAndPushOrUpdate) {
  IndexedHeap<int> h;
  h.push_or_update(4, 44);
  EXPECT_EQ(h.key_of(4), 44);
  h.push_or_update(4, 11);
  EXPECT_EQ(h.key_of(4), 11);
  EXPECT_EQ(h.size(), 1u);
}

TEST(IndexedHeap, ClearResets) {
  IndexedHeap<int> h;
  h.push(1, 1);
  h.push(2, 2);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(1));
  h.push(1, 5);  // reusable after clear
  EXPECT_EQ(h.top_id(), 1u);
}

TEST(IndexedHeap, DuplicateKeysPopInKeyThenIdOrder) {
  // 2000 ids over 7 keys: long runs of equal keys on every level, so
  // the id tie-break decides most comparisons.
  IndexedHeap<int> h;
  Rng rng(7);
  std::set<std::pair<int, std::uint32_t>> want;
  for (std::uint32_t id = 0; id < 2000; ++id) {
    const std::uint32_t scrambled = (id * 1237u) % 2000u;
    const int key = static_cast<int>(rng.uniform(0, 6));
    h.push(scrambled, key);
    want.insert({key, scrambled});
  }
  for (std::uint32_t id = 0; id < 2000; id += 3) {  // re-key a third
    const int key = static_cast<int>(rng.uniform(0, 6));
    want.erase({h.key_of(id), id});
    h.update(id, key);
    want.insert({key, id});
  }
  ASSERT_TRUE(h.well_formed());
  for (const auto& [key, id] : want) {
    ASSERT_EQ(h.top_key(), key);
    ASSERT_EQ(h.pop(), id);
  }
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(h.well_formed());
}

TEST(IndexedHeap, TagFollowsItsIdThroughEveryOperation) {
  IndexedHeap<int> h;
  const auto tag = [](std::uint32_t id) { return 1000 + 7 * id; };
  for (std::uint32_t id = 0; id < 12; ++id) {
    h.push(id, static_cast<int>(10 * id + 5), tag(id));
  }
  EXPECT_EQ(h.top_id(), 0u);
  EXPECT_EQ(h.top_tag(), tag(0));
  h.update(11, 0);  // sifts up to the top
  EXPECT_EQ(h.top_id(), 11u);
  EXPECT_EQ(h.top_tag(), tag(11));
  h.update(11, 1000);  // and down to the bottom
  h.update(0, 500);
  EXPECT_EQ(h.top_id(), 1u);
  EXPECT_EQ(h.top_tag(), tag(1));
  h.erase(1);  // the last node fills the erased top's slot
  h.erase(6);  // and a middle slot
  ASSERT_TRUE(h.well_formed());
  for (std::uint32_t id = 0; id < 12; ++id) {
    if (h.contains(id)) {
      EXPECT_EQ(h.tag_of(id), tag(id)) << id;
    }
  }
  std::vector<std::uint32_t> order;
  while (!h.empty()) {
    const std::uint32_t top_tag = h.top_tag();
    const std::uint32_t id = h.pop();
    EXPECT_EQ(top_tag, tag(id));
    order.push_back(id);
  }
  EXPECT_EQ(order,
            (std::vector<std::uint32_t>{2, 3, 4, 5, 7, 8, 9, 10, 0, 11}));
}

TEST(IndexedHeap, UntaggedNodesCarryZero) {
  IndexedHeap<std::uint64_t> h;
  h.push(3, 30);
  h.push(1, 10);
  h.push_or_update(2, 5);
  h.update(1, 1);
  EXPECT_EQ(h.top_id(), 1u);
  EXPECT_EQ(h.top_tag(), 0u);
  EXPECT_EQ(h.tag_of(2), 0u);
  EXPECT_EQ(h.tag_of(3), 0u);
}

// walk() against a pop sequence: on random heaps with many equal keys,
// the least element satisfying a predicate, found by a walk that enters
// only the children of elements failing it, is the first one popping
// meets, and a second walk over the elements ordering before it visits
// exactly the ones popping sets aside.  Neither walk changes the heap.
TEST(IndexedHeap, WalkFindsTheElementAPopSequenceMeetsFirst) {
  using Heap = IndexedHeap<std::uint64_t>;
  Rng rng(11);
  for (const std::size_t n : {0u, 1u, 4u, 5u, 6u, 21u, 22u, 85u, 86u, 600u}) {
    for (const int per_mille : {0, 20, 300, 1000}) {
      SCOPED_TRACE(std::to_string(n) + " elements, " +
                   std::to_string(per_mille) + "/1000 matching");
      Heap h;
      std::set<std::uint32_t> match;
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto id = static_cast<std::uint32_t>((i * 7919u) % 1000u);
        h.push(id, rng.uniform(0, 9), 3 * id);
        if (static_cast<int>(rng.uniform(0, 999)) < per_mille) {
          match.insert(id);
        }
      }
      for (std::uint32_t i = 0; i < n; i += 4) {  // re-key a quarter
        const auto id = static_cast<std::uint32_t>((i * 7919u) % 1000u);
        h.update(id, rng.uniform(0, 9));
      }
      const Heap before = h;

      // (key, id): the heap's order.
      using Place = std::pair<std::uint64_t, std::uint32_t>;
      std::optional<Place> best;
      std::size_t visits = 0;
      h.walk([&](std::uint64_t key, std::uint32_t id, std::uint32_t tag) {
        ++visits;
        EXPECT_EQ(tag, 3 * id);
        if (best && !(Place{key, id} < *best)) return false;
        if (!match.count(id)) return true;
        best = Place{key, id};
        return false;
      });
      EXPECT_LE(visits, n);
      std::set<std::uint32_t> ahead;  // elements ordering before the best
      h.walk([&](std::uint64_t key, std::uint32_t id, std::uint32_t) {
        if (best && !(Place{key, id} < *best)) return false;
        EXPECT_TRUE(ahead.insert(id).second) << "visited twice: " << id;
        return true;
      });

      Heap popped = before;
      std::set<std::uint32_t> set_aside;
      bool met = false;
      while (!popped.empty()) {
        const std::uint32_t id = popped.top_id();
        if (match.count(id)) {
          met = true;
          ASSERT_TRUE(best.has_value());
          EXPECT_EQ(*best, Place(popped.top_key(), id));
          break;
        }
        set_aside.insert(popped.pop());
      }
      EXPECT_EQ(best.has_value(), met);
      EXPECT_EQ(ahead, set_aside);

      ASSERT_TRUE(h.well_formed());
      Heap again = before;
      while (!h.empty()) {
        ASSERT_EQ(h.top_key(), again.top_key());
        ASSERT_EQ(h.top_tag(), again.top_tag());
        ASSERT_EQ(h.pop(), again.pop());
      }
      EXPECT_TRUE(again.empty());
    }
  }
}

// Randomized model test against a (key, id)-ordered std::set.  The id
// space is large enough that the heap grows past every 4-ary level
// boundary up to 5461 nodes (sizes 1, 5, 21, 85, 341, 1365, 5461) and
// back: the first third of the steps only pushes, updates and reads the
// top, the rest mixes in removals until they dominate.  The structure is
// checked after every step.  A tagged twin takes the same operations and
// must pop the same ids as the untagged heap, each with its own tag.
class IndexedHeapModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexedHeapModel, MatchesReferenceModel) {
  Rng rng(GetParam());
  IndexedHeap<std::uint64_t> h;
  IndexedHeap<std::uint64_t> tagged;
  const auto tag = [](std::uint32_t id) { return id * 2654435761u; };
  std::map<std::uint32_t, std::uint64_t> model;             // id -> key
  std::set<std::pair<std::uint64_t, std::uint32_t>> order;  // (key, id)
  constexpr std::uint32_t kIds = 8192;
  constexpr int kSteps = 36000;
  std::size_t largest = 0;

  const auto set_key = [&](std::uint32_t id, std::uint64_t k) {
    if (const auto it = model.find(id); it != model.end()) {
      order.erase({it->second, id});
    }
    model[id] = k;
    order.insert({k, id});
  };
  const auto remove = [&](std::uint32_t id) {
    order.erase({model.at(id), id});
    model.erase(id);
  };

  for (int step = 0; step < kSteps; ++step) {
    const std::uint32_t id = static_cast<std::uint32_t>(rng.uniform(0, kIds - 1));
    // Weights of push-or-update / erase / pop / verify per phase.
    static constexpr int kWeights[3][4] = {
        {19, 0, 0, 1}, {6, 5, 5, 4}, {2, 8, 8, 2}};
    const int* w = kWeights[step * 3 / kSteps];
    int roll = static_cast<int>(rng.uniform(0, 19));
    int op = 0;
    while (roll >= w[op]) roll -= w[op++];
    switch (op) {
      case 0: {  // push or update; a narrow key range makes ties common
        const std::uint64_t k = rng.uniform(0, 1000);
        if (model.count(id)) {
          h.update(id, k);
          tagged.update(id, k);
        } else {
          h.push(id, k);
          tagged.push(id, k, tag(id));
        }
        set_key(id, k);
        break;
      }
      case 1:  // erase
        if (model.count(id)) {
          h.erase(id);
          tagged.erase(id);
          remove(id);
        }
        break;
      case 2:  // pop
        if (!model.empty()) {
          const std::uint32_t want = order.begin()->second;
          ASSERT_EQ(tagged.top_tag(), tag(want)) << "step " << step;
          ASSERT_EQ(h.pop(), want) << "step " << step;
          ASSERT_EQ(tagged.pop(), want) << "step " << step;
          remove(want);
        }
        break;
      case 3:  // verify top
        if (!model.empty()) {
          ASSERT_EQ(h.top_id(), order.begin()->second);
          ASSERT_EQ(h.top_key(), order.begin()->first);
          ASSERT_EQ(h.top_tag(), 0u);
          ASSERT_EQ(tagged.top_tag(), tag(order.begin()->second));
        }
        break;
    }
    ASSERT_EQ(h.size(), model.size());
    ASSERT_EQ(h.contains(id), model.count(id) != 0);
    if (model.count(id)) {
      ASSERT_EQ(h.key_of(id), model[id]);
      ASSERT_EQ(tagged.tag_of(id), tag(id));
    }
    ASSERT_TRUE(h.well_formed()) << "step " << step;
    ASSERT_TRUE(tagged.well_formed()) << "step " << step;
    largest = std::max(largest, h.size());
  }
  EXPECT_GT(largest, 5461u);
  // Drain: the rest pops in (key, id) order.
  for (const auto& [key, id] : order) {
    ASSERT_EQ(h.top_key(), key);
    ASSERT_EQ(h.pop(), id);
  }
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(h.well_formed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedHeapModel,
                         ::testing::Values(1, 2, 3, 42, 1234, 99999));

}  // namespace
}  // namespace hfsc
