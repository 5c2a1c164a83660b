// Per-class FIFO packet queues shared by all the flat schedulers.
//
// Each class's FIFO is a power-of-two ring buffer rather than a
// std::deque: a deque allocates and frees a block every ~16 packets as a
// steady push_back/pop_front cycle crosses block boundaries, which puts
// the allocator on the per-packet hot path.  The ring grows (doubling,
// never shrinking) only when a queue outgrows its capacity, so the
// steady-state data path performs no allocations at all.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "sched/packet.hpp"
#include "util/slab.hpp"
#include "util/types.hpp"

namespace hfsc {

// Fixed-capacity-until-grown FIFO of packets.  Supports exactly what the
// schedulers, the auditor and checkpointing need: push_back, pop_front,
// front, size, and head-to-tail const iteration.
class PacketRing {
 public:
  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  const Packet& front() const noexcept {
    assert(count_ > 0);
    return buf_[head_];
  }

  // i-th packet counting from the head (0 = front).
  const Packet& operator[](std::size_t i) const noexcept {
    assert(i < count_);
    return buf_[(head_ + i) & mask()];
  }

  void push_back(const Packet& p) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask()] = p;
    ++count_;
  }

  Packet pop_front() noexcept {
    assert(count_ > 0);
    const Packet p = buf_[head_];
    head_ = (head_ + 1) & mask();
    --count_;
    return p;
  }

  // Removes the newest packet (push-out buffer management: the overload
  // governor evicts from the tail so the head — whose length the cached
  // deadline was computed from — is never disturbed).
  Packet pop_back() noexcept {
    assert(count_ > 0);
    --count_;
    return buf_[(head_ + count_) & mask()];
  }

  class const_iterator {
   public:
    const_iterator(const PacketRing* r, std::size_t i) noexcept
        : r_(r), i_(i) {}
    const Packet& operator*() const noexcept { return (*r_)[i_]; }
    const Packet* operator->() const noexcept { return &(*r_)[i_]; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const noexcept {
      return i_ == o.i_;
    }
    bool operator!=(const const_iterator& o) const noexcept {
      return i_ != o.i_;
    }

   private:
    const PacketRing* r_;
    std::size_t i_;
  };

  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, count_}; }

 private:
  std::size_t mask() const noexcept { return buf_.size() - 1; }

  void grow() {
    const std::size_t cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
    std::vector<Packet> fresh(cap);
    for (std::size_t i = 0; i < count_; ++i) fresh[i] = (*this)[i];
    buf_ = std::move(fresh);
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 8;  // power of two

  std::vector<Packet> buf_;  // capacity is always a power of two (or 0)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

class ClassQueues {
 public:
  void ensure(ClassId cls) {
    if (cls >= q_.size()) {
      q_.resize(cls + 1);
      class_bytes_.resize(cls + 1, 0);
    }
  }

  // Room for n classes, written once so that ensure() up to n neither
  // moves the slabs nor faults on a fresh page (util/slab.hpp).
  void reserve(std::size_t n) {
    reserve_written(q_, n, marks_[0]);
    reserve_written(class_bytes_, n, marks_[1]);
  }

  void push(Packet pkt) {
    ensure(pkt.cls);
    bytes_ += pkt.len;
    class_bytes_[pkt.cls] += pkt.len;
    ++packets_;
    q_[pkt.cls].push_back(pkt);
  }

  bool has(ClassId cls) const noexcept {
    return cls < q_.size() && !q_[cls].empty();
  }

  const Packet& head(ClassId cls) const {
    assert(has(cls));
    return q_[cls].front();
  }

  Packet pop(ClassId cls) {
    assert(has(cls));
    const Packet p = q_[cls].pop_front();
    bytes_ -= p.len;
    class_bytes_[cls] -= p.len;
    --packets_;
    return p;
  }

  // Removes and returns the newest packet of a class (push-out; see
  // PacketRing::pop_back).
  Packet pop_back(ClassId cls) {
    assert(has(cls));
    const Packet p = q_[cls].pop_back();
    bytes_ -= p.len;
    class_bytes_[cls] -= p.len;
    --packets_;
    return p;
  }

  std::size_t queue_len(ClassId cls) const noexcept {
    return cls < q_.size() ? q_[cls].size() : 0;
  }

  // Bytes queued for one class — O(1), maintained incrementally (the
  // overload governor reads it on the enqueue path).
  Bytes bytes_in(ClassId cls) const noexcept {
    return cls < class_bytes_.size() ? class_bytes_[cls] : 0;
  }

  // Independent O(queue length) recount of one class's bytes; the auditor
  // cross-checks it against the incremental counter.
  Bytes recount_bytes(ClassId cls) const noexcept {
    Bytes b = 0;
    if (cls < q_.size()) {
      for (const Packet& p : q_[cls]) b += p.len;
    }
    return b;
  }

  // Read-only view of one class's FIFO, head first (checkpointing).
  const PacketRing& queue(ClassId cls) const {
    assert(cls < q_.size());
    return q_[cls];
  }

  std::size_t packets() const noexcept { return packets_; }
  Bytes bytes() const noexcept { return bytes_; }
  std::size_t num_classes() const noexcept { return q_.size(); }

 private:
  std::vector<PacketRing> q_;
  std::vector<Bytes> class_bytes_;  // per-class byte totals, kept in step
  std::size_t packets_ = 0;
  Bytes bytes_ = 0;
  WrittenMark marks_[2];  // how far reserve() wrote q_ and class_bytes_
};

}  // namespace hfsc
