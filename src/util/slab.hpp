// Room in a vector of per-class records ("slab") for a batch of appends.
//
// The first write to a page of a fresh buffer takes a page fault, and
// which pages of a buffer are fresh depends on the allocator's history,
// so an append that lands on one costs more in one process than in the
// next.  A slab grown by push_back has written only its first size()
// slots; its tail up to capacity() may still be fresh pages.
// reserve_written() gives the slab room for n records (growing it at
// least twofold when it must grow) and writes every slot of its buffer
// once, remembering how far it wrote, so later batches that fit cost a
// comparison.
#pragma once

#include <algorithm>
#include <cstddef>

namespace hfsc {

struct WrittenMark {
  const void* buf = nullptr;  // the buffer this mark describes
  std::size_t upto = 0;       // slots [0, upto) of buf have been written
};

template <class Slab>
void reserve_written(Slab& slab, std::size_t n, WrittenMark& mark) {
  // A slab that moved since the mark was taken has a new, unwritten tail.
  if (slab.data() == mark.buf && n <= mark.upto) return;
  const std::size_t size = slab.size();
  if (n > slab.capacity()) slab.reserve(std::max(n, 2 * slab.capacity()));
  slab.resize(slab.capacity());
  slab.resize(size);
  mark = {slab.data(), slab.capacity()};
}

}  // namespace hfsc
