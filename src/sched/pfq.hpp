// Packet Fair Queueing server node (WF2Q+ family).
//
// PfqServer is a rate-weighted arbiter over a set of children.  Each child
// i has a virtual start time S_i and finish time F_i; the server keeps a
// system virtual time V updated per WF2Q+ (Bennett & Zhang):
//
//     on serving L bytes:        V <- V + L / rate
//     when all backlogged S > V: V <- min backlogged S   (idle re-sync)
//
// Child bookkeeping:
//     empty -> backlogged:  S = max(V, F);  F = S + len / w
//     served, next packet:  S = F;          F = S + len / w
//
// Selection policies (Section IV-C of the paper lists all three):
//     SSF  — smallest start time first
//     SFF  — smallest finish time first (SFQ / "WFQ-like")
//     SEFF — smallest *eligible* (S <= V) finish time first  == WF2Q+
//
// The class holds no packets; HPfq composes a tree of them with packet
// queues, and an HPfq whose classes all sit under the root is the flat
// scheduler of the chosen policy (flat WF2Q+ under SEFF).  H-PFQ built
// from WF2Q+ nodes is the paper's main comparison point (Sections I,
// IV-A, VIII).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/indexed_heap.hpp"
#include "util/types.hpp"

namespace hfsc {

enum class PfqPolicy { SSF, SFF, SEFF };

class PfqServer {
 public:
  PfqServer(RateBps rate, PfqPolicy policy)
      : rate_(rate), policy_(policy) {}

  // Adds a child with the given weight (bytes/s); returns its index.
  std::uint32_t add_child(RateBps weight);

  bool is_backlogged(std::uint32_t c) const { return children_[c].backlogged; }
  bool any_backlogged() const noexcept { return backlogged_ > 0; }

  // Child c went from empty to backlogged; head_len is its head packet.
  void child_backlogged(std::uint32_t c, Bytes head_len);

  // Child c was just served and has another packet of head_len bytes.
  void child_next_head(std::uint32_t c, Bytes head_len);

  // Child c drained.
  void child_empty(std::uint32_t c);

  // Picks the child to serve under the configured policy.  Requires
  // any_backlogged().  May advance V (idle re-sync) and promote children
  // between internal heaps; calling it repeatedly without intervening
  // state changes returns the same child.
  std::uint32_t pick();

  // Accounts L bytes of service (advances V).  Call once per served
  // packet, before child_next_head / child_empty.
  void charge(Bytes len) { vt_ = sat_add(vt_, seg_y2x(len, rate_)); }

  TimeNs vtime() const noexcept { return vt_; }
  TimeNs start_of(std::uint32_t c) const { return children_[c].start; }
  TimeNs finish_of(std::uint32_t c) const { return children_[c].finish; }
  RateBps rate() const noexcept { return rate_; }

 private:
  struct Child {
    RateBps weight = 0;
    TimeNs start = 0;
    TimeNs finish = 0;
    bool backlogged = false;
  };

  void insert(std::uint32_t c);
  void remove(std::uint32_t c);

  RateBps rate_;
  PfqPolicy policy_;
  std::vector<Child> children_;
  std::size_t backlogged_ = 0;
  TimeNs vt_ = 0;
  // SEFF: pending_ holds backlogged children with S > V keyed by S;
  // eligible_ holds those with S <= V keyed by F.  SSF keeps everything in
  // pending_ (keyed by S); SFF keeps everything in eligible_ (keyed by F).
  IndexedHeap<TimeNs> pending_;
  IndexedHeap<TimeNs> eligible_;
};

}  // namespace hfsc
