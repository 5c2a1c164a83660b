// The common packet-scheduler interface.
//
// A scheduler owns per-class packet queues.  The link model calls
// enqueue() when a packet's last bit arrives and dequeue() when the
// transmitter goes idle.  Schedulers are event-driven and passive: all
// notions of time come in through the `now` arguments.
//
// dequeue() may return std::nullopt even when packets are queued — a
// scheduler with shaping elements (an H-FSC class with only a real-time
// curve, or an upper-limit curve) can refuse to release work early.  In
// that case next_wakeup() reports when the decision could change so the
// link can re-arm its transmitter.
//
// The interface also carries a small stats surface (counters(),
// class_drops()) so the scenario engine and the comparison tool can
// report any family through one code path instead of downcasting (see
// config/hierarchy_spec.hpp for the compilers that target it; what each
// family can express is a property of its compiler, docs/SCHEDULERS.md).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "sched/packet.hpp"
#include "util/errors.hpp"
#include "util/types.hpp"

namespace hfsc {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

 protected:
  // Concrete schedulers may be movable (checkpoint restore returns an Hfsc
  // by value); moving through a Scheduler* is still impossible.
  Scheduler(Scheduler&&) = default;
  Scheduler& operator=(Scheduler&&) = default;

 public:

  // Accepts a packet for pkt.cls at time `now` (== pkt.arrival normally).
  virtual void enqueue(TimeNs now, Packet pkt) = 0;

  // Releases the next packet to transmit, or nullopt if nothing may be
  // sent at `now`.  `now` must be nondecreasing across calls.  This is
  // the only way a scheduler releases a packet; a caller that wants a
  // burst loops over it.
  virtual std::optional<Packet> dequeue(TimeNs now) = 0;

  virtual std::size_t backlog_packets() const noexcept = 0;
  virtual Bytes backlog_bytes() const noexcept = 0;

  // Earliest future time at which dequeue() might return a packet when it
  // just returned nullopt while backlogged.  kTimeInfinity for pure
  // work-conserving schedulers (never refuse while backlogged).
  virtual TimeNs next_wakeup(TimeNs /*now*/) const noexcept {
    return kTimeInfinity;
  }

  // Aggregate data-path counters.  Families without a hardened data path
  // report zeros.
  virtual DataPathCounters counters() const noexcept { return {}; }

  // Packets dropped for one class (queue limits plus malformed events);
  // 0 for families that do not track drops per class.
  virtual std::uint64_t class_drops(ClassId /*cls*/) const noexcept {
    return 0;
  }

  // Short human-readable family name ("H-FSC", "CBQ", …).  Returns a view
  // of storage owned by the scheduler (or a string literal) so the hot
  // paths that log or label results never pay an allocation per call.
  virtual std::string_view name() const noexcept = 0;

  bool empty() const noexcept { return backlog_packets() == 0; }
};

}  // namespace hfsc
