// Typed error model for libhfsc (see docs/ROBUSTNESS.md).
//
// Public scheduler APIs split into two tiers:
//
//  * Control path (add_class / change_class / delete_class /
//    set_queue_limit, constructors): misuse throws hfsc::Error with a
//    machine-readable Errc.  These checks are always on — unlike assert()
//    they survive NDEBUG builds, so a release binary rejects a malformed
//    configuration instead of silently corrupting scheduler state.
//
//  * Data path (enqueue / dequeue): never throws.  Malformed events —
//    packets for unknown/deleted/interior classes, zero-length or
//    oversized packets, a clock handed in that runs backwards — are
//    dropped or clamped and counted, so a scheduler under hostile input
//    degrades gracefully instead of aborting the forwarding plane.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/types.hpp"

namespace hfsc {

// Packets above this length are treated as corrupted events by every
// hardened data path (Hfsc allows overriding its own copy of the cap).
inline constexpr Bytes kMaxSanePacketLen = Bytes(1) << 26;  // 64 MiB

enum class Errc {
  kInvalidArgument,     // out-of-domain scalar (zero link rate, zero weight…)
  kInvalidClass,        // class id out of range, root where a class is
                        // required, or refers to a deleted class
  kNotLeaf,             // operation requires a leaf class
  kHasChildren,         // delete_class on a class with live children
  kHasBacklog,          // add_class under a class that queues packets
  kUnsupportedCurve,    // curve shape outside the two-piece algebra
  kMissingCurve,        // class lacks a required rt/ls curve
  kInvariantViolation,  // runtime self-check (auditor) found corruption
  kAdmissionRejected,   // aggregate rt curves would exceed the link curve
  kTxnInvalid,          // commit/rollback on a closed Txn, or staged ids
                        // went stale because the tree mutated outside it
  kBadCheckpoint,       // checkpoint stream is malformed, truncated, or of
                        // an unsupported version
  kBadJournal,          // operation journal is malformed beyond the
                        // recoverable torn-tail case (bad magic/version,
                        // undecodable record, replay divergence)
};

constexpr const char* to_string(Errc c) noexcept {
  switch (c) {
    case Errc::kInvalidArgument: return "invalid argument";
    case Errc::kInvalidClass: return "invalid class";
    case Errc::kNotLeaf: return "not a leaf";
    case Errc::kHasChildren: return "has children";
    case Errc::kHasBacklog: return "has backlog";
    case Errc::kUnsupportedCurve: return "unsupported curve";
    case Errc::kMissingCurve: return "missing curve";
    case Errc::kInvariantViolation: return "invariant violation";
    case Errc::kAdmissionRejected: return "admission rejected";
    case Errc::kTxnInvalid: return "invalid transaction";
    case Errc::kBadCheckpoint: return "bad checkpoint";
    case Errc::kBadJournal: return "bad journal";
  }
  return "unknown error";
}

class Error : public std::runtime_error {
 public:
  Error(Errc code, const std::string& what)
      : std::runtime_error(std::string(to_string(code)) + ": " + what),
        code_(code) {}

  Errc code() const noexcept { return code_; }

 private:
  Errc code_;
};

// Always-on precondition check (assert's replacement on public APIs).
inline void ensure(bool cond, Errc code, const std::string& what) {
  if (!cond) throw Error(code, what);
}

// Counters for data-path events that were absorbed instead of thrown.
// Exposed by every scheduler that hardens its enqueue/dequeue path.
struct DataPathCounters {
  std::uint64_t bad_class = 0;    // unknown / deleted / interior class id
  std::uint64_t zero_len = 0;     // zero-length packet dropped
  std::uint64_t oversized = 0;    // packet above the configured maximum
  std::uint64_t clock_regressions = 0;  // `now` moved backwards; clamped

  std::uint64_t rejected_packets() const noexcept {
    return bad_class + zero_len + oversized;
  }
};

}  // namespace hfsc
