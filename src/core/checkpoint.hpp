// Checkpoint / restore for Hfsc (docs/ROBUSTNESS.md Section 8).
//
// checkpoint() serializes the complete scheduling state of an Hfsc — the
// class tree with all runtime curves and work counters, every queued
// packet, the data-path counters and the admission/watchdog configuration
// — to a versioned line-oriented text format.  restore_checkpoint()
// rebuilds a fresh scheduler from the image; the derived structures
// (child heaps, the eligible set) are reconstructed from the serialized
// per-class state rather than stored, which works because their observable
// behaviour is a function of their content (IndexedHeap breaks key ties by
// id).  A restored scheduler passes audit() and produces the same dequeue
// sequence as the original from that point on, packet for packet.
//
// Deliberately EXCLUDED from the format (and therefore from the digest):
// observability counters that move without the scheduling state moving —
// admission_rejections_, the self-check configuration and counters, and
// the starvation-event counter/scan clock.  That makes state_digest() the
// atomicity oracle for Txn: a failed commit may bump the rejection
// counter, but the digest must not change.
//
// Version policy: the first line is "hfsc-checkpoint <version>".  A reader
// accepts exactly the versions it knows (currently versions 1 and 2);
// anything else — wrong magic, unknown version, truncation, malformed or
// internally inconsistent records — throws Error{kBadCheckpoint}.  Any
// change to the serialized field set bumps kCheckpointVersion.
//
// Version 2 adds one record after "watchdog": `ext <nbytes>` followed by
// exactly nbytes of opaque payload and a newline.  The core scheduler
// writes an empty payload; the runtime resilience layer
// (runtime/host.hpp) stores the overload governor's durable state and
// the journal sequence watermark there, so a runtime snapshot is a core
// checkpoint that core tools can still read, audit and digest.  Version 1
// streams (no ext record) restore with an empty payload.
//
// Codec (util/text_codec.hpp): one writer appends the image to a
// std::string with std::to_chars, one parser walks a std::string_view
// with std::from_chars.  Every numeral is strict unsigned decimal — a
// sign, an overflow of the field's type, bytes glued to the digits or a
// missing token is malformed — and every Error{kBadCheckpoint} raised
// while parsing ends with " at byte N", the offset of the offending
// token (or of the record a structural check rejects).  The iostream
// overloads are wrappers: the writer emits the string in one write(),
// and the reader consumes the stream to EOF before parsing, so any bytes
// after `end` are read and ignored.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace hfsc {

class Hfsc;

inline constexpr int kCheckpointVersion = 2;

// Appends the scheduler's state to `out`.  Never modifies the scheduler.
// `ext` is the opaque extension payload described above (empty for a
// plain core checkpoint).
void checkpoint(const Hfsc& sched, std::string& out,
                std::string_view ext = {});
void checkpoint(const Hfsc& sched, std::ostream& out,
                std::string_view ext = {});

// Rebuilds a scheduler from an image produced by checkpoint().  Throws
// Error{kBadCheckpoint} on any malformed input, including state that
// fails the invariant auditor after reconstruction.  When `ext` is
// non-null it receives the extension payload (empty for version 1
// images or core checkpoints).
Hfsc restore_checkpoint(std::string_view image, std::string* ext = nullptr);
Hfsc restore_checkpoint(std::istream& in, std::string* ext = nullptr);

// FNV-1a hash of the checkpoint serialization: equal digests mean equal
// scheduling state (up to the deliberate exclusions above).  Used by the
// Txn atomicity fuzzer and the fault-injection harness.
std::uint64_t state_digest(const Hfsc& sched);

}  // namespace hfsc
