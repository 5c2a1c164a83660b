// Write-ahead operation journal (docs/ROBUSTNESS.md Section 10).
//
// The runtime host (runtime/host.hpp) appends one record per successful
// control-plane mutation — apply-then-journal, so the journal only ever
// describes operations the live scheduler actually accepted, and replay
// is deterministic (a recovered backlog can only be smaller than the one
// the operation originally validated against, so no validation that
// passed live can newly fail on replay).  Recovery is: restore the last
// checkpoint, then replay every surviving record with a sequence number
// past the checkpoint's watermark.
//
// The serialized image is binary: an 8-byte magic + 4-byte version
// header, then length-prefixed records
//
//     u32 payload_len | u64 seq | u64 fnv1a64(payload) | payload bytes
//
// in host byte order (the image never travels between machines; it
// round-trips within one process or one filesystem).  Sequence numbers
// are strictly increasing; compact() drops the prefix already covered by
// a checkpoint.
//
// Failure policy (the robustness contract): a torn or bit-flipped TAIL —
// the only corruption a crashed append can produce — is detected by the
// length/checksum/sequence scan and silently truncated; parse() reports
// how many bytes were dropped.  Corruption that cannot come from a torn
// append (bad magic, unknown version) means the caller handed us
// something that was never this journal, and raises Error{kBadJournal} —
// never a crash, never a partial object.
//
// Durability (the fsync boundary): append() only extends the in-memory
// image — on a real filesystem nothing is guaranteed on disk until an
// fsync returns.  sync() models that call: it advances the durable
// watermark to the current image size, and durable_image() is the
// prefix a crash is guaranteed to leave behind (plus, possibly, an
// arbitrary prefix of the unsynced tail, which the parse() scan
// truncates).  SyncPolicy says who calls sync(): kNone never does (a
// crash can lose every record since the last checkpoint — deliberately
// observable), kOnCommit syncs after every completed append (a crash
// loses at most the append that was still in flight).  The RuntimeHost
// always syncs as part of save_checkpoint(), whatever the policy: a
// checkpoint that references journal state weaker than itself would be
// unrecoverable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/errors.hpp"

namespace hfsc {

struct JournalRecord {
  std::uint64_t seq = 0;
  std::string payload;
};

// Who is responsible for calling Journal::sync() (RuntimeOptions).
enum class SyncPolicy {
  kNone,      // never flushed; a crash keeps only checkpoint-synced bytes
  kOnCommit,  // synced after every completed append
};

const char* to_string(SyncPolicy p) noexcept;

class Journal {
 public:
  // Fresh, empty journal (image = header only).
  Journal();

  // Parses a serialized image.  Throws Error{kBadJournal} on a bad magic
  // or version; a torn/corrupt tail is truncated, not fatal (the byte
  // count is available as truncated_bytes()).
  static Journal parse(std::string_view image);

  // Appends one record; returns its sequence number.  O(1) amortized —
  // the serialized image is maintained incrementally.
  std::uint64_t append(std::string_view payload);

  // Drops every record with seq <= up_to (they are covered by a
  // checkpoint) from the image; the kept records move as they are.
  void compact(std::uint64_t up_to);

  // Records with seq > after, oldest first.
  std::vector<JournalRecord> records_after(std::uint64_t after) const;

  // Chaos-harness hook: simulates a torn write by chopping up to `n`
  // bytes off the image's tail, clamped to the newest record so earlier
  // records stay intact.  The newest record leaves num_records() and
  // records_after() — exactly what parse() of the torn image will
  // reconstruct.
  // Bytes a completed sync() promised are never torn: a tear stops at
  // the durable watermark.
  void tear_tail(std::size_t n);

  // Marks everything appended so far as durable (the fsync returned).
  void sync() noexcept { synced_bytes_ = image_.size(); }
  std::size_t synced_bytes() const noexcept { return synced_bytes_; }
  // The image prefix a crash is guaranteed to preserve.  Recovery from
  // this view is the honest simulation of a machine crash; recovery
  // from image() additionally assumes the OS wrote the (unsynced) tail.
  std::string_view durable_image() const noexcept {
    return std::string_view(image_).substr(0, synced_bytes_);
  }

  const std::string& image() const noexcept { return image_; }
  std::size_t num_records() const noexcept { return offsets_.size(); }
  // Sequence number of the newest record (0 = none yet).
  std::uint64_t last_seq() const noexcept { return next_seq_ - 1; }
  // Bytes dropped from a torn tail by parse() (0 for a clean image).
  std::size_t truncated_bytes() const noexcept { return truncated_bytes_; }

  static constexpr char kMagic[8] = {'H', 'F', 'S', 'C',
                                     'J', 'R', 'N', 'L'};
  static constexpr std::uint32_t kVersion = 1;
  // magic + version.
  static constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4;
  // payload_len + seq + checksum.
  static constexpr std::size_t kRecordOverhead = 4 + 8 + 8;

 private:
  // The serialized image holds each record once; offsets_[i] is where
  // the i-th record (oldest first) starts in it.
  std::string image_;
  std::vector<std::size_t> offsets_;
  std::uint64_t next_seq_ = 1;
  std::size_t truncated_bytes_ = 0;
  // Durable watermark.  A fresh journal's header counts as synced (the
  // file exists); parse() marks the whole surviving image synced (it
  // was read back, so it is on "disk" by construction).  compact()
  // models the rewrite-and-rename idiom and leaves the new image fully
  // synced.
  std::size_t synced_bytes_ = 0;
};

}  // namespace hfsc
