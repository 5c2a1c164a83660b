#include "runtime/journal.hpp"

#include <cstring>
#include <optional>

#include "util/hash.hpp"

namespace hfsc {

namespace {

template <typename T>
void put(std::string& out, T v) {
  char raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));
  out.append(raw, sizeof(T));
}

template <typename T>
T get(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

// One record of an image as its header describes it: nullopt when the
// header or the payload runs past the end of the image.  The checksum is
// read, not checked.
struct RawRecord {
  std::uint64_t seq;
  std::uint64_t sum;
  std::string_view payload;

  std::size_t size() const noexcept {
    return Journal::kRecordOverhead + payload.size();
  }
};

std::optional<RawRecord> read_record(std::string_view image,
                                     std::size_t off) {
  if (image.size() - off < Journal::kRecordOverhead) return std::nullopt;
  const char* p = image.data() + off;
  const auto len = get<std::uint32_t>(p);
  if (image.size() - off - Journal::kRecordOverhead < len) {
    return std::nullopt;
  }
  return RawRecord{get<std::uint64_t>(p + 4), get<std::uint64_t>(p + 12),
                   std::string_view(p + Journal::kRecordOverhead, len)};
}

}  // namespace

const char* to_string(SyncPolicy p) noexcept {
  switch (p) {
    case SyncPolicy::kNone: return "none";
    case SyncPolicy::kOnCommit: return "on-commit";
  }
  return "?";
}

Journal::Journal() {
  image_.append(kMagic, sizeof(kMagic));
  put<std::uint32_t>(image_, kVersion);
  synced_bytes_ = image_.size();  // creating the file syncs its header
}

Journal Journal::parse(std::string_view image) {
  if (image.size() < kHeaderBytes ||
      std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
    throw Error(Errc::kBadJournal, "bad journal magic");
  }
  const auto version = get<std::uint32_t>(image.data() + sizeof(kMagic));
  if (version != kVersion) {
    throw Error(Errc::kBadJournal,
                "unsupported journal version " + std::to_string(version) +
                    " (this build reads version " + std::to_string(kVersion) +
                    ")");
  }

  Journal j;
  std::size_t off = kHeaderBytes;
  // Scan records until the tail stops making sense.  Any failure past
  // this point is, by the append protocol, a torn or bit-flipped tail:
  // truncate there and keep everything before it.
  while (off < image.size()) {
    const std::optional<RawRecord> r = read_record(image, off);
    if (!r) break;                              // torn record
    if (fnv1a64(r->payload) != r->sum) break;   // bit-flipped tail
    if (r->seq != j.next_seq_ && !j.offsets_.empty()) break;  // out of order
    if (j.offsets_.empty()) {
      // A compacted journal legally starts at any sequence number, but
      // it must still be a positive one.
      if (r->seq == 0) break;
      j.next_seq_ = r->seq;
    }
    j.offsets_.push_back(off);
    j.next_seq_ = r->seq + 1;
    off += r->size();
  }
  j.truncated_bytes_ = image.size() - off;
  j.image_.assign(image.data(), off);
  j.synced_bytes_ = j.image_.size();  // it was read back, so it is on disk
  return j;
}

std::uint64_t Journal::append(std::string_view payload) {
  const std::uint64_t seq = next_seq_++;
  offsets_.push_back(image_.size());
  put<std::uint32_t>(image_, static_cast<std::uint32_t>(payload.size()));
  put<std::uint64_t>(image_, seq);
  put<std::uint64_t>(image_, fnv1a64(payload));
  image_.append(payload.data(), payload.size());
  return seq;
}

void Journal::compact(std::uint64_t up_to) {
  // Records sit in seq order, so the ones with seq <= up_to lead.  Each
  // kept record slides down, whole, over the bytes before it: the covered
  // prefix goes, and so do the bytes a torn append left in the image.
  std::size_t to = kHeaderBytes;
  std::size_t kept = 0;
  for (const std::size_t off : offsets_) {
    const RawRecord r = *read_record(image_, off);
    if (r.seq <= up_to) continue;
    const std::size_t n = r.size();
    std::memmove(image_.data() + to, image_.data() + off, n);
    offsets_[kept++] = to;
    to += n;
  }
  offsets_.resize(kept);
  image_.resize(to);
  // next_seq_ is unchanged: compaction forgets history, not time.
  // Compaction models write-new-file + fsync + rename: atomic, and the
  // replacement image is durable the moment it exists.
  synced_bytes_ = image_.size();
}

void Journal::tear_tail(std::size_t n) {
  if (offsets_.empty() || n == 0) return;
  const RawRecord last = *read_record(image_, offsets_.back());
  std::size_t last_size = last.size();
  // A synced record cannot be torn — the fsync already returned.  Only
  // the unsynced suffix of the newest record is at risk.
  if (image_.size() - last_size < synced_bytes_) {
    last_size = image_.size() - synced_bytes_;
  }
  if (last_size == 0) return;
  if (n > last_size) n = last_size;
  image_.resize(image_.size() - n);
  if (image_.size() <= synced_bytes_) synced_bytes_ = image_.size();
  next_seq_ = last.seq;  // the torn record never happened
  offsets_.pop_back();
}

std::vector<JournalRecord> Journal::records_after(std::uint64_t after) const {
  std::vector<JournalRecord> out;
  for (const std::size_t off : offsets_) {
    const RawRecord r = *read_record(image_, off);
    if (r.seq > after) {
      out.push_back(JournalRecord{r.seq, std::string(r.payload)});
    }
  }
  return out;
}

}  // namespace hfsc
