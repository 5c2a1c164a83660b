#include "runtime/journal.hpp"

#include <cstring>

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
    if (image.size() - off < kRecordOverhead) break;
    const char* p = image.data() + off;
    const auto len = get<std::uint32_t>(p);
    const auto seq = get<std::uint64_t>(p + 4);
    const auto sum = get<std::uint64_t>(p + 12);
    if (image.size() - off - kRecordOverhead < len) break;  // torn payload
    const std::string_view payload(p + kRecordOverhead, len);
    if (fnv1a64(payload) != sum) break;      // bit-flipped tail
    if (seq != j.next_seq_ && !j.records_.empty()) break;  // out of order
    if (j.records_.empty()) {
      // A compacted journal legally starts at any sequence number, but
      // it must still be a positive one.
      if (seq == 0) break;
      j.next_seq_ = seq;
    }
    j.records_.push_back(JournalRecord{seq, std::string(payload)});
    j.next_seq_ = seq + 1;
    off += kRecordOverhead + len;
  }
  j.truncated_bytes_ = image.size() - off;
  j.image_.assign(image.data(), off);
  j.synced_bytes_ = j.image_.size();  // it was read back, so it is on disk
  return j;
}

std::uint64_t Journal::append(std::string_view payload) {
  const std::uint64_t seq = next_seq_++;
  put<std::uint32_t>(image_, static_cast<std::uint32_t>(payload.size()));
  put<std::uint64_t>(image_, seq);
  put<std::uint64_t>(image_, fnv1a64(payload));
  image_.append(payload.data(), payload.size());
  records_.push_back(JournalRecord{seq, std::string(payload)});
  return seq;
}

void Journal::compact(std::uint64_t up_to) {
  std::vector<JournalRecord> kept;
  for (auto& r : records_) {
    if (r.seq > up_to) kept.push_back(std::move(r));
  }
  records_ = std::move(kept);
  image_.clear();
  image_.append(kMagic, sizeof(kMagic));
  put<std::uint32_t>(image_, kVersion);
  for (const auto& r : records_) {
    put<std::uint32_t>(image_, static_cast<std::uint32_t>(r.payload.size()));
    put<std::uint64_t>(image_, r.seq);
    put<std::uint64_t>(image_, fnv1a64(r.payload));
    image_.append(r.payload);
  }
  // next_seq_ is unchanged: compaction forgets history, not time.
  // Compaction models write-new-file + fsync + rename: atomic, and the
  // replacement image is durable the moment it exists.
  synced_bytes_ = image_.size();
}

void Journal::tear_tail(std::size_t n) {
  if (records_.empty() || n == 0) return;
  std::size_t last_size = kRecordOverhead + records_.back().payload.size();
  // A synced record cannot be torn — the fsync already returned.  Only
  // the unsynced suffix of the newest record is at risk.
  if (image_.size() - last_size < synced_bytes_) {
    last_size = image_.size() - synced_bytes_;
  }
  if (last_size == 0) return;
  if (n > last_size) n = last_size;
  image_.resize(image_.size() - n);
  if (image_.size() <= synced_bytes_) synced_bytes_ = image_.size();
  next_seq_ = records_.back().seq;  // the torn record never happened
  records_.pop_back();
}

std::vector<JournalRecord> Journal::records_after(std::uint64_t after) const {
  std::vector<JournalRecord> out;
  for (const auto& r : records_) {
    if (r.seq > after) out.push_back(r);
  }
  return out;
}

}  // namespace hfsc
