// Packet-trace file I/O and experiment-series export.
//
// Trace format: one packet per line, `<time_ns> <class_id> <len_bytes>`,
// '#' comments and blank lines ignored.  Round-trips with TraceSource so
// workloads can be captured from one run (TraceRecorder) and replayed
// against a different discipline — the apples-to-apples methodology the
// comparison experiments rely on.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sched/packet.hpp"
#include "sim/link.hpp"
#include "sim/sources.hpp"

namespace hfsc {

struct TraceEntry {
  TimeNs t = 0;
  ClassId cls = 0;
  Bytes len = 0;

  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

// Parses a trace from a stream.  Every field is a strict unsigned
// decimal numeral that fits its type (no sign, no overflow, no class id
// above ClassId's range); a malformed line throws Error{kBadTrace} naming
// its line number and byte offset.
std::vector<TraceEntry> read_trace(std::istream& in);
std::vector<TraceEntry> read_trace_file(const std::string& path);

void write_trace(std::ostream& out, const std::vector<TraceEntry>& entries);
void write_trace_file(const std::string& path,
                      const std::vector<TraceEntry>& entries);

// Per-class TraceSource items from a parsed trace.
std::vector<TraceSource::Item> items_for_class(
    const std::vector<TraceEntry>& entries, ClassId cls);

// Installs every class of the trace onto a link via the event queue.
void replay_trace(EventQueue& ev, Link& link,
                  const std::vector<TraceEntry>& entries);

// Records every arrival at a link into trace entries.
class TraceRecorder {
 public:
  void attach(Link& link) {
    link.add_arrival_hook([this](TimeNs t, const Packet& p) {
      entries_.push_back(TraceEntry{t, p.cls, p.len});
    });
  }
  const std::vector<TraceEntry>& entries() const noexcept { return entries_; }

 private:
  std::vector<TraceEntry> entries_;
};

}  // namespace hfsc
