#include "sim/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <string_view>

#include "util/errors.hpp"
#include "util/text_codec.hpp"

namespace hfsc {

namespace {

// Every parse failure is a typed Error{kBadTrace} locating the damage:
// the 1-based line number plus the 0-based byte offset of the line's
// first byte, so a corrupted capture can be seeked-to and inspected.
[[noreturn]] void bad_trace(std::size_t lineno, std::size_t offset,
                            const std::string& what) {
  throw Error(Errc::kBadTrace,
              "trace line " + std::to_string(lineno) + " (byte offset " +
                  std::to_string(offset) + "): " + what);
}

}  // namespace

std::vector<TraceEntry> read_trace(std::istream& in) {
  std::vector<TraceEntry> out;
  std::string line;
  std::size_t lineno = 0;
  std::size_t offset = 0;  // byte offset of the current line's start
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t line_start = offset;
    offset += line.size() + 1;  // + '\n' eaten by getline
    TextReader fields(std::string_view(line).substr(0, line.find('#')),
                      Errc::kBadTrace);
    const std::string_view t = fields.word();
    const std::string_view cls = fields.word();
    const std::string_view len = fields.word();
    const std::string_view trailing = fields.word();
    if (t.empty()) continue;  // blank or comment-only line
    // A strict unsigned decimal numeral that fits the field, the rule of
    // util/text_codec.hpp's readers: a sign or an overflow is malformed,
    // so "-1" is never read as 2^64 - 1.
    auto field = [&](std::string_view tok, auto* v, const char* what) {
      const char* const end = tok.data() + tok.size();
      const auto r = std::from_chars(tok.data(), end, *v);
      if (r.ec != std::errc{} || r.ptr != end) {
        bad_trace(lineno, line_start, std::string("malformed ") + what +
                                          " field " + TextReader::quoted(tok));
      }
    };
    TraceEntry e;
    field(t, &e.t, "time");
    if (len.empty()) {
      bad_trace(lineno, line_start, "expected <time_ns> <class> <len>");
    }
    field(cls, &e.cls, "class");
    field(len, &e.len, "len");
    if (e.len == 0) bad_trace(lineno, line_start, "zero-length packet");
    if (e.cls == 0) bad_trace(lineno, line_start, "packet for the root class");
    if (!trailing.empty()) {
      bad_trace(lineno, line_start,
                "trailing garbage after <len>: " +
                    TextReader::quoted(trailing));
    }
    out.push_back(e);
  }
  if (in.bad()) bad_trace(lineno + 1, offset, "stream read failure");
  return out;
}

std::vector<TraceEntry> read_trace_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw Error(Errc::kBadTrace, "cannot open trace file: " + path);
  }
  return read_trace(f);
}

void write_trace(std::ostream& out, const std::vector<TraceEntry>& entries) {
  out << "# <time_ns> <class_id> <len_bytes>\n";
  for (const TraceEntry& e : entries) {
    out << e.t << ' ' << e.cls << ' ' << e.len << '\n';
  }
}

void write_trace_file(const std::string& path,
                      const std::vector<TraceEntry>& entries) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  write_trace(f, entries);
}

std::vector<TraceSource::Item> items_for_class(
    const std::vector<TraceEntry>& entries, ClassId cls) {
  std::vector<TraceSource::Item> items;
  for (const TraceEntry& e : entries) {
    if (e.cls == cls) items.push_back(TraceSource::Item{e.t, e.len});
  }
  return items;
}

void replay_trace(EventQueue& ev, Link& link,
                  const std::vector<TraceEntry>& entries) {
  std::uint64_t seq = 0;
  for (const TraceEntry& e : entries) {
    ev.schedule(e.t, [&link, e, s = seq++](TimeNs t) {
      link.on_arrival(t, Packet{e.cls, e.len, t, s});
    });
  }
}

}  // namespace hfsc
