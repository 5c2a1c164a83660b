#include "core/checkpoint.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/auditor.hpp"
#include "core/hfsc.hpp"
#include "util/hash.hpp"

namespace hfsc {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw Error(Errc::kBadCheckpoint, what);
}

// Reads one whitespace-delimited token of the expected literal value;
// keeps record parsing self-describing and truncation loud.
void expect(std::istream& in, const char* literal) {
  std::string tok;
  if (!(in >> tok) || tok != literal) {
    bad("expected '" + std::string(literal) + "', got '" + tok + "'");
  }
}

template <typename T>
T num(std::istream& in, const char* field) {
  T v{};
  if (!(in >> v)) bad(std::string("missing or malformed field: ") + field);
  return v;
}

void put_curve(std::ostream& out, const char* tag, const RuntimeCurve& c) {
  out << "curve " << tag << ' ' << c.x() << ' ' << c.y() << ' ' << c.dx()
      << ' ' << c.dy() << ' ' << c.m1() << ' ' << c.m2() << '\n';
}

RuntimeCurve get_curve(std::istream& in, const char* tag) {
  expect(in, "curve");
  expect(in, tag);
  const TimeNs x = num<TimeNs>(in, "curve.x");
  const Bytes y = num<Bytes>(in, "curve.y");
  const TimeNs dx = num<TimeNs>(in, "curve.dx");
  const Bytes dy = num<Bytes>(in, "curve.dy");
  const RateBps m1 = num<RateBps>(in, "curve.m1");
  const RateBps m2 = num<RateBps>(in, "curve.m2");
  return RuntimeCurve::from_parts(x, y, dx, dy, m1, m2);
}

void put_sc(std::ostream& out, const ServiceCurve& sc) {
  out << sc.m1 << ' ' << sc.d << ' ' << sc.m2;
}

ServiceCurve get_sc(std::istream& in, const char* field) {
  ServiceCurve sc;
  sc.m1 = num<RateBps>(in, field);
  sc.d = num<TimeNs>(in, field);
  sc.m2 = num<RateBps>(in, field);
  return sc;
}

}  // namespace

void checkpoint(const Hfsc& s, std::ostream& out) {
  checkpoint(s, out, std::string_view{});
}

void checkpoint(const Hfsc& s, std::ostream& out, std::string_view ext) {
  out << "hfsc-checkpoint " << kCheckpointVersion << '\n';
  // The second field is the retired eligible-set kind; always 0 now.
  out << "link " << s.link_rate_ << " 0 " << static_cast<int>(s.vt_policy_)
      << '\n';
  out << "maxpkt " << s.max_packet_len_ << '\n';
  out << "clock " << s.last_now_ << ' ' << s.ls_next_fit_ << '\n';
  out << "selections " << s.rt_selections_ << ' ' << s.ls_selections_ << ' '
      << static_cast<int>(s.last_criterion_) << '\n';
  out << "counters " << s.counters_.bad_class << ' ' << s.counters_.zero_len
      << ' ' << s.counters_.oversized << ' '
      << s.counters_.clock_regressions << '\n';
  out << "admission " << (s.admission_ ? 1 : 0) << ' '
      << (s.admission_ ? s.admission_->link_rate() : 0) << '\n';
  out << "watchdog " << s.starvation_horizon_ << '\n';
  out << "ext " << ext.size() << '\n' << ext << '\n';

  // The node record interleaves fields from the cold Node and the hot /
  // curve slabs (core/hfsc.hpp); the emitted text is byte-identical to
  // the pre-slab format, so digests and golden checkpoints carry over.
  out << "classes " << s.nodes_.size() << '\n';
  for (ClassId c = 0; c < s.nodes_.size(); ++c) {
    const auto& n = s.nodes_[c];
    const auto& h = s.hot_[c];
    const auto& cc = s.curves_[c];
    out << "node " << c << ' ' << h.parent << ' ' << h.idx_in_parent << ' '
        << h.active() << ' ' << n.ever_active << ' ' << n.deleted << ' '
        << n.starved_flagged << ' ' << n.queue_limit << ' ' << h.cumul << ' '
        << h.e << ' ' << h.d << ' ' << h.total << ' ' << h.vt << ' ' << h.fit
        << ' ' << n.vt_watermark << ' ' << n.pkts_sent << ' '
        << n.pkts_dropped << ' ' << n.bytes_dropped << ' ' << n.last_progress
        << '\n';
    out << "cfg ";
    put_sc(out, n.cfg.rt);
    out << ' ';
    put_sc(out, n.cfg.ls);
    out << ' ';
    put_sc(out, n.cfg.ul);
    out << '\n';
    put_curve(out, "dc", cc.dc);
    put_curve(out, "ec", cc.ec);
    put_curve(out, "vc", cc.vc);
    put_curve(out, "uc", cc.uc);
  }

  for (ClassId c = 0; c < s.nodes_.size(); ++c) {
    if (c >= s.queues_.num_classes() || !s.queues_.has(c)) continue;
    const auto& q = s.queues_.queue(c);
    out << "queue " << c << ' ' << q.size() << '\n';
    for (const Packet& p : q) {
      out << "pkt " << p.len << ' ' << p.arrival << ' ' << p.seq << '\n';
    }
  }
  out << "end\n";
}

Hfsc restore_checkpoint(std::istream& in) {
  return restore_checkpoint(in, nullptr);
}

Hfsc restore_checkpoint(std::istream& in, std::string* ext) {
  expect(in, "hfsc-checkpoint");
  const int version = num<int>(in, "version");
  if (version != 1 && version != kCheckpointVersion) {
    bad("unsupported checkpoint version " + std::to_string(version) +
        " (this build reads versions 1.." + std::to_string(kCheckpointVersion) +
        ")");
  }
  if (ext) ext->clear();

  expect(in, "link");
  const RateBps link = num<RateBps>(in, "link rate");
  const int kind = num<int>(in, "eligible-set kind");
  const int vt_policy = num<int>(in, "vt policy");
  if (link == 0) bad("zero link rate");
  // Images from builds that let the caller pick the eligible set carry
  // 1 or 2 here.  The set is rebuilt from the restored (e, d) below, so
  // those restore exactly like 0.
  if (kind < 0 || kind > 2) {
    bad("unknown eligible-set kind " + std::to_string(kind));
  }
  if (vt_policy < 0 ||
      vt_policy > static_cast<int>(SystemVtPolicy::kMidpoint)) {
    bad("unknown vt policy " + std::to_string(vt_policy));
  }

  Hfsc s(link, static_cast<SystemVtPolicy>(vt_policy));

  expect(in, "maxpkt");
  s.max_packet_len_ = num<Bytes>(in, "max packet length");
  if (s.max_packet_len_ == 0) bad("zero max packet length");
  expect(in, "clock");
  s.last_now_ = num<TimeNs>(in, "last_now");
  s.ls_next_fit_ = num<TimeNs>(in, "ls_next_fit");
  expect(in, "selections");
  s.rt_selections_ = num<std::uint64_t>(in, "rt selections");
  s.ls_selections_ = num<std::uint64_t>(in, "ls selections");
  const int crit = num<int>(in, "last criterion");
  if (crit < 0 || crit > 1) bad("unknown criterion " + std::to_string(crit));
  s.last_criterion_ = static_cast<Criterion>(crit);
  expect(in, "counters");
  s.counters_.bad_class = num<std::uint64_t>(in, "bad_class");
  s.counters_.zero_len = num<std::uint64_t>(in, "zero_len");
  s.counters_.oversized = num<std::uint64_t>(in, "oversized");
  s.counters_.clock_regressions = num<std::uint64_t>(in, "clock_regressions");
  expect(in, "admission");
  const int adm_on = num<int>(in, "admission flag");
  const RateBps adm_rate = num<RateBps>(in, "admission rate");
  if (adm_on != 0 && adm_on != 1) bad("admission flag must be 0/1");
  expect(in, "watchdog");
  s.starvation_horizon_ = num<TimeNs>(in, "starvation horizon");

  // Version 2: the opaque extension payload, length-prefixed so it may
  // contain arbitrary bytes (including newlines and checkpoint keywords).
  if (version >= 2) {
    expect(in, "ext");
    const std::size_t ext_len = num<std::size_t>(in, "ext length");
    constexpr std::size_t kMaxExt = 1u << 26;
    if (ext_len > kMaxExt) bad("implausible ext payload length");
    if (in.get() != '\n') bad("malformed ext record header");
    std::string payload(ext_len, '\0');
    if (ext_len > 0 && !in.read(payload.data(), static_cast<std::streamsize>(
                                                    ext_len))) {
      bad("truncated ext payload");
    }
    if (in.get() != '\n') bad("ext payload not newline-terminated");
    if (ext) *ext = std::move(payload);
  }

  expect(in, "classes");
  const std::size_t n_classes = num<std::size_t>(in, "class count");
  if (n_classes == 0) bad("a checkpoint always contains the root class");
  constexpr std::size_t kMaxClasses = 1u << 24;
  if (n_classes > kMaxClasses) bad("implausible class count");

  s.nodes_.resize(n_classes);
  s.hot_.resize(n_classes);
  s.curves_.resize(n_classes);
  for (ClassId c = 0; c < n_classes; ++c) {
    expect(in, "node");
    const ClassId id = num<ClassId>(in, "node id");
    if (id != c) bad("node records out of order");
    auto& n = s.nodes_[c];
    auto& h = s.hot_[c];
    auto& cc = s.curves_[c];
    h.parent = num<ClassId>(in, "parent");
    h.idx_in_parent = num<std::uint32_t>(in, "idx_in_parent");
    h.set_active(num<bool>(in, "active"));
    n.ever_active = num<bool>(in, "ever_active");
    n.deleted = num<bool>(in, "deleted");
    n.starved_flagged = num<bool>(in, "starved_flagged");
    n.queue_limit = num<std::size_t>(in, "queue_limit");
    h.cumul = num<Bytes>(in, "cumul");
    h.e = num<TimeNs>(in, "e");
    h.d = num<TimeNs>(in, "d");
    h.total = num<Bytes>(in, "total");
    h.vt = num<TimeNs>(in, "vt");
    h.fit = num<TimeNs>(in, "fit");
    n.vt_watermark = num<TimeNs>(in, "vt_watermark");
    n.pkts_sent = num<std::uint64_t>(in, "pkts_sent");
    n.pkts_dropped = num<std::uint64_t>(in, "pkts_dropped");
    n.bytes_dropped = num<Bytes>(in, "bytes_dropped");
    n.last_progress = num<TimeNs>(in, "last_progress");
    expect(in, "cfg");
    n.cfg.rt = get_sc(in, "cfg.rt");
    n.cfg.ls = get_sc(in, "cfg.ls");
    n.cfg.ul = get_sc(in, "cfg.ul");
    cc.dc = get_curve(in, "dc");
    cc.ec = get_curve(in, "ec");
    cc.vc = get_curve(in, "vc");
    cc.uc = get_curve(in, "uc");
    h.refresh_flags(n.cfg);  // cfg was read directly; re-derive the flags
    if (c != 0 && !n.deleted && h.has_ul()) ++s.num_ul_;
    if (c == 0 && (h.parent != kRootClass || n.deleted)) {
      bad("corrupt root record");
    }
    if (c != 0 && (h.parent >= n_classes || h.parent == c)) {
      bad("node " + std::to_string(c) + " has an out-of-range parent");
    }
  }

  // Rebuild the children vectors from (parent, idx_in_parent).  Tombstoned
  // nodes are not attached anywhere; live ones must tile their parent's
  // vector exactly.
  for (ClassId c = 1; c < n_classes; ++c) {
    const auto& h = s.hot_[c];
    if (s.nodes_[c].deleted) continue;
    if (s.nodes_[h.parent].deleted) bad("live child under a deleted parent");
    auto& kids = s.nodes_[h.parent].children;
    if (kids.size() <= h.idx_in_parent) kids.resize(h.idx_in_parent + 1, 0);
    if (kids[h.idx_in_parent] != 0) bad("duplicate idx_in_parent");
    kids[h.idx_in_parent] = c;
  }
  for (ClassId c = 0; c < n_classes; ++c) {
    for (const ClassId kid : s.nodes_[c].children) {
      if (kid == 0) bad("gap in a children vector");
    }
  }

  // Queues.  ensure() sizes the per-class vector; packets re-enter in FIFO
  // order so heads (and therefore deadlines) match the original.
  s.queues_.ensure(static_cast<ClassId>(n_classes - 1));
  std::string tok;
  while (in >> tok) {
    if (tok == "end") break;
    if (tok != "queue") bad("expected 'queue' or 'end', got '" + tok + "'");
    const ClassId c = num<ClassId>(in, "queue class");
    const std::size_t count = num<std::size_t>(in, "queue length");
    if (c == 0 || c >= n_classes || s.nodes_[c].deleted ||
        !s.nodes_[c].children.empty()) {
      bad("queued packets on a non-leaf or deleted class");
    }
    if (count == 0) bad("empty queue record");
    for (std::size_t i = 0; i < count; ++i) {
      expect(in, "pkt");
      Packet p;
      p.cls = c;
      p.len = num<Bytes>(in, "pkt.len");
      p.arrival = num<TimeNs>(in, "pkt.arrival");
      p.seq = num<std::uint64_t>(in, "pkt.seq");
      if (p.len == 0) bad("zero-length packet in checkpoint");
      s.queues_.push(p);
    }
  }
  if (tok != "end") bad("truncated checkpoint (missing 'end')");

  // Rebuild the derived structures.  Heap layout is free to differ from
  // the original's: IndexedHeap breaks key ties by id, so the dequeue
  // sequence depends only on the (id, key) content restored here.
  for (ClassId c = 1; c < n_classes; ++c) {
    const auto& h = s.hot_[c];
    if (s.nodes_[c].deleted || !h.active()) continue;
    s.nodes_[h.parent].active_children.push(h.idx_in_parent, h.vt);
  }
  for (ClassId c = 1; c < n_classes; ++c) {
    const auto& n = s.nodes_[c];
    const auto& h = s.hot_[c];
    if (n.deleted || !n.children.empty() || !h.has_rt() ||
        !s.queues_.has(c)) {
      continue;
    }
    s.rt_requests_.update(c, h.e, h.d, s.last_now_);
  }
  if (adm_on) {
    auto fresh =
        std::make_unique<AdmissionControl>(s.leaf_aggregate(adm_rate));
    if (!fresh->fits()) {
      bad("checkpointed hierarchy does not fit its admission link rate");
    }
    s.admission_ = std::move(fresh);
  }

  const AuditReport report = audit(s);
  if (!report.ok()) {
    bad("restored state fails the invariant audit: " + report.to_string());
  }
  return s;
}

std::uint64_t state_digest(const Hfsc& s) {
  std::ostringstream out;
  checkpoint(s, out);
  return fnv1a64(out.str());
}

}  // namespace hfsc
