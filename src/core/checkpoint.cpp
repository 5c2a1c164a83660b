#include "core/checkpoint.hpp"

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "core/auditor.hpp"
#include "core/hfsc.hpp"
#include "util/hash.hpp"
#include "util/text_codec.hpp"

namespace hfsc {

namespace {

// The fewest bytes one class's records can take: `node` and 19 numerals,
// `cfg` and 9, four `curve <tag>` records with 6 each, every token
// followed by one whitespace byte.  Bounds the class count by the image
// size before anything is allocated for it.
constexpr std::size_t kMinClassBytes = (4 + 19 + 20) + (3 + 9 + 10) +
                                       4 * (5 + 2 + 6 + 8);

void put_curve(std::string& out, const char* tag, const RuntimeCurve& c) {
  put_record(out, "curve", tag, c.x(), c.y(), c.dx(), c.dy(), c.m1(), c.m2());
}

RuntimeCurve get_curve(TextReader& in, const char* tag) {
  in.expect("curve");
  in.expect(tag);
  const TimeNs x = in.num<TimeNs>("curve.x");
  const Bytes y = in.num<Bytes>("curve.y");
  const TimeNs dx = in.num<TimeNs>("curve.dx");
  const Bytes dy = in.num<Bytes>("curve.dy");
  const RateBps m1 = in.num<RateBps>("curve.m1");
  const RateBps m2 = in.num<RateBps>("curve.m2");
  return RuntimeCurve::from_parts(x, y, dx, dy, m1, m2);
}

ServiceCurve get_sc(TextReader& in, const char* field) {
  ServiceCurve sc;
  sc.m1 = in.num<RateBps>(field);
  sc.d = in.num<TimeNs>(field);
  sc.m2 = in.num<RateBps>(field);
  return sc;
}

}  // namespace

void checkpoint(const Hfsc& s, std::string& out, std::string_view ext) {
  // Sized for the usual record lengths, so a large image grows once
  // instead of through a chain of doublings.
  out.reserve(out.size() + 256 + ext.size() + 384 * s.nodes_.size() +
              48 * s.backlog_packets());
  put_record(out, "hfsc-checkpoint", kCheckpointVersion);
  // The second field is the retired eligible-set kind; always 0 now.
  put_record(out, "link", s.link_rate_, 0, static_cast<int>(s.vt_policy_));
  put_record(out, "maxpkt", s.max_packet_len_);
  put_record(out, "clock", s.last_now_, s.ls_next_fit_);
  put_record(out, "selections", s.rt_selections_, s.ls_selections_,
             static_cast<int>(s.last_criterion_));
  put_record(out, "counters", s.counters_.bad_class, s.counters_.zero_len,
             s.counters_.oversized, s.counters_.clock_regressions);
  put_record(out, "admission", s.admission_ != nullptr,
             s.admission_ ? s.admission_->link_rate() : RateBps{0});
  put_record(out, "watchdog", s.starvation_horizon_);
  put_record(out, "ext", ext.size());
  out.append(ext);
  out.push_back('\n');

  // The node record interleaves fields from the cold Node and the hot /
  // curve slabs (core/hfsc.hpp); the emitted text is byte-identical to
  // the pre-slab format, so digests and golden checkpoints carry over.
  // The fifth field, the retired ever_active flag, is always 0.
  put_record(out, "classes", s.nodes_.size());
  for (ClassId c = 0; c < s.nodes_.size(); ++c) {
    const auto& n = s.nodes_[c];
    const auto& h = s.hot_[c];
    const auto& cc = s.curves_[c];
    put_record(out, "node", c, h.parent, h.idx_in_parent, h.active(), 0,
               h.deleted(), n.starved_flagged, n.queue_limit,
               h.cumul, h.e, h.d, h.total, h.vt, h.fit, n.vt_watermark,
               n.pkts_sent, n.pkts_dropped, n.bytes_dropped, n.last_progress);
    const ClassConfig& cfg = n.cfg;
    put_record(out, "cfg", cfg.rt.m1, cfg.rt.d, cfg.rt.m2, cfg.ls.m1,
               cfg.ls.d, cfg.ls.m2, cfg.ul.m1, cfg.ul.d, cfg.ul.m2);
    put_curve(out, "dc", cc.dc);
    put_curve(out, "ec", cc.ec);
    put_curve(out, "vc", cc.vc);
    put_curve(out, "uc", cc.uc);
  }

  for (ClassId c = 0; c < s.nodes_.size(); ++c) {
    if (c >= s.queues_.num_classes() || !s.queues_.has(c)) continue;
    const auto& q = s.queues_.queue(c);
    put_record(out, "queue", c, q.size());
    for (const Packet& p : q) put_record(out, "pkt", p.len, p.arrival, p.seq);
  }
  out.append("end\n");
}

void checkpoint(const Hfsc& s, std::ostream& out, std::string_view ext) {
  std::string image;
  checkpoint(s, image, ext);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
}

Hfsc restore_checkpoint(std::istream& in, std::string* ext) {
  std::string image;
  // in_avail() counts the buffered bytes (a whole string stream, or the
  // rest of a regular file): a size hint, not a bound.
  const std::streamsize hint = in.rdbuf() ? in.rdbuf()->in_avail() : 0;
  if (hint > 0) image.reserve(static_cast<std::size_t>(hint));
  char chunk[1 << 16];
  do {
    in.read(chunk, sizeof chunk);
    image.append(chunk, static_cast<std::size_t>(in.gcount()));
  } while (in);
  if (in.bad()) {
    throw Error(Errc::kBadCheckpoint,
                "stream read failure at byte " + std::to_string(image.size()));
  }
  in.clear(std::ios::eofbit);  // consumed to EOF, but not failed
  return restore_checkpoint(std::string_view(image), ext);
}

Hfsc restore_checkpoint(std::string_view image, std::string* ext) {
  TextReader in(image, Errc::kBadCheckpoint);
  in.expect("hfsc-checkpoint");
  const auto version = in.num<unsigned>("version");
  if (version != 1 && version != kCheckpointVersion) {
    in.fail("unsupported checkpoint version " + std::to_string(version) +
            " (this build reads versions 1.." +
            std::to_string(kCheckpointVersion) + ")");
  }
  if (ext) ext->clear();

  in.expect("link");
  const RateBps link = in.num<RateBps>("link rate");
  if (link == 0) in.fail("zero link rate");
  // Images from builds that let the caller pick the eligible set carry
  // 1 or 2 here.  The set is rebuilt from the restored (e, d) below, so
  // those restore exactly like 0.
  const auto kind = in.num<unsigned>("eligible-set kind");
  if (kind > 2) in.fail("unknown eligible-set kind " + std::to_string(kind));
  const auto vt_policy = in.num<unsigned>("vt policy");
  if (vt_policy > static_cast<unsigned>(SystemVtPolicy::kMidpoint)) {
    in.fail("unknown vt policy " + std::to_string(vt_policy));
  }

  Hfsc s(link, static_cast<SystemVtPolicy>(vt_policy));

  in.expect("maxpkt");
  s.max_packet_len_ = in.num<Bytes>("max packet length");
  if (s.max_packet_len_ == 0) in.fail("zero max packet length");
  in.expect("clock");
  s.last_now_ = in.num<TimeNs>("last_now");
  s.ls_next_fit_ = in.num<TimeNs>("ls_next_fit");
  in.expect("selections");
  s.rt_selections_ = in.num<std::uint64_t>("rt selections");
  s.ls_selections_ = in.num<std::uint64_t>("ls selections");
  const auto crit = in.num<unsigned>("last criterion");
  if (crit > 1) in.fail("unknown criterion " + std::to_string(crit));
  s.last_criterion_ = static_cast<Criterion>(crit);
  in.expect("counters");
  s.counters_.bad_class = in.num<std::uint64_t>("bad_class");
  s.counters_.zero_len = in.num<std::uint64_t>("zero_len");
  s.counters_.oversized = in.num<std::uint64_t>("oversized");
  s.counters_.clock_regressions = in.num<std::uint64_t>("clock_regressions");
  in.expect("admission");
  const std::size_t adm_at = in.token_offset();
  const bool adm_on = in.flag("admission flag");
  const RateBps adm_rate = in.num<RateBps>("admission rate");
  if (adm_on && adm_rate == 0) in.fail("zero admission rate");
  in.expect("watchdog");
  s.starvation_horizon_ = in.num<TimeNs>("starvation horizon");

  // Version 2: the opaque extension payload, length-prefixed so it may
  // contain arbitrary bytes (including newlines and checkpoint keywords).
  if (version >= 2) {
    in.expect("ext");
    const auto ext_len = in.num<std::size_t>("ext length");
    constexpr std::size_t kMaxExt = 1u << 26;
    if (ext_len > kMaxExt) in.fail("implausible ext payload length");
    if (!in.eat('\n')) in.fail("malformed ext record header");
    const std::string_view payload = in.take(ext_len);
    if (payload.size() != ext_len) in.fail("truncated ext payload");
    if (!in.eat('\n')) in.fail("ext payload not newline-terminated");
    if (ext) ext->assign(payload);
  }

  in.expect("classes");
  const auto n_classes = in.num<std::size_t>("class count");
  if (n_classes == 0) in.fail("a checkpoint always contains the root class");
  if (n_classes > in.rest().size() / kMinClassBytes) {
    in.fail("class count exceeds what the image can hold");
  }

  s.nodes_.resize(n_classes);
  s.hot_.resize(n_classes);
  s.curves_.resize(n_classes);
  std::vector<std::size_t> node_at(n_classes);  // record offsets, for errors
  for (ClassId c = 0; c < n_classes; ++c) {
    in.expect("node");
    node_at[c] = in.token_offset();
    if (in.num<ClassId>("node id") != c) in.fail("node records out of order");
    auto& n = s.nodes_[c];
    auto& h = s.hot_[c];
    auto& cc = s.curves_[c];
    h.parent = in.num<ClassId>("parent");
    h.idx_in_parent = in.num<std::uint32_t>("idx_in_parent");
    h.set_active(in.flag("active"));
    (void)in.flag("ever_active");  // retired; checked, then dropped
    h.set_flag(Hfsc::HotClass::kDeleted, in.flag("deleted"));
    n.starved_flagged = in.flag("starved_flagged");
    n.queue_limit = in.num<std::size_t>("queue_limit");
    h.cumul = in.num<Bytes>("cumul");
    h.e = in.num<TimeNs>("e");
    h.d = in.num<TimeNs>("d");
    h.total = in.num<Bytes>("total");
    h.vt = in.num<TimeNs>("vt");
    h.fit = in.num<TimeNs>("fit");
    n.vt_watermark = in.num<TimeNs>("vt_watermark");
    n.pkts_sent = in.num<std::uint64_t>("pkts_sent");
    n.pkts_dropped = in.num<std::uint64_t>("pkts_dropped");
    n.bytes_dropped = in.num<Bytes>("bytes_dropped");
    n.last_progress = in.num<TimeNs>("last_progress");
    in.expect("cfg");
    n.cfg.rt = get_sc(in, "cfg.rt");
    n.cfg.ls = get_sc(in, "cfg.ls");
    n.cfg.ul = get_sc(in, "cfg.ul");
    cc.dc = get_curve(in, "dc");
    cc.ec = get_curve(in, "ec");
    cc.vc = get_curve(in, "vc");
    cc.uc = get_curve(in, "uc");
    h.refresh_flags(n.cfg);  // cfg was read directly; re-derive the flags
    if (c == 0 && (h.parent != kRootClass || h.deleted())) {
      in.fail_at(node_at[c], "corrupt root record");
    }
    if (c != 0 && (h.parent >= n_classes || h.parent == c)) {
      in.fail_at(node_at[c], "node " + std::to_string(c) +
                                 " has an out-of-range parent");
    }
    if (h.idx_in_parent >= n_classes) {
      in.fail_at(node_at[c], "node " + std::to_string(c) +
                                 " has an out-of-range idx_in_parent");
    }
  }

  // Rebuild the children vectors from (parent, idx_in_parent), and the
  // hot slab's interior bits with them.  Tombstoned nodes are not
  // attached anywhere; live ones must tile their parent's vector exactly.
  for (ClassId c = 1; c < n_classes; ++c) {
    const auto& h = s.hot_[c];
    if (h.deleted()) continue;
    if (s.hot_[h.parent].deleted()) {
      in.fail_at(node_at[c], "live child under a deleted parent");
    }
    auto& kids = s.nodes_[h.parent].children;
    if (kids.size() <= h.idx_in_parent) kids.resize(h.idx_in_parent + 1, 0);
    if (kids[h.idx_in_parent] != 0) {
      in.fail_at(node_at[c], "duplicate idx_in_parent");
    }
    kids[h.idx_in_parent] = c;
    s.hot_[h.parent].set_flag(Hfsc::HotClass::kInterior, true);
  }
  for (ClassId c = 0; c < n_classes; ++c) {
    for (const ClassId kid : s.nodes_[c].children) {
      if (kid == 0) in.fail_at(node_at[c], "gap in a children vector");
    }
  }

  // Queues.  ensure() sizes the per-class vector; packets re-enter in FIFO
  // order so heads (and therefore deadlines) match the original.
  s.queues_.ensure(static_cast<ClassId>(n_classes - 1));
  std::string_view tok;
  while (!(tok = in.word()).empty() && tok != "end") {
    if (tok != "queue") {
      in.fail("expected 'queue' or 'end', got " + TextReader::quoted(tok));
    }
    const auto c = in.num<ClassId>("queue class");
    if (c == 0 || c >= n_classes || !s.hot_[c].live_leaf()) {
      in.fail("queued packets on a non-leaf or deleted class");
    }
    const auto count = in.num<std::size_t>("queue length");
    if (count == 0) in.fail("empty queue record");
    for (std::size_t i = 0; i < count; ++i) {
      in.expect("pkt");
      Packet p;
      p.cls = c;
      p.len = in.num<Bytes>("pkt.len");
      if (p.len == 0) in.fail("zero-length packet in checkpoint");
      p.arrival = in.num<TimeNs>("pkt.arrival");
      p.seq = in.num<std::uint64_t>("pkt.seq");
      s.queues_.push(p);
    }
  }
  if (tok != "end") in.fail("truncated checkpoint (missing 'end')");
  const std::size_t end_at = in.token_offset();

  // Rebuild the derived structures.  Heap layout is free to differ from
  // the original's: IndexedHeap breaks key ties by id, so the dequeue
  // sequence depends only on the (id, key) content restored here, and so
  // does each parent's cached top.
  for (ClassId c = 1; c < n_classes; ++c) {
    const auto& h = s.hot_[c];
    if (h.deleted() || !h.active()) continue;
    auto& heap = s.nodes_[h.parent].active_children;
    heap.push(h.idx_in_parent, h.vt, c);
    s.hot_[h.parent].ls_min = heap.top_tag();
  }
  for (ClassId c = 1; c < n_classes; ++c) {
    const auto& h = s.hot_[c];
    if (!h.live_leaf() || !h.has_rt() || !s.queues_.has(c)) continue;
    s.rt_requests_.update(c, h.e, h.d, s.last_now_);
  }
  if (adm_on) {
    auto fresh =
        std::make_unique<AdmissionControl>(s.leaf_aggregate(adm_rate));
    if (!fresh->fits()) {
      in.fail_at(adm_at,
                 "checkpointed hierarchy does not fit its admission link rate");
    }
    s.admission_ = std::move(fresh);
  }

  const AuditReport report = audit(s);
  if (!report.ok()) {
    in.fail_at(end_at, "restored state fails the invariant audit: " +
                           report.to_string());
  }
  return s;
}

std::uint64_t state_digest(const Hfsc& s) {
  std::string image;
  checkpoint(s, image);
  return fnv1a64(image);
}

}  // namespace hfsc
