#include "runtime/host.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

namespace hfsc {

namespace {

[[noreturn]] void bad_record(const std::string& payload) {
  throw Error(Errc::kBadJournal,
              "malformed journal record: '" + payload.substr(0, 48) + "'");
}

void put_sc(std::ostream& out, const ServiceCurve& sc) {
  out << sc.m1 << ' ' << sc.d << ' ' << sc.m2;
}

void put_cfg(std::ostream& out, const ClassConfig& cfg) {
  put_sc(out, cfg.rt);
  out << ' ';
  put_sc(out, cfg.ls);
  out << ' ';
  put_sc(out, cfg.ul);
}

ClassConfig read_cfg(std::istream& in, const std::string& payload) {
  ClassConfig cfg;
  if (!(in >> cfg.rt.m1 >> cfg.rt.d >> cfg.rt.m2 >> cfg.ls.m1 >> cfg.ls.d >>
        cfg.ls.m2 >> cfg.ul.m1 >> cfg.ul.d >> cfg.ul.m2)) {
    bad_record(payload);
  }
  return cfg;
}

}  // namespace

const char* to_string(CrashPoint p) noexcept {
  switch (p) {
    case CrashPoint::kNone: return "none";
    case CrashPoint::kAfterApply: return "after-apply";
    case CrashPoint::kAfterJournalAppend: return "after-journal-append";
    case CrashPoint::kBeforeCheckpoint: return "before-checkpoint";
    case CrashPoint::kAfterCheckpoint: return "after-checkpoint";
    case CrashPoint::kAfterCompact: return "after-compact";
  }
  return "?";
}

RuntimeHost::RuntimeHost(const RuntimeOptions& opts)
    : opts_(opts),
      sched_(opts.link_rate, opts.vt_policy),
      gov_(opts.governor) {
  if (opts_.admission_rate > 0) {
    sched_.enable_admission_control(opts_.admission_rate);
  }
  if (opts_.watchdog_horizon > 0) {
    sched_.enable_starvation_watchdog(opts_.watchdog_horizon);
  }
}

RuntimeHost::RuntimeHost(const RuntimeOptions& opts, Hfsc&& restored,
                         RecoverTag)
    : opts_(opts), sched_(std::move(restored)), gov_(opts.governor) {
  // Admission and watchdog configuration travel inside the checkpoint;
  // re-enabling them here would overwrite the recovered state.
}

// --- Journaled control plane -----------------------------------------------

ClassId RuntimeHost::add_class(ClassId parent, ClassConfig cfg) {
  const ClassId id = sched_.add_class(parent, cfg);
  maybe_crash(CrashPoint::kAfterApply);
  std::ostringstream p;
  p << "add " << parent << ' ';
  put_cfg(p, cfg);
  journal_append(p.str());
  maybe_crash(CrashPoint::kAfterJournalAppend);
  return id;
}

void RuntimeHost::change_class(TimeNs now, ClassId cls, ClassConfig cfg) {
  sched_.change_class(now, cls, cfg);
  maybe_crash(CrashPoint::kAfterApply);
  std::ostringstream p;
  p << "chg " << now << ' ' << cls << ' ';
  put_cfg(p, cfg);
  journal_append(p.str());
  maybe_crash(CrashPoint::kAfterJournalAppend);
}

void RuntimeHost::delete_class(ClassId cls) {
  sched_.delete_class(cls);
  forget_governed(cls);
  maybe_crash(CrashPoint::kAfterApply);
  journal_append("del " + std::to_string(cls));
  maybe_crash(CrashPoint::kAfterJournalAppend);
}

void RuntimeHost::set_queue_limit(ClassId cls, std::size_t max_packets) {
  sched_.set_queue_limit(cls, max_packets);
  maybe_crash(CrashPoint::kAfterApply);
  journal_append("qlim " + std::to_string(cls) + ' ' +
                 std::to_string(max_packets));
  maybe_crash(CrashPoint::kAfterJournalAppend);
}

void RuntimeHost::commit_batch(const std::vector<BatchOp>& ops) {
  Hfsc::Txn txn = sched_.begin();
  for (const BatchOp& op : ops) {
    switch (op.kind) {
      case BatchOp::Kind::kAdd:
        txn.add_class(op.parent, op.cfg);
        break;
      case BatchOp::Kind::kChange:
        txn.change_class(op.now, op.cls, op.cfg);
        break;
      case BatchOp::Kind::kDelete:
        txn.delete_class(op.cls);
        break;
      case BatchOp::Kind::kQueueLimit:
        txn.set_queue_limit(op.cls, op.limit);
        break;
    }
  }
  txn.commit();  // throws without journaling on a failed batch
  for (const BatchOp& op : ops) {
    if (op.kind == BatchOp::Kind::kDelete) forget_governed(op.cls);
  }
  maybe_crash(CrashPoint::kAfterApply);
  std::ostringstream p;
  p << "txn " << ops.size() << '\n';
  for (const BatchOp& op : ops) {
    switch (op.kind) {
      case BatchOp::Kind::kAdd:
        p << "add " << op.parent << ' ';
        put_cfg(p, op.cfg);
        break;
      case BatchOp::Kind::kChange:
        p << "chg " << op.now << ' ' << op.cls << ' ';
        put_cfg(p, op.cfg);
        break;
      case BatchOp::Kind::kDelete:
        p << "del " << op.cls;
        break;
      case BatchOp::Kind::kQueueLimit:
        p << "qlim " << op.cls << ' ' << op.limit;
        break;
    }
    p << '\n';
  }
  journal_append(p.str());
  maybe_crash(CrashPoint::kAfterJournalAppend);
}

// --- Data path ---------------------------------------------------------------

bool RuntimeHost::rt_leaf(ClassId cls) const {
  return cls != kRootClass && cls < sched_.num_classes() &&
         !sched_.is_deleted(cls) && sched_.is_leaf(cls) &&
         !sched_.config_of(cls).rt.is_zero();
}

void RuntimeHost::enqueue(TimeNs now, Packet pkt) {
  sched_.enqueue(now, pkt);
  if (!opts_.governor_enabled) return;
  if (gov_.level() >= 1 && pkt.cls != kRootClass &&
      pkt.cls < sched_.num_classes() &&
      gov_.should_push_out(sched_.queued_bytes(pkt.cls), rt_leaf(pkt.cls))) {
    // Early drop: push the arrival straight back out of the tail rather
    // than letting the class ride to its queue-limit cliff.
    if (sched_.drop_tail(pkt.cls)) gov_.count_push_out();
  }
  maybe_sample(now);
}

std::optional<Packet> RuntimeHost::dequeue(TimeNs now) {
  std::optional<Packet> p = sched_.dequeue(now);
  // Sampling on the dequeue path too lets the ladder decay while the
  // backlog drains with no fresh arrivals.
  if (opts_.governor_enabled) maybe_sample(now);
  return p;
}

std::size_t RuntimeHost::dequeue_batch(TimeNs now, std::size_t max_pkts,
                                       std::vector<Packet>& out) {
  std::size_t served = 0;
  while (served < max_pkts) {
    if (opts_.governor_enabled && now >= next_sample_) {
      // A sample is due: its plan may mutate the scheduler, so serve one
      // packet and sample, exactly like the single-dequeue path.  With a
      // positive sample interval this runs at most once per batch.
      std::optional<Packet> p = dequeue(now);
      if (!p) break;
      out.push_back(*p);
      ++served;
      continue;
    }
    // No sample can fire before `now` moves, so the per-packet
    // maybe_sample calls the single path would make are all no-ops and
    // the core batch is state-identical to the remaining singles.
    const std::size_t got = sched_.dequeue_batch(now, max_pkts - served, out);
    served += got;
    break;  // the core stops only at max_pkts or an empty/idle scheduler
  }
  return served;
}

std::uint64_t RuntimeHost::total_drops() const {
  std::uint64_t n = 0;
  for (ClassId c = 1; c < sched_.num_classes(); ++c) {
    n += sched_.packets_dropped(c);
  }
  return n;
}

void RuntimeHost::maybe_sample(TimeNs now) {
  if (replaying_ || now < next_sample_) return;
  next_sample_ = now + opts_.sample_interval;
  GovSignals sig;
  sig.backlog_bytes = sched_.backlog_bytes();
  sig.drops = total_drops();
  sig.starved_leaves = sched_.starvation_horizon() > 0
                           ? sched_.starved_classes(now).size()
                           : 0;
  const int prev_level = gov_.level();
  const GovActions actions = gov_.sample(sig, now, sched_);
  // Any level movement is durable governor state, so it is journaled
  // even when the plan carries no mutations.
  if (!actions.empty() || gov_.level() != prev_level) execute(actions, now);
}

bool RuntimeHost::retune_admission(RateBps rate) {
  if (rate == 0 || !sched_.admission_enabled()) return false;
  // Pre-check against a probe so enable_admission_control can never
  // throw (it would leave admission DISABLED on an infeasible
  // hierarchy, which is the opposite of tightening).
  AdmissionControl probe(rate);
  for (ClassId c = 1; c < sched_.num_classes(); ++c) {
    if (sched_.is_deleted(c) || !sched_.is_leaf(c)) continue;
    const ServiceCurve& rt = sched_.config_of(c).rt;
    if (rt.is_zero()) continue;
    if (!probe.admit(rt)) return false;
  }
  sched_.enable_admission_control(rate);
  return true;
}

void RuntimeHost::execute(const GovActions& actions, TimeNs now) {
  std::vector<std::string> mutations;
  auto governable = [&](ClassId cls) {
    return cls != kRootClass && cls < sched_.num_classes() &&
           !sched_.is_deleted(cls) && sched_.is_leaf(cls) &&
           sched_.config_of(cls).rt.is_zero();
  };

  for (const ClassId cls : actions.clamp) {
    if (!governable(cls)) continue;  // the rt invariant, enforced twice
    const ClassConfig original = sched_.config_of(cls);
    ClassConfig clamped = original;
    const double f = opts_.governor.clamp_fraction;
    clamped.ls.m1 = std::max<RateBps>(
        1, static_cast<RateBps>(static_cast<double>(original.ls.m1) * f));
    clamped.ls.m2 = std::max<RateBps>(
        1, static_cast<RateBps>(static_cast<double>(original.ls.m2) * f));
    sched_.change_class(now, cls, clamped);
    gov_.note_clamped(cls, original);
    std::ostringstream m;
    m << "chg " << now << ' ' << cls << ' ';
    put_cfg(m, clamped);
    mutations.push_back(m.str());
  }
  for (const ClassId cls : actions.unclamp) {
    const ClassConfig original = gov_.saved_config(cls);
    if (governable(cls)) {
      sched_.change_class(now, cls, original);
      std::ostringstream m;
      m << "chg " << now << ' ' << cls << ' ';
      put_cfg(m, original);
      mutations.push_back(m.str());
    }
    gov_.forget_clamp(cls);
  }
  for (const ClassId cls : actions.quarantine) {
    if (!governable(cls)) continue;
    const std::size_t saved = sched_.queue_limit_of(cls);
    const std::size_t qlim = opts_.governor.quarantine_qlimit;
    sched_.set_queue_limit(cls, qlim);
    gov_.note_quarantined(cls, saved);
    mutations.push_back("qlim " + std::to_string(cls) + ' ' +
                        std::to_string(qlim));
  }
  for (const ClassId cls : actions.release) {
    const std::size_t saved = gov_.saved_qlimit(cls);
    if (governable(cls)) {
      sched_.set_queue_limit(cls, saved);
      mutations.push_back("qlim " + std::to_string(cls) + ' ' +
                          std::to_string(saved));
    }
    gov_.forget_quarantine(cls);
  }
  if (actions.tighten_admission && retune_admission(tightened_rate())) {
    gov_.note_admission(true);
    mutations.push_back("adm " + std::to_string(tightened_rate()));
  }
  if (actions.restore_admission && retune_admission(opts_.admission_rate)) {
    gov_.note_admission(false);
    mutations.push_back("adm " + std::to_string(opts_.admission_rate));
  }

  // The whole intervention — mutations plus the governor state they
  // produced — is one atomic journal record: a crash can lose it
  // entirely (the governor re-detects after recovery) but can never
  // leave a clamp without the saved original needed to undo it.
  maybe_crash(CrashPoint::kAfterApply);
  std::ostringstream p;
  p << "gov " << mutations.size() << '\n';
  for (const std::string& m : mutations) p << m << '\n';
  p << gov_.serialize();
  journal_append(p.str());
  maybe_crash(CrashPoint::kAfterJournalAppend);
}

// --- Persistence -------------------------------------------------------------

void RuntimeHost::journal_append(const std::string& payload) {
  journal_.append(payload);
  // An armed tear models a crash DURING this append: the write is
  // chopped and the sync below never happens, so the record is outside
  // the durable prefix whatever the policy.
  if (tear_bytes_ > 0) {
    const std::size_t n = tear_bytes_;
    tear_bytes_ = 0;
    journal_.tear_tail(n);
    throw CrashSignal{CrashPoint::kAfterJournalAppend};
  }
  if (opts_.sync_policy == SyncPolicy::kOnCommit) journal_.sync();
}

void RuntimeHost::save_checkpoint() {
  maybe_crash(CrashPoint::kBeforeCheckpoint);
  // A snapshot must never reference journal state weaker than itself:
  // flush the WAL before writing the checkpoint, whatever the policy.
  journal_.sync();
  std::ostringstream os;
  const std::string ext = "jseq " + std::to_string(journal_.last_seq()) +
                          '\n' + gov_.serialize();
  checkpoint(sched_, os, ext);
  checkpoint_image_ = os.str();
  checkpoint_seq_ = journal_.last_seq();
  maybe_crash(CrashPoint::kAfterCheckpoint);
  journal_.compact(checkpoint_seq_);
  maybe_crash(CrashPoint::kAfterCompact);
}

void RuntimeHost::apply_record(const std::string& payload) {
  std::istringstream in(payload);
  std::string op;
  if (!(in >> op)) bad_record(payload);
  if (op == "add") {
    ClassId parent = 0;
    if (!(in >> parent)) bad_record(payload);
    sched_.add_class(parent, read_cfg(in, payload));
  } else if (op == "chg") {
    TimeNs now = 0;
    ClassId cls = 0;
    if (!(in >> now >> cls)) bad_record(payload);
    sched_.change_class(now, cls, read_cfg(in, payload));
  } else if (op == "del") {
    ClassId cls = 0;
    if (!(in >> cls)) bad_record(payload);
    sched_.delete_class(cls);
    forget_governed(cls);
  } else if (op == "qlim") {
    ClassId cls = 0;
    std::size_t limit = 0;
    if (!(in >> cls >> limit)) bad_record(payload);
    sched_.set_queue_limit(cls, limit);
  } else if (op == "txn") {
    std::size_t n = 0;
    if (!(in >> n)) bad_record(payload);
    Hfsc::Txn txn = sched_.begin();
    std::vector<ClassId> deleted;
    for (std::size_t i = 0; i < n; ++i) {
      std::string sub;
      if (!(in >> sub)) bad_record(payload);
      if (sub == "add") {
        ClassId parent = 0;
        if (!(in >> parent)) bad_record(payload);
        txn.add_class(parent, read_cfg(in, payload));
      } else if (sub == "chg") {
        TimeNs now = 0;
        ClassId cls = 0;
        if (!(in >> now >> cls)) bad_record(payload);
        txn.change_class(now, cls, read_cfg(in, payload));
      } else if (sub == "del") {
        ClassId cls = 0;
        if (!(in >> cls)) bad_record(payload);
        txn.delete_class(cls);
        deleted.push_back(cls);
      } else if (sub == "qlim") {
        ClassId cls = 0;
        std::size_t limit = 0;
        if (!(in >> cls >> limit)) bad_record(payload);
        txn.set_queue_limit(cls, limit);
      } else {
        bad_record(payload);
      }
    }
    txn.commit();
    for (const ClassId cls : deleted) forget_governed(cls);
  } else if (op == "gov") {
    std::size_t n = 0;
    if (!(in >> n)) bad_record(payload);
    for (std::size_t i = 0; i < n; ++i) {
      std::string sub;
      if (!(in >> sub)) bad_record(payload);
      if (sub == "chg") {
        TimeNs now = 0;
        ClassId cls = 0;
        if (!(in >> now >> cls)) bad_record(payload);
        sched_.change_class(now, cls, read_cfg(in, payload));
      } else if (sub == "qlim") {
        ClassId cls = 0;
        std::size_t limit = 0;
        if (!(in >> cls >> limit)) bad_record(payload);
        sched_.set_queue_limit(cls, limit);
      } else if (sub == "adm") {
        RateBps rate = 0;
        if (!(in >> rate)) bad_record(payload);
        sched_.enable_admission_control(rate);
      } else {
        bad_record(payload);
      }
    }
    const std::string blob{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    gov_.restore(blob);
  } else {
    bad_record(payload);
  }
}

RuntimeHost RuntimeHost::recover(const RuntimeOptions& opts,
                                 const std::string& checkpoint_image,
                                 const std::string& journal_image) {
  Journal j = Journal::parse(journal_image);  // throws Error{kBadJournal}

  if (checkpoint_image.empty()) {
    // Never checkpointed: recovery is a full journal replay onto a
    // fresh scheduler built exactly like the original was.
    RuntimeHost h(opts);
    h.replaying_ = true;
    for (const JournalRecord& r : j.records_after(0)) {
      h.apply_record(r.payload);
    }
    h.replaying_ = false;
    h.journal_ = std::move(j);
    const AuditReport rep = h.audit_runtime();
    if (!rep.ok()) {
      throw Error(Errc::kInvariantViolation,
                  "recovered state fails the audit: " + rep.to_string());
    }
    return h;
  }

  std::istringstream in(checkpoint_image);
  std::string ext;
  Hfsc restored = restore_checkpoint(in, &ext);
  RuntimeHost h(opts, std::move(restored), RecoverTag{});

  std::istringstream ei(ext);
  std::string tok;
  std::uint64_t watermark = 0;
  if (!(ei >> tok >> watermark) || tok != "jseq") {
    throw Error(Errc::kBadCheckpoint,
                "runtime checkpoint ext is missing the journal watermark");
  }
  const std::string gov_blob{std::istreambuf_iterator<char>(ei),
                             std::istreambuf_iterator<char>()};
  h.gov_.restore(gov_blob);

  h.replaying_ = true;
  for (const JournalRecord& r : j.records_after(watermark)) {
    h.apply_record(r.payload);
  }
  h.replaying_ = false;
  h.journal_ = std::move(j);
  h.checkpoint_image_ = checkpoint_image;
  h.checkpoint_seq_ = watermark;

  const AuditReport rep = h.audit_runtime();
  if (!rep.ok()) {
    throw Error(Errc::kInvariantViolation,
                "recovered state fails the audit: " + rep.to_string());
  }
  return h;
}

AuditReport RuntimeHost::audit_runtime() const {
  AuditReport r = audit(sched_);
  auto fail = [&](const std::string& what) {
    r.failures.push_back("governor: " + what);
  };
  auto governable = [&](ClassId cls) {
    return cls != kRootClass && cls < sched_.num_classes() &&
           !sched_.is_deleted(cls) && sched_.is_leaf(cls) &&
           sched_.config_of(cls).rt.is_zero();
  };
  for (const auto& [cls, saved] : gov_.clamped()) {
    (void)saved;
    if (!governable(cls)) {
      fail("clamped class " + std::to_string(cls) +
           " is not a live non-rt leaf");
    }
  }
  for (const auto& [cls, saved] : gov_.quarantined()) {
    (void)saved;
    if (!governable(cls)) {
      fail("quarantined class " + std::to_string(cls) +
           " is not a live non-rt leaf");
    }
  }
  if (gov_.level() < 2 &&
      (!gov_.clamped().empty() || !gov_.quarantined().empty())) {
    fail("clamps or quarantines outlive degradation level 2");
  }
  if (opts_.admission_rate > 0 && sched_.admission_enabled()) {
    const RateBps want =
        gov_.admission_tightened() ? tightened_rate() : opts_.admission_rate;
    if (sched_.admission_control()->link_rate() != want) {
      fail("admission link rate disagrees with the governor's headroom "
           "state");
    }
  }
  return r;
}

}  // namespace hfsc
