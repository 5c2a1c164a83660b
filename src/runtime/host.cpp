#include "runtime/host.hpp"

#include <algorithm>

#include "util/text_codec.hpp"

namespace hfsc {

namespace {

// Journal parse errors: the record's own bytes are at fault.
constexpr std::string_view kBadRecord = "malformed journal record: ";

using BatchOp = RuntimeHost::BatchOp;
using OpKind = BatchOp::Kind;

// The journal text of one control-plane op: the only writer of
// add/chg/del/qlim lines, for commit_batch and governor interventions
// alike.  put_record ends the line with '\n'.
void put_op(std::string& out, const BatchOp& op) {
  const ClassConfig& c = op.cfg;
  switch (op.kind) {
    case OpKind::kAdd:
      put_record(out, "add", op.parent, c.rt.m1, c.rt.d, c.rt.m2, c.ls.m1,
                 c.ls.d, c.ls.m2, c.ul.m1, c.ul.d, c.ul.m2);
      break;
    case OpKind::kChange:
      put_record(out, "chg", op.now, op.cls, c.rt.m1, c.rt.d, c.rt.m2,
                 c.ls.m1, c.ls.d, c.ls.m2, c.ul.m1, c.ul.d, c.ul.m2);
      break;
    case OpKind::kDelete:
      put_record(out, "del", op.cls);
      break;
    case OpKind::kQueueLimit:
      put_record(out, "qlim", op.cls, op.limit);
      break;
  }
}

// The only reader of put_op's output: parses one op's whole line.
BatchOp read_op(TextReader in) {
  const std::string_view name = in.word();
  BatchOp op;
  auto read_cfg = [&] {
    for (ServiceCurve* sc : {&op.cfg.rt, &op.cfg.ls, &op.cfg.ul}) {
      sc->m1 = in.num<RateBps>("m1");
      sc->d = in.num<TimeNs>("d");
      sc->m2 = in.num<RateBps>("m2");
    }
  };
  if (name == "add") {
    op.kind = OpKind::kAdd;
    op.parent = in.num<ClassId>("parent");
    read_cfg();
  } else if (name == "chg") {
    op.kind = OpKind::kChange;
    op.now = in.num<TimeNs>("now");
    op.cls = in.num<ClassId>("class");
    read_cfg();
  } else if (name == "del") {
    op.kind = OpKind::kDelete;
    op.cls = in.num<ClassId>("class");
  } else if (name == "qlim") {
    op.kind = OpKind::kQueueLimit;
    op.cls = in.num<ClassId>("class");
    op.limit = in.num<std::size_t>("queue limit");
  } else {
    in.fail("unknown op " + TextReader::quoted(name));
  }
  in.expect_end();
  return op;
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
      sched_(opts.link_rate),
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

std::vector<ClassId> RuntimeHost::commit_ops(const std::vector<BatchOp>& ops) {
  Hfsc::Txn txn = sched_.begin();
  std::vector<ClassId> added;
  for (const BatchOp& op : ops) {
    const ClassId id = txn.stage(op);
    if (op.kind == OpKind::kAdd) added.push_back(id);
  }
  txn.commit();
  for (const BatchOp& op : ops) {
    if (op.kind != OpKind::kDelete) continue;
    gov_.forget_clamp(op.cls);
    gov_.forget_quarantine(op.cls);
  }
  return added;
}

std::vector<ClassId> RuntimeHost::commit_batch(
    const std::vector<BatchOp>& ops) {
  std::vector<ClassId> added = commit_ops(ops);  // throws: nothing journaled
  maybe_crash(CrashPoint::kAfterApply);
  std::string p;
  put_record(p, "txn", ops.size());
  for (const BatchOp& op : ops) put_op(p, op);
  journal_append(p);
  maybe_crash(CrashPoint::kAfterJournalAppend);
  return added;
}

// --- Data path ---------------------------------------------------------------

void RuntimeHost::enqueue(TimeNs now, Packet pkt) {
  sched_.enqueue(now, pkt);
  if (!opts_.governor_enabled) return;
  if (gov_.level() >= 1 && pkt.cls != kRootClass &&
      pkt.cls < sched_.num_classes() &&
      gov_.should_push_out(sched_.queued_bytes(pkt.cls),
                           live_leaf(pkt.cls, /*with_rt=*/true))) {
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
  for (; served < max_pkts; ++served) {
    std::optional<Packet> p = dequeue(now);
    if (!p) break;
    out.push_back(*p);
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

void RuntimeHost::execute(const GovActions& actions, TimeNs now) {
  std::string mutations;  // one journal line per mutation
  std::size_t n_mutations = 0;
  auto run = [&](const BatchOp& op) {
    sched_.apply(op);
    put_op(mutations, op);
    ++n_mutations;
  };
  // Clamps and quarantines touch only live non-rt leaves: the rt
  // invariant, enforced here and in the governor's plan.
  for (const ClassId cls : actions.clamp) {
    if (!live_leaf(cls, /*with_rt=*/false)) continue;
    const ClassConfig original = sched_.config_of(cls);
    ClassConfig clamped = original;
    const double f = opts_.governor.clamp_fraction;
    clamped.ls.m1 = std::max<RateBps>(
        1, static_cast<RateBps>(static_cast<double>(original.ls.m1) * f));
    clamped.ls.m2 = std::max<RateBps>(
        1, static_cast<RateBps>(static_cast<double>(original.ls.m2) * f));
    run({.kind = OpKind::kChange, .cls = cls, .cfg = clamped, .now = now});
    gov_.note_clamped(cls, original);
  }
  for (const ClassId cls : actions.unclamp) {
    const ClassConfig original = gov_.saved_config(cls);
    if (live_leaf(cls, /*with_rt=*/false)) {
      run({.kind = OpKind::kChange, .cls = cls, .cfg = original, .now = now});
    }
    gov_.forget_clamp(cls);
  }
  for (const ClassId cls : actions.quarantine) {
    if (!live_leaf(cls, /*with_rt=*/false)) continue;
    const std::size_t saved = sched_.queue_limit_of(cls);
    const std::size_t qlim = opts_.governor.quarantine_qlimit;
    run({.kind = OpKind::kQueueLimit, .cls = cls, .limit = qlim});
    gov_.note_quarantined(cls, saved);
  }
  for (const ClassId cls : actions.release) {
    const std::size_t saved = gov_.saved_qlimit(cls);
    if (live_leaf(cls, /*with_rt=*/false)) {
      run({.kind = OpKind::kQueueLimit, .cls = cls, .limit = saved});
    }
    gov_.forget_quarantine(cls);
  }
  if (actions.tighten_admission && retune_admission(tightened_rate())) {
    gov_.note_admission(true);
    put_record(mutations, "adm", tightened_rate());
    ++n_mutations;
  }
  if (actions.restore_admission && retune_admission(opts_.admission_rate)) {
    gov_.note_admission(false);
    put_record(mutations, "adm", opts_.admission_rate);
    ++n_mutations;
  }

  // The whole intervention — mutations plus the governor state they
  // produced — is one atomic journal record: a crash can lose it
  // entirely (the governor re-detects after recovery) but can never
  // leave a clamp without the saved original needed to undo it.
  maybe_crash(CrashPoint::kAfterApply);
  std::string p;
  put_record(p, "gov", n_mutations);
  p += mutations;
  p += gov_.serialize();
  journal_append(p);
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
  std::string ext;
  put_record(ext, "jseq", journal_.last_seq());
  ext += gov_.serialize();
  checkpoint_image_.clear();
  checkpoint(sched_, checkpoint_image_, ext);
  checkpoint_seq_ = journal_.last_seq();
  maybe_crash(CrashPoint::kAfterCheckpoint);
  journal_.compact(checkpoint_seq_);
  maybe_crash(CrashPoint::kAfterCompact);
}

void RuntimeHost::apply_record(const std::string& payload) {
  // A record is a "txn N" or "gov N" header line followed by N op lines
  // (and, for gov, the governor's state blob).
  TextReader in(payload, Errc::kBadJournal, kBadRecord);
  TextReader head = in.line();
  const std::string_view kind = head.word();
  if (kind != "txn" && kind != "gov") {
    head.fail("unknown record " + TextReader::quoted(kind));
  }
  const auto n = head.num<std::size_t>("op count");
  head.expect_end();
  auto next_line = [&] {
    if (in.rest().empty()) in.fail_at(in.offset(), "missing op line");
    return in.line();
  };
  if (kind == "txn") {
    std::vector<BatchOp> ops;
    for (std::size_t i = 0; i < n; ++i) ops.push_back(read_op(next_line()));
    in.expect_end();
    commit_ops(ops);
    return;
  }
  // gov: the plan's chg/qlim ops and admission retunes, then the state.
  for (std::size_t i = 0; i < n; ++i) {
    const TextReader line = next_line();
    TextReader adm = line;
    if (adm.word() == "adm") {
      const RateBps rate = adm.num<RateBps>("admission rate");
      adm.expect_end();
      sched_.enable_admission_control(rate);
      continue;
    }
    const BatchOp op = read_op(line);
    if (op.kind != OpKind::kChange && op.kind != OpKind::kQueueLimit) {
      line.fail_at(line.offset(), "a gov record holds only chg/qlim/adm");
    }
    sched_.apply(op);
  }
  const std::size_t blob_at = in.offset();
  try {
    gov_.restore(in.rest());
  } catch (const Error& e) {
    // A journal fault, not a checkpoint one.
    in.fail_at(blob_at, std::string("governor state (") + e.what() + ")");
  }
}

RuntimeHost RuntimeHost::recover(const RuntimeOptions& opts,
                                 const std::string& checkpoint_image,
                                 const std::string& journal_image) {
  Journal j = Journal::parse(journal_image);  // throws Error{kBadJournal}

  // Never checkpointed: the whole journal onto a fresh scheduler built
  // like the original.  Otherwise the records after the snapshot's.
  RuntimeHost h = [&] {
    if (checkpoint_image.empty()) return RuntimeHost(opts);
    std::string ext;
    RuntimeHost r(opts, restore_checkpoint(checkpoint_image, &ext),
                  RecoverTag{});
    TextReader ei(ext, Errc::kBadCheckpoint, "runtime checkpoint ext: ");
    ei.expect("jseq");
    r.checkpoint_seq_ = ei.num<std::uint64_t>("journal watermark");
    r.gov_.restore(ei.rest());
    r.checkpoint_image_ = checkpoint_image;
    return r;
  }();

  h.replaying_ = true;
  for (const JournalRecord& r : j.records_after(h.checkpoint_seq_)) {
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

AuditReport RuntimeHost::audit_runtime() const {
  AuditReport r = audit(sched_);
  auto fail = [&](const std::string& what) {
    r.failures.push_back("governor: " + what);
  };
  for (const auto& [cls, saved] : gov_.clamped()) {
    (void)saved;
    if (!live_leaf(cls, /*with_rt=*/false)) {
      fail("clamped class " + std::to_string(cls) +
           " is not a live non-rt leaf");
    }
  }
  for (const auto& [cls, saved] : gov_.quarantined()) {
    (void)saved;
    if (!live_leaf(cls, /*with_rt=*/false)) {
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
