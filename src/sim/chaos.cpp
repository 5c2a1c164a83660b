#include "sim/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>

#include "curve/piecewise.hpp"
#include "runtime/host.hpp"
#include "util/rng.hpp"

namespace hfsc {

namespace {

// "seed=0x<hex>" — appended to every failure and summary line (the
// reproduction handle).
std::string chaos_seed_tag(std::uint64_t seed) {
  std::ostringstream os;
  os << "seed=0x" << std::hex << seed;
  return os.str();
}

using Op = RuntimeHost::BatchOp;
using OpKind = Op::Kind;

// One mutation through the host's journaled entry point; returns the
// added class's id for an add, op.cls otherwise.
ClassId commit_one(RuntimeHost& host, const Op& op) {
  const std::vector<ClassId> added = host.commit_batch({op});
  return added.empty() ? op.cls : added.front();
}

// Every failure carries the run's seed so a red line is reproducible
// verbatim (rep.seed is set before any episode runs).
void fail(ChaosReport& rep, const std::string& what) {
  rep.failures.push_back(what + " [" + chaos_seed_tag(rep.seed) + "]");
}

// Per crash-free epoch packet accounting: everything offered must be
// found again as delivered, dropped (class drops, push-outs, deletions)
// or rejected (malformed) service, or still sit in the backlog.  A
// crash ends the epoch — it may lose in-flight work, never invent it.
struct EpochBase {
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rejected = 0;
  std::uint64_t backlog = 0;
};

EpochBase snapshot(const RuntimeHost& h) {
  EpochBase b;
  const Hfsc& s = h.sched();
  for (ClassId c = 1; c < s.num_classes(); ++c) {
    b.sent += s.packets_sent(c);
    b.dropped += s.packets_dropped(c);
  }
  b.rejected = s.data_path_counters().rejected_packets();
  b.backlog = s.backlog_packets();
  return b;
}

void check_epoch(const RuntimeHost& h, const EpochBase& base,
                 std::uint64_t offered_epoch, const std::string& where,
                 ChaosReport& rep) {
  const EpochBase now = snapshot(h);
  const auto accounted =
      static_cast<std::int64_t>(now.sent - base.sent) +
      static_cast<std::int64_t>(now.dropped - base.dropped) +
      static_cast<std::int64_t>(now.rejected - base.rejected) +
      (static_cast<std::int64_t>(now.backlog) -
       static_cast<std::int64_t>(base.backlog));
  if (accounted != static_cast<std::int64_t>(offered_epoch)) {
    fail(rep, where + ": packet conservation broken (offered " +
                  std::to_string(offered_epoch) + ", accounted " +
                  std::to_string(accounted) + ")");
  }
}

// ---------------------------------------------------------------------------
// Overload scenario + governor-disabled differential twin.
// ---------------------------------------------------------------------------

struct OverloadResult {
  TimeNs max_delay = 0;
  std::map<int, TimeNs> max_delay_by_level;
  int max_level = 0;
  std::uint64_t push_outs = 0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  bool clamp_seen = false;
  bool quarantine_seen = false;
  bool tighten_seen = false;
  bool admission_probe_rejected = false;
  bool admission_probe_after_decay_ok = false;
  bool reversed_cleanly = false;
  std::string audit;  // empty = clean
};

RuntimeOptions overload_options(bool governor_on) {
  RuntimeOptions o;
  o.link_rate = mbps(100);
  o.admission_rate = mbps(100);
  o.watchdog_horizon = msec(20);
  o.sample_interval = usec(200);
  o.governor_enabled = governor_on;
  GovernorConfig& g = o.governor;
  g.enter_backlog[0] = 64 * 1024;
  g.enter_backlog[1] = 192 * 1024;
  g.enter_backlog[2] = 480 * 1024;
  g.exit_backlog[0] = 32 * 1024;
  g.exit_backlog[1] = 96 * 1024;
  g.exit_backlog[2] = 240 * 1024;
  g.class_threshold = 160 * 1024;
  g.up_samples = 2;
  g.down_samples = 8;
  g.clamp_fraction = 0.25;
  g.quarantine_after = 4;
  g.quarantine_qlimit = 200;
  g.headroom = 0.75;
  return o;
}

OverloadResult run_overload(bool governor_on) {
  OverloadResult res;
  const RuntimeOptions opts = overload_options(governor_on);
  RuntimeHost host(opts);

  // Fig. 1-style: one guaranteed audio-like leaf, four bulk leaves.
  const ServiceCurve rt_curve = ServiceCurve::linear(mbps(20));
  const ServiceCurve bulk_ls = ServiceCurve::linear(mbps(20));
  const ClassId rt_cls = commit_one(
      host, {.kind = OpKind::kAdd,
             .cfg = ClassConfig{rt_curve, rt_curve, ServiceCurve{}}});
  std::vector<ClassId> bulk;
  for (int i = 0; i < 4; ++i) {
    bulk.push_back(commit_one(
        host, {.kind = OpKind::kAdd,
               .cfg = ClassConfig::link_share_only(bulk_ls)}));
  }

  const Bytes rt_len = 200;
  const TimeNs rt_period = usec(100);  // 2 MB/s, inside the envelope
  const Bytes bulk_len = 1200;
  const TimeNs step = usec(100);
  const TimeNs flood_start = msec(50);
  const TimeNs flood_end = msec(250);

  TimeNs now = usec(1);
  TimeNs next_rt = now;
  TimeNs next_tx = now;
  std::uint64_t seq = 1;
  std::map<std::uint64_t, TimeNs> rt_outstanding;  // seq -> arrival

  auto serve = [&](TimeNs upto) {
    while (next_tx <= upto) {
      std::optional<Packet> p = host.dequeue(next_tx);
      if (!p) {
        next_tx = upto + 1;
        break;
      }
      ++res.delivered;
      if (p->cls == rt_cls) {
        const auto it = rt_outstanding.find(p->seq);
        if (it != rt_outstanding.end()) {
          const TimeNs delay = next_tx - it->second;
          res.max_delay = std::max(res.max_delay, delay);
          auto& slot = res.max_delay_by_level[host.gov_level()];
          slot = std::max(slot, delay);
          rt_outstanding.erase(it);
        }
      }
      next_tx += tx_time(p->len, opts.link_rate);
    }
  };

  const TimeNs horizon = sec(4);
  bool probed = false;
  while (now < horizon) {
    // Serve BEFORE this step's arrivals: the link then never dequeues
    // at a timestamp earlier than a queued packet's arrival (a stale
    // idle-link next_tx would otherwise regress the scheduler clock and
    // corrupt the delay measurement).
    serve(now);
    // Past the flood, run until drained and decayed back to level 0.
    if (now >= flood_end && host.sched().backlog_packets() == 0 &&
        host.gov_level() == 0) {
      break;
    }
    if (now >= next_rt) {
      rt_outstanding[seq] = now;
      host.enqueue(now, Packet{rt_cls, rt_len, now, seq++});
      ++res.offered;
      next_rt += rt_period;
    }
    if (now >= flood_start && now < flood_end) {
      for (const ClassId b : bulk) {
        for (int k = 0; k < 3; ++k) {
          host.enqueue(now, Packet{b, bulk_len, now, seq++});
          ++res.offered;
        }
      }
    }

    res.max_level = std::max(res.max_level, host.gov_level());
    if (governor_on && host.gov_level() == 3 && !probed) {
      probed = true;
      // Level 3 tightens headroom for NEW flows: an rt flow that fits
      // the base link but not base*headroom must be refused here...
      try {
        // 20 + 60 > 75 = tightened
        commit_one(host, {.kind = OpKind::kAdd,
                          .cfg = ClassConfig::real_time_only(
                              ServiceCurve::linear(mbps(60)))});
      } catch (const Error& e) {
        res.admission_probe_rejected = e.code() == Errc::kAdmissionRejected;
      }
    }
    now += step;
  }

  for (const GovEvent& e : host.drain_events()) {
    if (e.kind == GovEventKind::kClamp) res.clamp_seen = true;
    if (e.kind == GovEventKind::kQuarantine) res.quarantine_seen = true;
    if (e.kind == GovEventKind::kTightenAdmission) res.tighten_seen = true;
  }
  res.push_outs = host.governor().push_outs();

  // ...and the SAME flow must be admitted once the ladder has decayed
  // and the headroom is restored (then cleaned up again).
  if (governor_on && res.admission_probe_rejected) {
    try {
      const ClassId probe = commit_one(
          host, {.kind = OpKind::kAdd,
                 .cfg = ClassConfig::real_time_only(
                     ServiceCurve::linear(mbps(60)))});
      commit_one(host, {.kind = OpKind::kDelete, .cls = probe});
      res.admission_probe_after_decay_ok = true;
    } catch (const Error&) {
      res.admission_probe_after_decay_ok = false;
    }
  }

  // Reversibility: ladder at 0, no clamps or quarantines left, bulk
  // configs byte-identical to the originals, base admission restored.
  bool reversed = host.gov_level() == 0 &&
                  host.governor().clamped().empty() &&
                  host.governor().quarantined().empty();
  for (const ClassId b : bulk) {
    const ServiceCurve& ls = host.sched().config_of(b).ls;
    reversed = reversed && ls.m1 == bulk_ls.m1 && ls.d == bulk_ls.d &&
               ls.m2 == bulk_ls.m2;
  }
  if (host.sched().admission_enabled()) {
    reversed = reversed && host.sched().admission_control()->link_rate() ==
                               opts.admission_rate;
  }
  res.reversed_cleanly = reversed;

  const AuditReport rep = host.audit_runtime();
  if (!rep.ok()) res.audit = rep.to_string();
  return res;
}

void run_overload_check(ChaosReport& rep) {
  // Theorem 2 bound for the rt leaf: the horizontal gap between its
  // token-bucket envelope and its (un-upper-limited) rt guarantee, plus
  // one max-packet transmission time — computed exactly as the static
  // analyzer computes it.
  const ServiceCurve rt_curve = ServiceCurve::linear(mbps(20));
  const PiecewiseLinear env = PiecewiseLinear::token_bucket(2000, mbps(16));
  const PiecewiseLinear guarantee =
      PiecewiseLinear::from_service_curve(rt_curve);
  const auto gap = env.max_horizontal_gap(guarantee);
  if (!gap) {
    fail(rep, "overload: rt envelope unexpectedly overruns the guarantee");
    return;
  }
  const TimeNs bound = sat_add(*gap, tx_time(1500, mbps(100)));
  rep.rt_delay_bound = bound;

  const OverloadResult governed = run_overload(/*governor_on=*/true);
  const OverloadResult twin = run_overload(/*governor_on=*/false);
  rep.max_gov_level = governed.max_level;
  rep.push_outs = governed.push_outs;
  rep.rt_delay_max_governed = governed.max_delay;
  rep.rt_delay_max_twin = twin.max_delay;
  rep.offered += governed.offered + twin.offered;
  rep.delivered += governed.delivered + twin.delivered;

  if (governed.max_level < 3) {
    fail(rep, "overload: flood never drove the ladder to level 3 (reached " +
                  std::to_string(governed.max_level) + ")");
  }
  if (governed.push_outs == 0) {
    fail(rep, "overload: level >= 1 never pushed out a non-rt arrival");
  }
  if (!governed.clamp_seen) fail(rep, "overload: no clamp event at level 2");
  if (!governed.quarantine_seen) {
    fail(rep, "overload: no quarantine event for persistent offenders");
  }
  if (!governed.tighten_seen) {
    fail(rep, "overload: no tighten-admission event at level 3");
  }
  if (!governed.admission_probe_rejected) {
    fail(rep, "overload: tightened admission accepted a flow over headroom");
  }
  if (!governed.admission_probe_after_decay_ok) {
    fail(rep, "overload: admission headroom not restored after decay");
  }
  if (!governed.reversed_cleanly) {
    fail(rep, "overload: degradation was not fully reversed on load decay");
  }
  if (!governed.audit.empty()) {
    fail(rep, "overload: governed run ends audit-dirty: " + governed.audit);
  }
  if (!twin.audit.empty()) {
    fail(rep, "overload: twin run ends audit-dirty: " + twin.audit);
  }
  if (twin.max_level != 0 || twin.push_outs != 0) {
    fail(rep, "overload: governor-disabled twin still degraded");
  }
  // The invariant the whole ladder is built around: admitted rt
  // guarantees hold at every degradation level, governed or not.
  for (const auto& [level, delay] : governed.max_delay_by_level) {
    if (delay > bound) {
      fail(rep, "overload: rt delay " + std::to_string(delay) +
                    " ns exceeds the Theorem 2 bound " +
                    std::to_string(bound) + " ns at governor level " +
                    std::to_string(level));
    }
  }
  if (twin.max_delay > bound) {
    fail(rep, "overload: twin rt delay " + std::to_string(twin.max_delay) +
                  " ns exceeds the Theorem 2 bound " + std::to_string(bound) +
                  " ns");
  }
}

// ---------------------------------------------------------------------------
// Kill-and-recover episodes.
// ---------------------------------------------------------------------------

RuntimeOptions episode_options() {
  RuntimeOptions o;
  o.link_rate = mbps(100);
  o.admission_rate = mbps(100);
  o.watchdog_horizon = msec(50);
  o.sample_interval = usec(500);
  GovernorConfig& g = o.governor;
  g.enter_backlog[0] = 64 * 1024;
  g.enter_backlog[1] = 256 * 1024;
  g.enter_backlog[2] = 1024 * 1024;
  g.exit_backlog[0] = 32 * 1024;
  g.exit_backlog[1] = 128 * 1024;
  g.exit_backlog[2] = 512 * 1024;
  g.class_threshold = 96 * 1024;
  g.up_samples = 2;
  g.down_samples = 4;
  return o;
}

void run_episode(const ChaosConfig& cfg, int ep, ChaosReport& rep) {
  Rng rng(cfg.seed + 0x9E3779B97f4A7C15ULL * static_cast<std::uint64_t>(ep));
  const RuntimeOptions opts = episode_options();

  std::optional<RuntimeHost> host;
  host.emplace(opts);

  // Hierarchy: single-op commits plus one three-op batch, so replay
  // meets both from the very first records.
  const ServiceCurve rt_curve = ServiceCurve::linear(mbps(10));
  const ClassId rt_cls = commit_one(
      *host, {.kind = OpKind::kAdd,
              .cfg = ClassConfig{rt_curve, rt_curve, ServiceCurve{}}});
  const ClassId org = commit_one(
      *host, {.kind = OpKind::kAdd,
              .cfg = ClassConfig::link_share_only(
                  ServiceCurve::linear(mbps(80)))});
  const Op bulk_add{
      .kind = OpKind::kAdd,
      .parent = org,
      .cfg = ClassConfig::link_share_only(ServiceCurve::linear(mbps(25)))};
  std::vector<ClassId> bulk =
      host->commit_batch({bulk_add, bulk_add, bulk_add});

  EpochBase base = snapshot(*host);
  std::uint64_t offered_epoch = 0;
  std::uint64_t seq = 1;
  TimeNs now = usec(rng.uniform(1, 50));
  TimeNs next_tx = now;
  TimeNs next_checkpoint = now + msec(rng.uniform(4, 9));
  TimeNs next_churn = now + msec(1);
  std::vector<ClassId> scratch;

  const TimeNs episode_len = msec(40);
  const TimeNs crash_at = now + episode_len / 2 + usec(rng.uniform(0, 2000));
  bool crashed = false;
  const int mode = ep % 6;  // 5 crash points + torn append

  auto offer = [&](ClassId cls, Bytes len, TimeNs when) {
    host->enqueue(when, Packet{cls, len, when, seq++});
    ++offered_epoch;
    ++rep.offered;
  };

  auto serve = [&](TimeNs upto) {
    while (next_tx <= upto) {
      std::optional<Packet> p = host->dequeue(next_tx);
      if (!p) {
        next_tx = upto + 1;
        break;
      }
      ++rep.delivered;
      next_tx += tx_time(p->len, opts.link_rate);
    }
  };

  auto recover_now = [&](const char* where) {
    // The persisted pair is read off the dead host — the images ARE the
    // simulated disk; copy before the object goes away.
    const std::string cp = host->checkpoint_image();
    const std::string jr = host->journal_image();
    check_epoch(*host, base, offered_epoch, where, rep);
    ++rep.crashes;
    try {
      RuntimeHost r1 = RuntimeHost::recover(opts, cp, jr);
      RuntimeHost r2 = RuntimeHost::recover(opts, cp, jr);
      if (r1.digest() != r2.digest() ||
          r1.governor().serialize() != r2.governor().serialize()) {
        fail(rep, std::string(where) + ": recovery is not deterministic");
      }
      const AuditReport ar = r1.audit_runtime();
      if (!ar.ok()) {
        fail(rep, std::string(where) + ": recovered state audit-dirty: " +
                      ar.to_string());
      }
      rep.replayed_records += r1.journal().num_records();
      host.emplace(std::move(r1));
      ++rep.recoveries;
    } catch (const Error& e) {
      fail(rep, std::string(where) + ": recovery raised " + e.what());
      host.emplace(opts);  // keep the episode alive for the remainder
    }
    base = snapshot(*host);
    offered_epoch = 0;
    next_tx = now;  // delay tracking for lost packets is abandoned
  };

  const TimeNs end_at = now + episode_len;
  while (now < end_at) {
    // Arrivals: steady rt stream, bursty bulk with flash-crowd storms.
    if (rng.chance(0.8)) offer(rt_cls, 200, now);
    const bool storm =
        now > end_at - (3 * episode_len / 4) && now < end_at - episode_len / 4;
    const int nbulk = storm ? static_cast<int>(rng.uniform(3, 10))
                            : static_cast<int>(rng.uniform(0, 2));
    for (int i = 0; i < nbulk; ++i) {
      offer(bulk[rng.uniform(0, bulk.size() - 1)],
            rng.uniform(400, 1500), now);
    }
    // Malformed input: unknown class, zero length, absurd length; all
    // must be counted, never thrown.
    if (rng.chance(0.02)) offer(9999, 800, now);
    if (rng.chance(0.02)) offer(rt_cls, 0, now);
    if (rng.chance(0.02)) offer(bulk[0], 64u * 1024 * 1024, now);
    // Clock anomalies: an occasional backwards arrival (clamped and
    // counted) and an occasional forward jump.
    if (rng.chance(0.02) && now > msec(2)) offer(bulk[1], 700, now - msec(1));
    if (rng.chance(0.01)) now += msec(2);

    serve(now);

    // Txn churn: scratch leaves come and go under org; an occasionally
    // invalid batch must fail typed and journal nothing.
    if (now >= next_churn) {
      next_churn = now + msec(1);
      if (scratch.size() < 4 && rng.chance(0.7)) {
        const auto before =
            static_cast<ClassId>(host->sched().num_classes());
        const Op add{.kind = OpKind::kAdd,
                     .parent = org,
                     .cfg = ClassConfig::link_share_only(
                         ServiceCurve::linear(mbps(rng.uniform(1, 10))))};
        const Op lim{.kind = OpKind::kQueueLimit,
                     .cls = before,
                     .limit = rng.uniform(16, 64)};
        host->commit_batch({add, lim});
        scratch.push_back(before);
      } else if (!scratch.empty()) {
        commit_one(*host, {.kind = OpKind::kDelete, .cls = scratch.back()});
        scratch.pop_back();
      }
      if (rng.chance(0.3)) {
        // Unknown class: the whole batch must fail.
        const Op bad{
            .kind = OpKind::kChange,
            .cls = 60000,
            .cfg = ClassConfig::link_share_only(ServiceCurve::linear(mbps(1))),
            .now = now};
        try {
          host->commit_batch({bad});
          fail(rep, "episode " + std::to_string(ep) +
                        ": invalid batch committed");
        } catch (const Error& e) {
          if (e.code() != Errc::kInvalidClass) {
            fail(rep, "episode " + std::to_string(ep) +
                          ": invalid batch raised wrong error: " + e.what());
          }
        }
      }
    }

    if (now >= next_checkpoint && (!crashed || now >= crash_at + msec(5))) {
      next_checkpoint = now + msec(rng.uniform(4, 9));
      host->save_checkpoint();
    }

    // The kill: every episode crashes exactly once, at a boundary that
    // cycles through all five crash points plus the torn append.
    if (!crashed && now >= crash_at) {
      crashed = true;
      try {
        if (mode < 5) {
          host->arm_crash(kAllCrashPoints[mode]);
          if (kAllCrashPoints[mode] == CrashPoint::kBeforeCheckpoint ||
              kAllCrashPoints[mode] == CrashPoint::kAfterCheckpoint ||
              kAllCrashPoints[mode] == CrashPoint::kAfterCompact) {
            host->save_checkpoint();
          } else {
            commit_one(*host, {.kind = OpKind::kQueueLimit,
                               .cls = bulk[2],
                               .limit = rng.uniform(32, 256)});
          }
        } else {
          ++rep.torn_appends;
          host->tear_next_append(rng.uniform(1, 60));
          commit_one(*host, {.kind = OpKind::kQueueLimit,
                             .cls = bulk[2],
                             .limit = rng.uniform(32, 256)});
        }
        fail(rep, "episode " + std::to_string(ep) +
                      ": armed crash point never fired");
      } catch (const CrashSignal&) {
        recover_now("crash recovery");
        scratch.clear();  // ids may have been lost with the crash
      }
    }

    now += usec(rng.uniform(20, 120));
  }

  // Quiesce: drain everything, then the books must balance exactly.
  for (int guard = 0; guard < 200000 && host->sched().backlog_packets() > 0;
       ++guard) {
    serve(now);
    now += usec(50);
  }
  check_epoch(*host, base, offered_epoch, "episode end", rep);
  const AuditReport ar = host->audit_runtime();
  if (!ar.ok()) {
    fail(rep, "episode " + std::to_string(ep) +
                  " ends audit-dirty: " + ar.to_string());
  }

  // Replay parity: snapshot, then a few control-plane-only mutations;
  // recovery (= checkpoint + journal replay) must land digest-identical
  // to the live scheduler, byte for byte.
  host->save_checkpoint();
  commit_one(*host,
             {.kind = OpKind::kQueueLimit, .cls = bulk[0], .limit = 128});
  commit_one(*host, {.kind = OpKind::kChange,
                     .cls = bulk[0],
                     .cfg = ClassConfig::link_share_only(
                         ServiceCurve::linear(mbps(rng.uniform(5, 30)))),
                     .now = now});
  commit_one(*host, {.kind = OpKind::kQueueLimit, .cls = bulk[0], .limit = 0});
  try {
    RuntimeHost rec = RuntimeHost::recover(opts, host->checkpoint_image(),
                                           host->journal_image());
    if (rec.digest() != host->digest()) {
      fail(rep, "episode " + std::to_string(ep) +
                    ": replayed recovery digest differs from live state");
    }
  } catch (const Error& e) {
    fail(rep, "episode " + std::to_string(ep) +
                  ": replay-parity recovery raised " + e.what());
  }

  // Corrupt-image probes on a subset of episodes: typed errors and
  // truncation, never a crash.
  if (ep % 7 == 3) {
    const std::string cp = host->checkpoint_image();
    const std::string jr = host->journal_image();
    try {
      RuntimeHost::recover(opts, cp, "this was never a journal");
      fail(rep, "garbage journal accepted");
    } catch (const Error& e) {
      if (e.code() != Errc::kBadJournal) {
        fail(rep, std::string("garbage journal raised wrong error: ") +
                      e.what());
      }
    }
    if (cp.size() > 4) {
      std::string bad_cp = cp;
      bad_cp[0] = 'X';
      try {
        RuntimeHost::recover(opts, bad_cp, jr);
        fail(rep, "corrupt checkpoint accepted");
      } catch (const Error& e) {
        if (e.code() != Errc::kBadCheckpoint) {
          fail(rep, std::string("corrupt checkpoint raised wrong error: ") +
                        e.what());
        }
      }
    }
    if (jr.size() > Journal::kHeaderBytes + 8) {
      // A bit flip past the header is indistinguishable from a torn
      // tail: recovery truncates there and still lands audit-clean.
      std::string bad_jr = jr;
      bad_jr[Journal::kHeaderBytes + 6] ^= 0x40;
      try {
        RuntimeHost r = RuntimeHost::recover(opts, cp, bad_jr);
        if (!r.audit_runtime().ok()) {
          fail(rep, "bit-flipped journal recovery is audit-dirty");
        }
      } catch (const Error& e) {
        fail(rep, std::string("bit-flipped journal raised ") + e.what());
      }
    }
  }

  ++rep.episodes;
}

}  // namespace

std::string ChaosReport::to_string() const {
  std::ostringstream os;
  if (episodes > 0 || crashes > 0) {
    os << "chaos: " << episodes << " episodes, " << crashes << " crashes ("
       << torn_appends << " torn appends), " << recoveries << " recoveries, "
       << replayed_records << " journal records replayed ("
       << chaos_seed_tag(seed) << ")\n";
  }
  os << "traffic: " << offered << " offered, " << delivered << " delivered\n";
  if (rt_delay_bound > 0 || max_gov_level > 0) {
    os << "overload: max governor level " << max_gov_level << ", "
       << push_outs << " push-outs, rt delay bound " << rt_delay_bound
       << " ns (governed max " << rt_delay_max_governed << ", twin max "
       << rt_delay_max_twin << ")\n";
  }
  if (failures.empty()) {
    os << "result: OK (" << chaos_seed_tag(seed) << ")";
  } else {
    os << "result: " << failures.size() << " failure(s) ("
       << chaos_seed_tag(seed) << "):";
    for (const std::string& f : failures) os << "\n  " << f;
  }
  return os.str();
}

ChaosReport run_chaos(const ChaosConfig& cfg) {
  ChaosReport rep;
  rep.seed = cfg.seed;
  if (cfg.overload_check) run_overload_check(rep);
  for (int ep = 0; ep < cfg.episodes; ++ep) run_episode(cfg, ep, rep);
  if (cfg.soak) {
    const auto t0 = std::chrono::steady_clock::now();
    int ep = cfg.episodes;
    while (std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::steady_clock::now() - t0)
               .count() < cfg.soak_seconds) {
      run_episode(cfg, ep++, rep);
    }
  }
  if (rep.recoveries != rep.crashes) {
    fail(rep, "not every crash was recovered (" +
                  std::to_string(rep.recoveries) + "/" +
                  std::to_string(rep.crashes) + ")");
  }
  return rep;
}

}  // namespace hfsc
