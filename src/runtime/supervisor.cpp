#include "runtime/supervisor.hpp"

#include <sstream>
#include <string_view>

#include "util/hash.hpp"

namespace hfsc {

namespace {

// What the host accounts for: every packet it was ever handed is in
// exactly one of sent / dropped / rejected / backlog (PR 6's
// single-instance conservation identity).
std::uint64_t host_accounted(const Hfsc& h) {
  std::uint64_t a =
      h.backlog_packets() + h.data_path_counters().rejected_packets();
  for (ClassId c = 1; c < h.num_classes(); ++c) {
    a += h.packets_sent(c) + h.packets_dropped(c);
  }
  return a;
}

}  // namespace

const char* to_string(ShardPhase p) noexcept {
  switch (p) {
    case ShardPhase::kRunning: return "running";
    case ShardPhase::kSuspect: return "suspect";
    case ShardPhase::kQuarantined: return "quarantined";
    case ShardPhase::kFailed: return "failed";
  }
  return "?";
}

const char* to_string(SupervisorEvent::Kind k) noexcept {
  switch (k) {
    case SupervisorEvent::Kind::kStallSuspected: return "stall-suspected";
    case SupervisorEvent::Kind::kStallConfirmed: return "stall-confirmed";
    case SupervisorEvent::Kind::kCrashDetected: return "crash-detected";
    case SupervisorEvent::Kind::kQuarantined: return "quarantined";
    case SupervisorEvent::Kind::kRecovered: return "recovered";
    case SupervisorEvent::Kind::kRestarted: return "restarted";
    case SupervisorEvent::Kind::kRecoveryFailed: return "recovery-failed";
    case SupervisorEvent::Kind::kSupervisorStarted:
      return "supervisor-started";
    case SupervisorEvent::Kind::kSupervisorStopped:
      return "supervisor-stopped";
  }
  return "?";
}

std::vector<int> ShardedRuntime::partition(const HierarchySpec& spec,
                                           int shards) {
  if (shards < 1) {
    throw Error(Errc::kInvalidArgument, "shard count must be >= 1");
  }
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    index[spec.classes[i].name] = i;
  }
  std::vector<int> out(spec.classes.size(), 0);
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    const auto& c = spec.classes[i];
    std::size_t a = i;  // top-level ancestor — the partition unit
    while (!HierarchySpec::ClassSpec::is_top_level(spec.classes[a].parent)) {
      a = index.at(spec.classes[a].parent);
    }
    if (c.shard >= 0 && a != i) {
      throw Error(Errc::kInvalidArgument,
                  "class '" + c.name +
                      "': shard pins are only allowed on top-level classes "
                      "(the subtree is the partition unit)");
    }
    const auto& top = spec.classes[a];
    if (top.shard >= 0) {
      if (top.shard >= shards) {
        throw Error(Errc::kInvalidArgument,
                    "class '" + top.name + "': shard pin " +
                        std::to_string(top.shard) + " out of range (" +
                        std::to_string(shards) + " shards)");
      }
      out[i] = top.shard;
    } else {
      out[i] = static_cast<int>(fnv1a64(top.name) %
                                static_cast<std::uint64_t>(shards));
    }
  }
  return out;
}

ShardedRuntime::ShardedRuntime(const ShardedOptions& opts,
                               const HierarchySpec& spec)
    : opts_(opts) {
  spec.validate();
  const std::vector<int> part = partition(spec, opts_.shards);
  for (int i = 0; i < opts_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, opts_.shard));
    per_shard_.push_back(std::make_unique<PerShard>());
    phase_.push_back(
        std::make_unique<std::atomic<ShardPhase>>(ShardPhase::kRunning));
  }
  // Build every shard's hierarchy through the journaled control plane,
  // so even a shard that dies before its first periodic checkpoint
  // recovers its construction from the journal.
  shard_of_.assign(spec.classes.size() + 1, -1);
  local_of_.assign(spec.classes.size() + 1, kRootClass);
  std::map<std::string, ClassId> local_ids;
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    const auto& c = spec.classes[i];
    const int s = part[i];
    RuntimeHost& h = shards_[static_cast<std::size_t>(s)]->host();
    const ClassId parent = HierarchySpec::ClassSpec::is_top_level(c.parent)
                               ? kRootClass
                               : local_ids.at(c.parent);
    const ClassId local = h.add_class(parent, ClassConfig{c.rt, c.ls, c.ul});
    if (c.qlimit != 0) h.set_queue_limit(local, c.qlimit);
    local_ids[c.name] = local;
    const ClassId global = static_cast<ClassId>(i + 1);
    name_to_global_[c.name] = global;
    shard_of_[global] = s;
    local_of_[global] = local;
  }
  // A base snapshot per shard: restarts replay from here, not from an
  // empty scheduler.
  for (auto& s : shards_) s->host().save_checkpoint();
}

ShardedRuntime::~ShardedRuntime() { stop(); }

void ShardedRuntime::start() {
  if (started_) return;
  started_ = true;
  for (auto& s : shards_) s->start();
  if (opts_.run_supervisor) start_supervisor();
}

void ShardedRuntime::stop() {
  stop_supervisor();
  for (auto& s : shards_) s->stop_and_join();
  started_ = false;
}

void ShardedRuntime::start_supervisor() {
  if (supervisor_.joinable()) return;
  sup_stop_.store(false, std::memory_order_release);
  supervisor_ = std::thread(&ShardedRuntime::supervisor_loop, this);
  SupervisorEvent ev;
  ev.kind = SupervisorEvent::Kind::kSupervisorStarted;
  push_event(ev);
}

void ShardedRuntime::stop_supervisor() {
  if (!supervisor_.joinable()) return;
  sup_stop_.store(true, std::memory_order_release);
  supervisor_.join();
  SupervisorEvent ev;
  ev.kind = SupervisorEvent::Kind::kSupervisorStopped;
  push_event(ev);
}

ClassId ShardedRuntime::global_id(const std::string& name) const {
  auto it = name_to_global_.find(name);
  if (it == name_to_global_.end()) {
    throw Error(Errc::kInvalidClass, "unknown class '" + name + "'");
  }
  return it->second;
}

int ShardedRuntime::shard_of(ClassId global) const {
  if (global == 0 || global >= shard_of_.size()) return -1;
  return shard_of_[global];
}

ClassId ShardedRuntime::local_id(ClassId global) const {
  return local_of_[global];
}

bool ShardedRuntime::enqueue(TimeNs now, Packet pkt) {
  if (pkt.cls == 0 || pkt.cls >= shard_of_.size() || shard_of_[pkt.cls] < 0) {
    unroutable_.fetch_add(1, std::memory_order_acq_rel);
    return false;
  }
  const auto s = static_cast<std::size_t>(shard_of_[pkt.cls]);
  PerShard& ps = *per_shard_[s];
  ps.presented.fetch_add(1, std::memory_order_acq_rel);
  pkt.cls = local_of_[pkt.cls];
  if (ps.diverted.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(ps.spill_mu);
    // Re-check under the lock: restart_shard_locked clears the flag
    // inside this same mutex right before its final spill swap, so a
    // producer that raced the end of a restart falls through to the
    // ring instead of appending to a spill nobody will ever drain.
    if (ps.diverted.load(std::memory_order_acquire)) {
      if (ps.spill.size() >= opts_.spill_capacity) {
        ps.spill_rejected.fetch_add(1, std::memory_order_acq_rel);
        return false;
      }
      ps.spill.push_back(ShardItem{now, pkt});
      return true;
    }
  }
  if (shards_[s]->offer(ShardItem{now, pkt})) return true;
  ps.ring_rejected.fetch_add(1, std::memory_order_acq_rel);
  return false;
}

int ShardedRuntime::register_producer() {
  int idx = -1;
  for (auto& s : shards_) idx = s->register_producer();
  return idx;
}

void ShardedRuntime::publish_frontier(int producer, TimeNs t) {
  for (auto& s : shards_) s->publish_frontier(producer, t);
}

void ShardedRuntime::supervisor_loop() {
  const std::size_t n = shards_.size();
  std::vector<std::uint64_t> last(n, 0);
  std::vector<int> misses(n, 0);
  for (std::size_t i = 0; i < n; ++i) last[i] = shards_[i]->heartbeat();
  while (!sup_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(opts_.poll_every);
    std::lock_guard<std::mutex> lk(act_mu_);
    for (std::size_t i = 0; i < n; ++i) {
      Shard& s = *shards_[i];
      std::atomic<ShardPhase>& ph = *phase_[i];
      if (ph.load(std::memory_order_acquire) == ShardPhase::kFailed) continue;
      if (s.dead()) {
        SupervisorEvent ev;
        ev.kind = SupervisorEvent::Kind::kCrashDetected;
        ev.shard = static_cast<int>(i);
        ev.death = s.death_point();
        push_event(ev);
        restart_shard_locked(static_cast<int>(i), s.death_point());
        last[i] = s.heartbeat();
        misses[i] = 0;
        continue;
      }
      if (!s.worker_running()) continue;  // externally stopped
      const std::uint64_t b = s.heartbeat();
      if (b != last[i]) {
        last[i] = b;
        misses[i] = 0;
        if (ph.load(std::memory_order_acquire) == ShardPhase::kSuspect) {
          ph.store(ShardPhase::kRunning, std::memory_order_release);
        }
        continue;
      }
      ++misses[i];
      if (misses[i] == opts_.suspect_after_polls) {
        ph.store(ShardPhase::kSuspect, std::memory_order_release);
        SupervisorEvent ev;
        ev.kind = SupervisorEvent::Kind::kStallSuspected;
        ev.shard = static_cast<int>(i);
        push_event(ev);
      }
      if (misses[i] >= opts_.restart_after_polls) {
        SupervisorEvent ev;
        ev.kind = SupervisorEvent::Kind::kStallConfirmed;
        ev.shard = static_cast<int>(i);
        push_event(ev);
        restart_shard_locked(static_cast<int>(i), ShardDeathPoint::kNone);
        last[i] = s.heartbeat();
        misses[i] = 0;
      }
    }
  }
}

void ShardedRuntime::restart_shard_locked(int i, ShardDeathPoint death) {
  const auto idx = static_cast<std::size_t>(i);
  Shard& s = *shards_[idx];
  PerShard& ps = *per_shard_[idx];
  std::atomic<ShardPhase>& ph = *phase_[idx];

  ph.store(ShardPhase::kQuarantined, std::memory_order_release);
  ps.diverted.store(true, std::memory_order_release);
  s.stop_and_join();  // reaps a corpse, or breaks a stalled worker out

  // Drain the dead shard's ring into the bounded spill buffer.  The
  // join above transferred ring-consumer ownership to this thread.
  std::uint64_t drained = 0;
  {
    std::lock_guard<std::mutex> lk(ps.spill_mu);
    while (std::optional<ShardItem> item = s.ring().try_pop()) {
      if (ps.spill.size() >= opts_.spill_capacity) {
        // Accepted earlier, lost now: a drop, never a silent hole.
        ps.spill_dropped.fetch_add(1, std::memory_order_acq_rel);
      } else {
        ps.spill.push_back(*item);
      }
      ++drained;
    }
  }
  {
    SupervisorEvent ev;
    ev.kind = SupervisorEvent::Kind::kQuarantined;
    ev.shard = i;
    ev.death = death;
    ev.spilled = drained;
    push_event(ev);
  }

  // Crash-consistent recovery: only the persisted pair counts.  The
  // in-memory host is a corpse (kill) or a wedged process we just shot
  // (stall) — either way its unpersisted state is gone.
  const std::string cp = s.host().checkpoint_image();
  const std::string jr = s.host().durable_journal_image();
  // The residual baseline must be read BEFORE the host is replaced.
  const std::uint64_t seen = s.popped() + s.injected();
  bool digest_match = false;
  try {
    RuntimeHost r1 = RuntimeHost::recover(opts_.shard.runtime, cp, jr);
    RuntimeHost r2 = RuntimeHost::recover(opts_.shard.runtime, cp, jr);
    digest_match = r1.digest() == r2.digest();
    s.replace_host(std::move(r1));
  } catch (const Error& e) {
    ph.store(ShardPhase::kFailed, std::memory_order_release);
    SupervisorEvent ev;
    ev.kind = SupervisorEvent::Kind::kRecoveryFailed;
    ev.shard = i;
    ev.detail = e.what();
    push_event(ev);
    return;  // diverted stays set: producers keep spilling, bounded
  }

  // Reconcile the crash-loss residual: everything ever handed to a
  // host of this shard, minus what the recovered host accounts for.
  const std::uint64_t accounted = host_accounted(s.host().sched());
  if (seen < accounted || seen - accounted < s.crash_lost()) {
    ph.store(ShardPhase::kFailed, std::memory_order_release);
    SupervisorEvent ev;
    ev.kind = SupervisorEvent::Kind::kRecoveryFailed;
    ev.shard = i;
    ev.detail = "conservation residual went negative: a recovery invented "
                "packets";
    push_event(ev);
    return;
  }
  s.set_crash_lost(seen - accounted);
  {
    SupervisorEvent ev;
    ev.kind = SupervisorEvent::Kind::kRecovered;
    ev.shard = i;
    ev.death = death;
    ev.crash_lost = seen - accounted;
    ev.digest_match = digest_match;
    push_event(ev);
  }

  // Re-inject the spill straight into the recovered host (we are its
  // only user until start()), snapshot, and bring the shard back.
  // The divert flag is cleared INSIDE the spill mutex, atomically with
  // the final swap: a producer that saw it set re-checks under the
  // same lock (enqueue()), so nothing can land in the spill after this
  // swap — the last orphaned-packet window is closed.
  std::vector<ShardItem> spill;
  {
    std::lock_guard<std::mutex> lk(ps.spill_mu);
    ps.diverted.store(false, std::memory_order_release);
    spill.swap(ps.spill);
  }
  for (const ShardItem& it : spill) {
    s.count_injected(1);
    s.host().enqueue(it.now, it.pkt);
  }
  s.host().save_checkpoint();
  s.clear_stall();
  s.count_restart();
  ph.store(ShardPhase::kRunning, std::memory_order_release);
  s.start();
  SupervisorEvent ev;
  ev.kind = SupervisorEvent::Kind::kRestarted;
  ev.shard = i;
  push_event(ev);
}

ShardedRuntime::Totals ShardedRuntime::read_totals_locked(int i) {
  const auto idx = static_cast<std::size_t>(i);
  Shard& s = *shards_[idx];
  PerShard& ps = *per_shard_[idx];
  const Hfsc& h = s.host().sched();
  Totals t;
  t.presented = ps.presented.load(std::memory_order_acquire);
  for (ClassId c = 1; c < h.num_classes(); ++c) {
    t.sent += h.packets_sent(c);
    t.dropped += h.packets_dropped(c);
  }
  t.crash_lost = s.crash_lost();
  t.dropped +=
      ps.spill_dropped.load(std::memory_order_acquire) + t.crash_lost;
  t.rejected = h.data_path_counters().rejected_packets() +
               ps.ring_rejected.load(std::memory_order_acquire) +
               ps.spill_rejected.load(std::memory_order_acquire);
  t.backlog = h.backlog_packets() + s.ring().size_approx();
  {
    std::lock_guard<std::mutex> lk(ps.spill_mu);
    t.spilled = ps.spill.size();
  }
  t.restarts = s.restarts();
  t.max_rt_delay = s.max_rt_delay();
  return t;
}

ShardedRuntime::Totals ShardedRuntime::quiesce_totals() {
  std::lock_guard<std::mutex> lk(act_mu_);
  Totals sum;
  for (auto& s : shards_) {
    if (s->worker_running()) s->pause();
  }
  for (int i = 0; i < num_shards(); ++i) {
    const Totals t = read_totals_locked(i);
    sum.presented += t.presented;
    sum.sent += t.sent;
    sum.dropped += t.dropped;
    sum.crash_lost += t.crash_lost;
    sum.rejected += t.rejected;
    sum.backlog += t.backlog;
    sum.spilled += t.spilled;
    sum.restarts += t.restarts;
    if (t.max_rt_delay > sum.max_rt_delay) sum.max_rt_delay = t.max_rt_delay;
  }
  for (auto& s : shards_) {
    if (s->worker_running()) s->resume();
  }
  return sum;
}

ShardedRuntime::Totals ShardedRuntime::shard_quiesce_totals(int i) {
  std::lock_guard<std::mutex> lk(act_mu_);
  Shard& s = *shards_[static_cast<std::size_t>(i)];
  if (s.worker_running()) s.pause();
  const Totals t = read_totals_locked(i);
  if (s.worker_running()) s.resume();
  return t;
}

bool ShardedRuntime::audit_all(std::string* why) {
  std::lock_guard<std::mutex> lk(act_mu_);
  for (auto& s : shards_) {
    if (s->worker_running()) s->pause();
  }
  bool ok = true;
  for (int i = 0; i < num_shards(); ++i) {
    if (phase(i) == ShardPhase::kFailed) {
      ok = false;
      if (why) *why = "shard " + std::to_string(i) + " is failed";
      break;
    }
    const AuditReport rep =
        shards_[static_cast<std::size_t>(i)]->host().audit_runtime();
    if (!rep.ok()) {
      ok = false;
      if (why) {
        *why = "shard " + std::to_string(i) + ": " + rep.to_string();
      }
      break;
    }
  }
  for (auto& s : shards_) {
    if (s->worker_running()) s->resume();
  }
  return ok;
}

std::vector<SupervisorEvent> ShardedRuntime::drain_events() {
  std::lock_guard<std::mutex> lk(events_mu_);
  std::vector<SupervisorEvent> out;
  out.swap(events_);
  return out;
}

void ShardedRuntime::push_event(SupervisorEvent ev) {
  std::lock_guard<std::mutex> lk(events_mu_);
  events_.push_back(std::move(ev));
}

std::string ShardedRuntime::Totals::to_string() const {
  std::ostringstream os;
  os << "presented=" << presented << " sent=" << sent
     << " dropped=" << dropped << " (crash_lost=" << crash_lost << ")"
     << " rejected=" << rejected << " backlog=" << backlog
     << " spilled=" << spilled << " restarts=" << restarts
     << " max_rt_delay_us=" << max_rt_delay / 1000
     << (conserved() ? " [conserved]" : " [NOT CONSERVED]");
  return os.str();
}

}  // namespace hfsc
