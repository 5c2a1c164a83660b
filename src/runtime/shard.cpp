#include "runtime/shard.hpp"

#include <chrono>
#include <limits>

namespace hfsc {

namespace {

// Internal kill signal for the operation-countdown fault.  Like
// CrashSignal it is deliberately outside the hfsc::Error taxonomy: a
// simulated thread death is not an error the stack below may handle.
struct KillSignal {
  ShardDeathPoint point = ShardDeathPoint::kNone;
};

constexpr TimeNs kNoHorizon = std::numeric_limits<TimeNs>::max();

}  // namespace

const char* to_string(ShardDeathPoint p) noexcept {
  switch (p) {
    case ShardDeathPoint::kNone: return "none";
    case ShardDeathPoint::kLoopTop: return "loop-top";
    case ShardDeathPoint::kAfterPop: return "after-pop";
    case ShardDeathPoint::kAfterEnqueue: return "after-enqueue";
    case ShardDeathPoint::kAfterDequeue: return "after-dequeue";
    case ShardDeathPoint::kCheckpoint: return "checkpoint";
    case ShardDeathPoint::kHostCrash: return "host-crash";
  }
  return "?";
}

Shard::Shard(int index, const ShardConfig& cfg)
    : index_(index), cfg_(cfg), ring_(cfg.ring_capacity) {
  host_.emplace(cfg_.runtime);
}

Shard::~Shard() { stop_and_join(); }

void Shard::replace_host(RuntimeHost&& h) {
  host_.emplace(std::move(h));
  local_now_ = 0;  // the recovered host's internal clocks clamp forward
}

int Shard::register_producer() {
  frontiers_.push_back(std::make_unique<std::atomic<TimeNs>>(0));
  return static_cast<int>(frontiers_.size()) - 1;
}

void Shard::post_batch(std::vector<RuntimeHost::BatchOp> ops) {
  ControlMsg m;
  m.kind = ControlMsg::Kind::kBatch;
  m.ops = std::move(ops);
  std::lock_guard<std::mutex> lk(control_mu_);
  control_.push_back(std::move(m));
  control_pending_.store(true, std::memory_order_release);
}

void Shard::post_tear(std::size_t bytes) {
  ControlMsg m;
  m.kind = ControlMsg::Kind::kTear;
  m.tear_bytes = bytes;
  std::lock_guard<std::mutex> lk(control_mu_);
  control_.push_back(std::move(m));
  control_pending_.store(true, std::memory_order_release);
}

void Shard::post_arm_crash(CrashPoint p) {
  ControlMsg m;
  m.kind = ControlMsg::Kind::kArmCrash;
  m.crash_point = p;
  std::lock_guard<std::mutex> lk(control_mu_);
  control_.push_back(std::move(m));
  control_pending_.store(true, std::memory_order_release);
}

void Shard::start() {
  if (thread_.joinable()) return;
  abort_.store(false, std::memory_order_release);
  dead_.store(false, std::memory_order_release);
  death_point_.store(ShardDeathPoint::kNone, std::memory_order_release);
  pops_since_ckpt_ = 0;
  thread_ = std::thread(&Shard::run_worker, this);
}

void Shard::stop_and_join() {
  {
    std::lock_guard<std::mutex> lk(pause_mu_);
    abort_.store(true, std::memory_order_release);
    pause_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void Shard::pause() {
  std::unique_lock<std::mutex> lk(pause_mu_);
  pause_req_.store(true, std::memory_order_release);
  pause_cv_.notify_all();
  pause_cv_.wait(lk, [&] {
    return paused_ || dead_.load(std::memory_order_acquire) ||
           !thread_.joinable();
  });
}

void Shard::resume() {
  std::lock_guard<std::mutex> lk(pause_mu_);
  pause_req_.store(false, std::memory_order_release);
  pause_cv_.notify_all();
}

bool Shard::check_pause_and_abort() {
  if (abort_.load(std::memory_order_acquire)) return false;
  if (!pause_req_.load(std::memory_order_acquire)) return true;
  std::unique_lock<std::mutex> lk(pause_mu_);
  paused_ = true;
  pause_cv_.notify_all();
  pause_cv_.wait(lk, [&] {
    return !pause_req_.load(std::memory_order_acquire) ||
           abort_.load(std::memory_order_acquire);
  });
  paused_ = false;
  return !abort_.load(std::memory_order_acquire);
}

void Shard::apply_control() {
  std::vector<ControlMsg> msgs;
  {
    std::lock_guard<std::mutex> lk(control_mu_);
    msgs.swap(control_);
    control_pending_.store(false, std::memory_order_release);
  }
  bool mutated = false;
  for (ControlMsg& m : msgs) {
    switch (m.kind) {
      case ControlMsg::Kind::kBatch:
        // A batch the scheduler rejects (admission, bad shape) is the
        // poster's problem, not the worker's: the txn left no trace.
        try {
          host_->commit_batch(m.ops);
          mutated = true;
        } catch (const Error&) {
        }
        break;
      case ControlMsg::Kind::kTear:
        host_->tear_next_append(m.tear_bytes);
        break;
      case ControlMsg::Kind::kArmCrash:
        host_->arm_crash(m.crash_point);
        break;
    }
  }
  if (mutated) refresh_rt_leaves();
}

void Shard::refresh_rt_leaves() {
  const Hfsc& s = host_->sched();
  rt_leaf_.assign(s.num_classes(), false);
  for (ClassId c = 1; c < s.num_classes(); ++c) {
    rt_leaf_[c] =
        !s.is_deleted(c) && s.is_leaf(c) && !s.config_of(c).rt.is_zero();
  }
}

TimeNs Shard::horizon() const {
  if (frontiers_.empty()) return kNoHorizon;
  TimeNs h = kNoHorizon;
  for (const auto& f : frontiers_) {
    const TimeNs t = f->load(std::memory_order_acquire);
    if (t < h) h = t;
  }
  return h;
}

void Shard::maybe_die(ShardDeathPoint p) {
  std::uint64_t k = kill_countdown_.load(std::memory_order_acquire);
  if (k == 0) return;
  if (k == 1) {
    kill_countdown_.store(0, std::memory_order_release);
    throw KillSignal{p};
  }
  kill_countdown_.store(k - 1, std::memory_order_release);
}

void Shard::run_worker() {
  try {
    refresh_rt_leaves();
    for (;;) {
      if (!check_pause_and_abort()) return;
      if (stall_.load(std::memory_order_acquire)) {
        // The fault: a wedged worker stops heartbeating.  It still
        // honors pause/abort so the supervisor can reap it.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      heartbeat_.fetch_add(1, std::memory_order_release);
      maybe_die(ShardDeathPoint::kLoopTop);
      if (control_pending_.load(std::memory_order_acquire)) apply_control();

      // Feed and serve, merged in virtual-timestamp order: while the
      // link is busy (backlog) strictly before the head arrival's
      // stamp, transmission completions are the next events — the ring
      // head waits.  Only an idle link jumps local_now_ forward to the
      // next arrival.  This is exactly the serve-before-arrivals rule
      // of the single-threaded harnesses, so per-packet rt delays are
      // measured against a correctly work-conserving virtual link and
      // the Theorem 2 bound applies without slack.  Service (never
      // feeding) is additionally gated by the producers' conservative
      // frontier: no dequeue may outrun a stamp a producer could still
      // push.  Both directions are budgeted per loop iteration so a
      // flood cannot starve the heartbeat.
      const TimeNs gate = cfg_.refill ? kNoHorizon : horizon();
      std::size_t fed = 0;
      std::size_t served = 0;
      for (;;) {
        const ShardItem* head =
            fed < ring_.capacity() ? ring_.try_peek() : nullptr;
        const bool busy = host_->sched().backlog_packets() > 0;
        if (head && (!busy || head->now <= local_now_)) {
          std::optional<ShardItem> item = ring_.try_pop();
          popped_.fetch_add(1, std::memory_order_release);
          maybe_die(ShardDeathPoint::kAfterPop);  // in-flight loss point
          if (!busy && item->now > local_now_) local_now_ = item->now;
          // A stamp behind the link clock (the link served past the
          // arrival instant) enqueues at the clock; the packet keeps
          // its true arrival stamp for delay measurement.
          host_->enqueue(std::max(local_now_, item->now), item->pkt);
          ++pops_since_ckpt_;
          ++fed;
          maybe_die(ShardDeathPoint::kAfterEnqueue);
        } else if (busy && served < cfg_.serve_burst && local_now_ < gate) {
          std::optional<Packet> p = host_->dequeue(local_now_);
          if (!p) {
            // Backlog present but nothing eligible yet (upper-limit
            // curves): the link idles until the next event — the head
            // arrival if one waits, else the frontier itself.
            if (head && head->now > local_now_) {
              local_now_ = head->now;
              continue;
            }
            if (gate != kNoHorizon && gate > local_now_) local_now_ = gate;
            break;
          }
          sent_total_.fetch_add(1, std::memory_order_release);
          if (p->cls < rt_leaf_.size() && rt_leaf_[p->cls]) {
            const TimeNs d =
                local_now_ >= p->arrival ? local_now_ - p->arrival : 0;
            if (d > max_rt_delay_.load(std::memory_order_relaxed)) {
              max_rt_delay_.store(d, std::memory_order_release);
            }
          }
          local_now_ += tx_time(p->len, cfg_.runtime.link_rate);
          if (cfg_.refill) {
            host_->enqueue(local_now_,
                           Packet{p->cls, p->len, local_now_, refill_seq_++});
          }
          ++served;
          maybe_die(ShardDeathPoint::kAfterDequeue);
        } else {
          break;
        }
      }

      if (cfg_.checkpoint_every_pops > 0 &&
          pops_since_ckpt_ >= cfg_.checkpoint_every_pops) {
        pops_since_ckpt_ = 0;
        maybe_die(ShardDeathPoint::kCheckpoint);
        host_->save_checkpoint();
      }

      if (fed == 0 && served == 0) {
        // Idle (or waiting for the frontier): yield the core.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  } catch (const CrashSignal&) {
    std::lock_guard<std::mutex> lk(pause_mu_);
    death_point_.store(ShardDeathPoint::kHostCrash, std::memory_order_release);
    dead_.store(true, std::memory_order_release);
    pause_cv_.notify_all();  // a waiting pause() must not hang on a corpse
  } catch (const KillSignal& k) {
    std::lock_guard<std::mutex> lk(pause_mu_);
    death_point_.store(k.point, std::memory_order_release);
    dead_.store(true, std::memory_order_release);
    pause_cv_.notify_all();
  }
}

}  // namespace hfsc
