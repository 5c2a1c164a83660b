// One shard of the supervised multi-shard runtime
// (docs/ROBUSTNESS.md Section 12).
//
// A Shard owns a full single-instance resilience stack — RuntimeHost,
// i.e. Hfsc + Journal + OverloadGovernor — plus the worker thread that
// drives it and the MPSC ring producers feed it through.  The worker
// loop is the only thread that ever touches the host while it runs:
//
//     beat heartbeat -> honor pause/abort/stall flags -> apply queued
//     control ops -> drain the ring into the host -> serve up to a
//     burst of dequeues gated by the producers' time frontier ->
//     periodic checkpoint
//
// Everything the supervisor (runtime/supervisor.hpp) needs in order to
// detect and survive this thread dying lives OUTSIDE the host, in
// atomics that play the role of a shared-memory stats segment: the
// heartbeat counter, the dead flag, and the cumulative ring/injection
// counters the conservation identity is computed from.  When the worker
// is killed (simulated crash: CrashSignal from the host's persistence
// boundaries, or this shard's own operation-countdown kill), the host
// object's in-memory state is treated as gone — recovery rebuilds a
// host from the persisted (checkpoint image, durable journal image)
// pair alone, exactly like PR 6's single-instance recovery.
//
// Time model: packets travel with a virtual timestamp (ShardItem::now).
// Each registered producer publishes a "frontier" — a promise that
// everything it will still push carries a stamp >= that value.  The
// worker only serves while its local virtual clock is below the minimum
// frontier (conservative parallel-discrete-event rule), so per-packet
// rt-delay measurements are sound under arbitrary real-thread
// interleavings.  With no producers registered the horizon is infinite
// (the bench's steady-state mode).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/host.hpp"
#include "util/mpsc_ring.hpp"

namespace hfsc {

// What producers push: a packet plus its virtual arrival stamp.
struct ShardItem {
  TimeNs now = 0;
  Packet pkt{};
};

// Where the worker's operation-countdown kill fired (diagnostics; the
// host's own CrashPoints cover the persistence boundaries).
enum class ShardDeathPoint {
  kNone,
  kLoopTop,
  kAfterPop,      // ring item popped, host never saw it (in-flight loss)
  kAfterEnqueue,
  kAfterDequeue,
  kCheckpoint,
  kHostCrash,     // a CrashSignal out of the host itself
};

const char* to_string(ShardDeathPoint p) noexcept;

struct ShardConfig {
  RuntimeOptions runtime{};
  std::size_t ring_capacity = 1024;
  // Save a checkpoint every N ring pops; 0 = never (bench mode).
  std::size_t checkpoint_every_pops = 8192;
  // Dequeues per loop iteration.  Smaller = finer-grained virtual time
  // (tighter delay measurement); larger = more throughput.
  std::size_t serve_burst = 16;
  // Steady-state bench mode: every dequeued packet is immediately
  // re-enqueued to the same class, and the frontier gate is ignored.
  // Packets are still served one host dequeue at a time, so the link
  // clock advances between every two packets exactly as in live mode.
  bool refill = false;
};

class Shard {
 public:
  Shard(int index, const ShardConfig& cfg);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  int index() const noexcept { return index_; }

  // --- Construction / recovery (no worker thread running) ------------------
  // Direct host access.  Legal only before start() and between join()
  // and the next start(); the join gives the happens-before edge.
  RuntimeHost& host() noexcept { return *host_; }
  const RuntimeHost& host() const noexcept { return *host_; }
  // Installs a recovered host (supervisor restart path).
  void replace_host(RuntimeHost&& h);

  // --- Worker lifecycle ------------------------------------------------------
  void start();
  // Asks the worker to exit at the next loop top (also breaks an
  // injected stall) and joins it.  Idempotent.
  void stop_and_join();
  bool worker_running() const noexcept { return thread_.joinable(); }

  // --- Producer side ---------------------------------------------------------
  // Lock-free; false = ring full (the caller owns the backpressure
  // accounting).  Callable from any thread at any time.
  bool offer(const ShardItem& item) { return ring_.try_push(item); }
  MpscRing<ShardItem>& ring() noexcept { return ring_; }

  // Producer frontier slots (conservative time gate).  All slots must be
  // registered before start(); index into producer_frontier afterwards.
  int register_producer();
  void publish_frontier(int producer, TimeNs t) {
    frontiers_[static_cast<std::size_t>(producer)]->store(
        t, std::memory_order_release);
  }

  // --- Control mailbox -------------------------------------------------------
  // Queued mutations the worker applies (journaled) at its next loop
  // top; the tear/crash arms ride the same mailbox so they reach the
  // host from the worker thread, race-free.
  void post_batch(std::vector<RuntimeHost::BatchOp> ops);
  void post_tear(std::size_t bytes);
  void post_arm_crash(CrashPoint p);

  // --- Fault injection -------------------------------------------------------
  // Stops heartbeating and serving until the supervisor restarts the
  // shard (the stall loop still honors abort and pause).
  void inject_stall() { stall_.store(true, std::memory_order_release); }
  void clear_stall() { stall_.store(false, std::memory_order_release); }
  bool stalled() const noexcept {
    return stall_.load(std::memory_order_acquire);
  }
  // Kills the worker (simulated crash) after `ops` more countdown
  // checkpoints in the loop (see ShardDeathPoint).
  void inject_kill(std::uint64_t ops) {
    kill_countdown_.store(ops, std::memory_order_release);
  }

  // --- Supervisor-facing state ----------------------------------------------
  std::uint64_t heartbeat() const noexcept {
    return heartbeat_.load(std::memory_order_acquire);
  }
  bool dead() const noexcept { return dead_.load(std::memory_order_acquire); }
  ShardDeathPoint death_point() const noexcept {
    return death_point_.load(std::memory_order_acquire);
  }

  // Quiesce handshake: pause() returns once the worker is parked at its
  // loop top (or has died — the caller must check dead()); resume()
  // releases it.  While paused the host may be read by other threads.
  void pause();
  void resume();

  // --- Conservation counters (cumulative, survive worker death) -------------
  // Ring items consumed by the worker (including any in-flight one a
  // crash swallowed).
  std::uint64_t popped() const noexcept {
    return popped_.load(std::memory_order_acquire);
  }
  // Packets the supervisor injected directly into the host (spill
  // re-injection after a restart).
  std::uint64_t injected() const noexcept {
    return injected_.load(std::memory_order_acquire);
  }
  void count_injected(std::uint64_t n) {
    injected_.fetch_add(n, std::memory_order_acq_rel);
  }
  // Packets lost to crashes (reconciled by the supervisor at restart:
  // popped + injected - what the recovered host accounts for).
  std::uint64_t crash_lost() const noexcept {
    return crash_lost_.load(std::memory_order_acquire);
  }
  void set_crash_lost(std::uint64_t v) {
    crash_lost_.store(v, std::memory_order_release);
  }
  std::uint64_t restarts() const noexcept {
    return restarts_.load(std::memory_order_acquire);
  }
  void count_restart() { restarts_.fetch_add(1, std::memory_order_acq_rel); }
  // Worst rt-leaf dequeue delay observed by the worker (ns).
  TimeNs max_rt_delay() const noexcept {
    return max_rt_delay_.load(std::memory_order_acquire);
  }
  void reset_max_rt_delay() {
    max_rt_delay_.store(0, std::memory_order_release);
  }
  std::uint64_t sent_total() const noexcept {
    return sent_total_.load(std::memory_order_acquire);
  }

  const ShardConfig& config() const noexcept { return cfg_; }

 private:
  void run_worker();
  // Parks at the loop top while a pause is requested; returns false if
  // the worker should exit (abort).
  bool check_pause_and_abort();
  void apply_control();
  void refresh_rt_leaves();
  TimeNs horizon() const;
  // Operation-countdown kill probe.
  void maybe_die(ShardDeathPoint p);

  struct ControlMsg {
    enum class Kind { kBatch, kTear, kArmCrash };
    Kind kind = Kind::kBatch;
    std::vector<RuntimeHost::BatchOp> ops;
    std::size_t tear_bytes = 0;
    CrashPoint crash_point = CrashPoint::kNone;
  };

  const int index_;
  ShardConfig cfg_;
  std::optional<RuntimeHost> host_;
  MpscRing<ShardItem> ring_;
  std::thread thread_;

  // Worker-local (no synchronization needed).
  TimeNs local_now_ = 0;
  std::uint64_t refill_seq_ = 1u << 20;
  std::size_t pops_since_ckpt_ = 0;
  std::vector<bool> rt_leaf_;

  // Flags and the stats segment.
  std::atomic<bool> abort_{false};
  std::atomic<bool> stall_{false};
  std::atomic<bool> dead_{false};
  std::atomic<ShardDeathPoint> death_point_{ShardDeathPoint::kNone};
  std::atomic<std::uint64_t> kill_countdown_{0};
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<std::uint64_t> popped_{0};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> crash_lost_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<TimeNs> max_rt_delay_{0};
  std::atomic<std::uint64_t> sent_total_{0};

  // Pause handshake.  pause_req_ is atomic so the worker's loop-top
  // check stays lock-free; writes happen under pause_mu_ for the cv.
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  std::atomic<bool> pause_req_{false};
  bool paused_ = false;

  // Control mailbox.
  std::mutex control_mu_;
  std::vector<ControlMsg> control_;
  std::atomic<bool> control_pending_{false};

  // Producer frontiers (pointer-stable; registered before start()).
  std::vector<std::unique_ptr<std::atomic<TimeNs>>> frontiers_;
};

}  // namespace hfsc
