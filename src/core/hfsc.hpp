// H-FSC — the Hierarchical Fair Service Curve scheduler (paper Section IV).
//
// Each leaf class with a real-time service curve maintains a deadline
// curve D, an eligible curve E and a cumulative real-time service counter
// c; the head packet carries
//
//     e = E^{-1}(c)          d = D^{-1}(c + len)
//
// (Fig. 5).  Every class additionally maintains a virtual curve V, a total
// service counter w (both criteria) and a virtual time v = V^{-1}(w)
// (Fig. 6).  get_packet (Fig. 4) serves by the *real-time criterion* —
// smallest deadline among eligible leaves — whenever some leaf is
// eligible, which is exactly when letting link-sharing decide could
// endanger a leaf's guarantee; otherwise it applies the *link-sharing
// criterion*, descending from the root picking the active child with the
// smallest virtual time (SSF with system virtual time
// (v_min + v_max) / 2, Section IV-C).
//
// Guarantees (Section VI): every leaf's real-time curve is met to within
// one maximum-length packet time (Theorems 1, 2), independent of the
// leaf's depth; interior classes receive service that tracks the FSC
// link-sharing model with bounded discrepancy; a class is never punished
// for having used excess service.
//
// Extension beyond the paper's algorithm description: an optional
// *upper-limit* service curve per class caps the service a class may take
// through the link-sharing criterion (the feature the authors shipped in
// their ALTQ/NetBSD implementation).  A class whose fit time f = U^{-1}(w)
// lies in the future, or whose active children are all skipped, is
// skipped by the link-sharing criterion; real-time guarantees are
// unaffected.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/eligible_set.hpp"
#include "curve/piecewise.hpp"
#include "curve/runtime_curve.hpp"
#include "sched/class_queues.hpp"
#include "sched/scheduler.hpp"
#include "util/errors.hpp"
#include "util/indexed_heap.hpp"
#include "util/slab.hpp"
#include "util/types.hpp"

namespace hfsc {

struct AuditReport;  // core/auditor.hpp

// Which criterion released a packet; exposed for instrumentation.
enum class Criterion { kRealTime, kLinkShare };

struct ClassConfig {
  // Real-time curve (leaf classes only): guaranteed regardless of the
  // rest of the hierarchy.  Zero means the class has no guarantee of its
  // own and is served purely by link-sharing.
  ServiceCurve rt{};
  // Link-sharing curve: the class's share in the FSC link-sharing model.
  // Zero means the class never competes for excess bandwidth (it must
  // then have an rt curve to receive any service at all).
  ServiceCurve ls{};
  // Upper-limit curve (extension, see header comment).  Zero = unlimited.
  ServiceCurve ul{};

  // Convenience: one curve used for both rt and ls — the configuration
  // the paper analyses ("we choose to use the same curve for both the
  // real-time and link-sharing policies", Section IV-A).
  static ClassConfig both(const ServiceCurve& sc) {
    return ClassConfig{sc, sc, ServiceCurve{}};
  }
  static ClassConfig link_share_only(const ServiceCurve& sc) {
    return ClassConfig{ServiceCurve{}, sc, ServiceCurve{}};
  }
  static ClassConfig real_time_only(const ServiceCurve& sc) {
    return ClassConfig{sc, ServiceCurve{}, ServiceCurve{}};
  }
};

// How an interior class's system virtual time is derived from its active
// children.  The paper (Section IV-C) uses the midpoint (v_min + v_max)/2
// and notes that using either extreme alone makes the sibling virtual-time
// discrepancy grow with the number of siblings; kMin/kMax exist for the
// E8 ablation experiment.
enum class SystemVtPolicy { kMin, kMax, kMidpoint };

class Hfsc final : public Scheduler {
 public:
  // Packets longer than this are dropped-and-counted on arrival (a length
  // that large is a corrupted event, and admitting it would distort the
  // byte accounting for everyone else).  Override with set_max_packet_len.
  static constexpr Bytes kDefaultMaxPacketLen = kMaxSanePacketLen;

  // Throws Error{kInvalidArgument} if link_rate == 0.
  explicit Hfsc(RateBps link_rate,
                SystemVtPolicy vt_policy = SystemVtPolicy::kMidpoint);

  // --- Control plane ----------------------------------------------------
  // One class mutation.  The named mutators below, Txn and the runtime's
  // journal all speak this type, and every op, direct or batched, is
  // checked by the same rules and admission delta (core/txn.cpp).
  struct Op {
    enum class Kind { kAdd, kChange, kDelete, kQueueLimit };
    Kind kind = Kind::kAdd;
    ClassId parent = kRootClass;  // kAdd
    ClassId cls = kRootClass;     // the others (kAdd ignores it)
    ClassConfig cfg{};            // kAdd / kChange
    TimeNs now = 0;               // kChange
    std::size_t limit = 0;        // kQueueLimit
  };

  // Applies one op now; returns the new class's id for kAdd, op.cls
  // otherwise.  Throws Error, changing nothing, on a broken rule (see the
  // mutators) or an admission rejection.
  ClassId apply(const Op& op);

  // Adds a class under `parent` (kRootClass for top level).  Only leaf
  // classes may receive packets; interior classes' rt curves are ignored
  // (the paper's architecture applies the real-time criterion to leaves
  // only).  A class that has queued packets must remain a leaf.
  // Throws Error on misuse: unknown/deleted parent (kInvalidClass),
  // parent with queued packets (kHasBacklog), interior parent without an
  // ls curve (kMissingCurve), unsupported curve shapes
  // (kUnsupportedCurve), or a config with neither rt nor ls
  // (kMissingCurve).
  ClassId add_class(ClassId parent, ClassConfig cfg) {
    return apply({.kind = Op::Kind::kAdd, .parent = parent, .cfg = cfg});
  }

  // Caps a leaf's queue at `max_packets` (0 = unlimited, the default).
  // Arrivals beyond the cap are tail-dropped and counted.  Throws
  // Error{kInvalidClass} for an unknown, root, or deleted class.
  void set_queue_limit(ClassId cls, std::size_t max_packets) {
    apply({.kind = Op::Kind::kQueueLimit, .cls = cls, .limit = max_packets});
  }

  // Replaces a class's service curves at runtime (the authors'
  // implementation exposes this as HFSC_CHANGE_SC).  Runtime curves are
  // re-anchored at the class's current operating point — (now, c) for the
  // deadline/eligible pair, (v, w) for the virtual curve — so guarantees
  // resume from the present instead of re-crediting the past.  An
  // interior class must keep a link-sharing curve.  Throws Error on
  // misuse (see add_class).
  void change_class(TimeNs now, ClassId cls, ClassConfig cfg) {
    apply({.kind = Op::Kind::kChange, .cls = cls, .cfg = cfg, .now = now});
  }

  // Deletes a leaf class: queued packets are dropped (counted against the
  // class), the class is detached from the tree and its id becomes
  // invalid.  Interior classes must have their children deleted first
  // (Error{kHasChildren} otherwise).
  void delete_class(ClassId cls) {
    apply({.kind = Op::Kind::kDelete, .cls = cls});
  }

  bool is_deleted(ClassId cls) const { return hot_[cls].deleted(); }

  // --- Transactional reconfiguration --------------------------------------
  // A Txn stages any number of ops and applies them atomically at
  // commit(): each op is checked by the direct mutators' rules against a
  // shadow of the hierarchy as the ops before it leave it, and the
  // batch's admission delta is checked once, so a failing commit throws
  // hfsc::Error and leaves the live scheduler bit-for-bit untouched.
  // Staged adds return the ids the classes will have after a successful
  // commit; later staged ops may refer to them.  Staging itself never
  // validates — all errors surface at commit.
  //
  // Data-path traffic may keep flowing while a Txn is open; commit
  // re-validates against the state at commit time.  Adding classes
  // directly (outside the Txn) while one is open invalidates any staged
  // ids, which commit detects (Error{kTxnInvalid}).
  class Txn {
   public:
    explicit Txn(Hfsc& sched);
    ~Txn();  // rolls back if still open
    Txn(Txn&&) noexcept;
    Txn(const Txn&) = delete;
    Txn& operator=(const Txn&) = delete;
    Txn& operator=(Txn&&) = delete;

    // Stages an op; returns the id the class will have on commit for
    // kAdd, op.cls otherwise.
    ClassId stage(const Op& op);
    ClassId add_class(ClassId parent, ClassConfig cfg) {
      return stage({.kind = Op::Kind::kAdd, .parent = parent, .cfg = cfg});
    }
    void change_class(TimeNs now, ClassId cls, ClassConfig cfg) {
      stage({.kind = Op::Kind::kChange, .cls = cls, .cfg = cfg, .now = now});
    }
    void delete_class(ClassId cls) {
      stage({.kind = Op::Kind::kDelete, .cls = cls});
    }
    void set_queue_limit(ClassId cls, std::size_t max_packets) {
      stage({.kind = Op::Kind::kQueueLimit, .cls = cls, .limit = max_packets});
    }

    // Checks the whole batch against a shadow of the live hierarchy,
    // then applies it.  Throws hfsc::Error on the first invalid op or on
    // admission rejection, leaving the scheduler untouched and the Txn
    // open (fix or rollback).  On success the Txn is closed.
    void commit();
    // Discards all staged ops and closes the Txn.
    void rollback() noexcept;

    bool open() const noexcept { return open_; }
    std::size_t num_ops() const noexcept { return ops_.size(); }

   private:
    Hfsc* s_;
    std::vector<Op> ops_;
    std::size_t base_classes_;  // num_classes() at begin; id prediction base
    std::size_t staged_adds_ = 0;  // kAdd entries in ops_
    bool open_ = true;
  };

  // Opens a transaction.  Multiple may be staged concurrently, but commits
  // are validated against the live state, last-committer-wins.
  Txn begin() { return Txn(*this); }

  // --- Admission-gated overload protection --------------------------------
  // Once enabled, every mutation (direct or transactional) that would make
  // the sum of leaf real-time curves exceed the linear link curve of
  // `link_rate` throws Error{kAdmissionRejected} and changes nothing (the
  // paper's feasibility condition, Section II).  Enabling validates the
  // current hierarchy first and throws — leaving admission disabled — if
  // it is already infeasible.  Only leaf classes' rt curves count: an
  // interior class's rt curve is inert until it becomes a leaf again.
  void enable_admission_control(RateBps link_rate);
  void enable_admission_control() { enable_admission_control(link_rate_); }
  // The same feasibility check without the throw: returns false —
  // changing nothing and counting no rejection — when the hierarchy does
  // not fit `link_rate`.
  bool try_enable_admission_control(RateBps link_rate);
  void disable_admission_control() noexcept { admission_.reset(); }
  bool admission_enabled() const noexcept { return admission_ != nullptr; }
  // Fraction of the admission link's long-term rate reserved; 0 when
  // admission control is disabled.
  double admission_utilization() const noexcept {
    return admission_ ? admission_->utilization() : 0.0;
  }
  // Mutations refused by the admission check so far.
  std::uint64_t admission_rejections() const noexcept {
    return admission_rejections_;
  }
  const AdmissionControl* admission_control() const noexcept {
    return admission_.get();
  }

  // --- Starvation watchdog -------------------------------------------------
  // Flags any backlogged leaf that has received no service for `horizon`
  // nanoseconds (0 disables).  Detection is passive: dequeue() scans at
  // most every horizon/4 of clock advance, counts newly starved classes in
  // starvation_events(), and starved_classes() reports the current set on
  // demand.  Starvation is legal under upper limits or rt-only curves; the
  // watchdog is an observability hook, not an enforcement mechanism.
  void enable_starvation_watchdog(TimeNs horizon) noexcept {
    starvation_horizon_ = horizon;
    next_starvation_scan_ = 0;
  }
  TimeNs starvation_horizon() const noexcept { return starvation_horizon_; }
  std::uint64_t starvation_events() const noexcept {
    return starvation_events_;
  }
  // Backlogged leaves with no service since `now - horizon` (empty when
  // the watchdog is disabled).
  std::vector<ClassId> starved_classes(TimeNs now) const;

  // Data path — never throws.  A packet for an unknown/deleted/interior
  // class, a zero-length packet, or one above the maximum length is
  // dropped and counted in data_path_counters(); a `now` that runs
  // backwards is clamped to the last time seen (and counted) so internal
  // curves stay monotone under clock anomalies.  dequeue() is Fig. 4's
  // get_packet and the only serve path: one real-time-or-link-sharing
  // decision per packet.
  void enqueue(TimeNs now, Packet pkt) override;
  std::optional<Packet> dequeue(TimeNs now) override;

  // Push-out buffer management (runtime/governor.hpp): drops the *newest*
  // queued packet of `cls`, counted against the class like any other
  // drop.  Data-path semantics — never throws; returns false when `cls`
  // is not a live backlogged leaf.  The head packet is untouched, so the
  // cached eligible time and deadline stay valid; when the last packet
  // goes the leaf leaves the eligible set and the link-sharing tree
  // exactly as if it had drained.
  bool drop_tail(ClassId cls);

  // Bytes currently queued for one leaf (O(1); governor thresholds).
  Bytes queued_bytes(ClassId cls) const noexcept {
    return queues_.bytes_in(cls);
  }

  void set_max_packet_len(Bytes len) {
    ensure(len > 0, Errc::kInvalidArgument, "max packet length must be > 0");
    max_packet_len_ = len;
  }
  Bytes max_packet_len() const noexcept { return max_packet_len_; }
  const DataPathCounters& data_path_counters() const noexcept {
    return counters_;
  }

  // Opt-in self-check: every `every_n` public operations (enqueue,
  // dequeue, mutators) run the invariant auditor (core/auditor.hpp) and
  // throw Error{kInvariantViolation} on the first inconsistency.
  // 0 disables (the default).
  void enable_self_check(std::size_t every_n) noexcept {
    self_check_every_ = every_n;
  }
  std::uint64_t self_checks_run() const noexcept { return self_checks_run_; }

  std::size_t backlog_packets() const noexcept override {
    return queues_.packets();
  }
  Bytes backlog_bytes() const noexcept override { return queues_.bytes(); }
  TimeNs next_wakeup(TimeNs now) const noexcept override;
  DataPathCounters counters() const noexcept override { return counters_; }
  std::uint64_t class_drops(ClassId cls) const noexcept override {
    return cls < nodes_.size() ? nodes_[cls].pkts_dropped : 0;
  }
  std::string_view name() const noexcept override { return "H-FSC"; }

  // --- Introspection (tests, experiments) ---------------------------------
  RateBps link_rate() const noexcept { return link_rate_; }
  std::size_t num_classes() const noexcept { return nodes_.size(); }
  bool is_leaf(ClassId cls) const { return nodes_[cls].children.empty(); }
  ClassId parent_of(ClassId cls) const { return hot_[cls].parent; }
  const ClassConfig& config_of(ClassId cls) const { return nodes_[cls].cfg; }
  // Total service (both criteria) delivered to the class's subtree.
  Bytes total_work(ClassId cls) const { return hot_[cls].total; }
  // Service delivered to a leaf by the real-time criterion.
  Bytes rt_work(ClassId cls) const { return hot_[cls].cumul; }
  TimeNs vtime(ClassId cls) const { return hot_[cls].vt; }
  bool active(ClassId cls) const { return hot_[cls].active(); }
  // Packets / bytes delivered and dropped, kernel-statistics style.
  std::uint64_t packets_sent(ClassId cls) const {
    return nodes_[cls].pkts_sent;
  }
  std::uint64_t packets_dropped(ClassId cls) const {
    return nodes_[cls].pkts_dropped;
  }
  Bytes bytes_dropped(ClassId cls) const { return nodes_[cls].bytes_dropped; }
  std::size_t queue_limit_of(ClassId cls) const {
    return nodes_[cls].queue_limit;
  }
  std::uint64_t rt_selections() const noexcept { return rt_selections_; }
  std::uint64_t ls_selections() const noexcept { return ls_selections_; }
  // Criterion that released the most recent packet.
  Criterion last_criterion() const noexcept { return last_criterion_; }

 private:
  // --- Struct-of-arrays per-class state ------------------------------------
  // The dequeue hot path touches, per served packet, the leaf's cached
  // times / work counters / curve-presence flags plus the same fields of
  // every ancestor.  Exactly those fields are packed into one 64-byte
  // line per class in `hot_` (indexed by dense ClassId, parallel to
  // `nodes_`), and the four runtime curves into a second parallel slab
  // `curves_`, so a serve touches a couple of predictable cache lines per
  // class instead of chasing through a ~600-byte Node.  The line also
  // caches what the link-sharing descent and enqueue would otherwise read
  // from the Node: the parent's min-(vt, idx) active child (`ls_min`)
  // and whether the class has children or is deleted, so ls_select reads
  // one line per level; kDeleted is the only record of a tombstone.
  // Everything else — configuration, children lists, per-parent heaps,
  // statistics — stays in the cold Node.
  struct alignas(64) HotClass {
    TimeNs e = 0;     // eligible time of the head packet
    TimeNs d = 0;     // deadline of the head packet
    TimeNs vt = 0;    // virtual time v = V^{-1}(w)
    TimeNs fit = 0;   // f = U^{-1}(w); may use link-sharing once fit <= now
    Bytes cumul = 0;  // c: service received via the real-time criterion
    Bytes total = 0;  // w: total service received (both criteria)
    ClassId parent = kRootClass;
    std::uint32_t idx_in_parent = 0;  // dense index in parent's heap
    // As a parent: the ClassId at the top of active_children (the
    // (vt, idx)-minimal active child), 0 when none is active.
    ClassId ls_min = kRootClass;

    // Curve-presence flags cached from cfg (refresh_flags) plus the
    // active, interior and deleted bits, packed into one byte so the hot
    // path never probes the three ServiceCurve structs or the Node.
    // kActive: leaf = backlogged with an ls curve; interior = has an
    // active child.  kInterior: has children.  kDeleted: tombstoned.
    static constexpr std::uint8_t kHasRt = 1;
    static constexpr std::uint8_t kHasLs = 2;
    static constexpr std::uint8_t kHasUl = 4;
    static constexpr std::uint8_t kActive = 8;
    static constexpr std::uint8_t kInterior = 16;
    static constexpr std::uint8_t kDeleted = 32;
    std::uint8_t flags = 0;

    bool has_rt() const noexcept { return (flags & kHasRt) != 0; }
    bool has_ls() const noexcept { return (flags & kHasLs) != 0; }
    bool has_ul() const noexcept { return (flags & kHasUl) != 0; }
    bool active() const noexcept { return (flags & kActive) != 0; }
    bool interior() const noexcept { return (flags & kInterior) != 0; }
    bool deleted() const noexcept { return (flags & kDeleted) != 0; }
    bool live_leaf() const noexcept { return !interior() && !deleted(); }
    // The class's own upper limit bars link-sharing service at `now`.
    bool blocked(TimeNs now) const noexcept { return has_ul() && fit > now; }
    void set_flag(std::uint8_t bit, bool on) noexcept {
      flags = static_cast<std::uint8_t>(on ? (flags | bit) : (flags & ~bit));
    }
    void set_active(bool on) noexcept { set_flag(kActive, on); }
    void refresh_flags(const ClassConfig& cfg) noexcept {
      flags = static_cast<std::uint8_t>(
          (flags & (kActive | kInterior | kDeleted)) |
          (cfg.rt.is_zero() ? 0 : kHasRt) | (cfg.ls.is_zero() ? 0 : kHasLs) |
          (cfg.ul.is_zero() ? 0 : kHasUl));
    }
  };
  static_assert(sizeof(HotClass) == 64,
                "hot per-class state must stay one cache line");

  static_assert(sizeof(RuntimeCurve) == 48,
                "a runtime curve is its six coefficients and nothing else");

  // Runtime curves of one class, parallel to hot_ (see HotClass): four
  // 48-byte curves, 192 bytes, three cache lines.  Member order is
  // deliberate: charge_total() reads vc (and uc when an upper limit
  // exists) for EVERY class on the leaf-to-root walk, while dc/ec are only
  // touched for the served rt leaf — so the per-level curves lead the
  // struct and share its first two cache lines.
  struct ClassCurves {
    RuntimeCurve vc;  // virtual curve V
    RuntimeCurve uc;  // upper-limit curve U (extension)
    RuntimeCurve dc;  // deadline curve D
    RuntimeCurve ec;  // eligible curve E
  };

  // Cold per-class state: read at most once per packet on the data path.
  struct Node {
    std::vector<ClassId> children;
    ClassConfig cfg;

    // As a parent: heap of active children keyed by vt (ids are
    // idx_in_parent, tags the children's ClassIds), plus the watermark
    // used for the system virtual time (v_min + v_max)/2.
    IndexedHeap<TimeNs> active_children;
    TimeNs vt_watermark = 0;

    // Buffer management and statistics.
    std::size_t queue_limit = 0;  // max queued packets; 0 = unlimited
    std::uint64_t pkts_sent = 0;
    std::uint64_t pkts_dropped = 0;
    Bytes bytes_dropped = 0;

    // Starvation watchdog: last time the leaf was served or became
    // backlogged, and whether the current starvation episode was already
    // counted (reset on service).
    TimeNs last_progress = 0;
    bool starved_flagged = false;
  };

  // System virtual time of interior class p (Section IV-C).
  TimeNs system_vt(const Node& p) const noexcept;

  // Fig. 5(a): fold the rt curve into D and E at (now, c) and recompute
  // (e, d) for the head packet.
  void update_ed(ClassId cls, TimeNs now);
  // Fig. 5(b): recompute d only (head changed after a link-sharing
  // service; c did not move, so e is unchanged).
  void update_d(ClassId cls);
  // Fig. 6: activate `cls` and any passive ancestors in the link-sharing
  // tree.
  void activate_ls_path(ClassId cls, TimeNs now);
  // Charge `len` bytes of total service along the path to the root,
  // updating virtual times and fit times.
  void charge_total(ClassId cls, Bytes len, TimeNs now);
  // Leaf drained: remove from the rt set and deactivate the path as far
  // up as subtrees empty out.
  void set_passive(ClassId cls);
  // Writes parent's top active child into its cached ls_min when `before`
  // (the top before a heap change) no longer names it.
  void note_top(ClassId parent, const Node& p, ClassId before) noexcept;

  // Link-sharing descent (Fig. 4 get_packet, else-branch), read-only:
  // at each level the smallest-(vt, idx) child not upper-limit blocked,
  // where a class is blocked by its own limit or when all its active
  // children are.  Follows the cached ls_min while it is not blocked, and
  // climbs out of a blocked subtree by parent links, never recursing.
  // Keeps the earliest fit time it passed over in ls_next_fit_.
  std::optional<ClassId> ls_select(TimeNs now);
  // By a walk of its heap, the least unblocked active child of `parent`
  // ordering after `after` (0 = no bound), or 0; folds the fits of the k
  // blocked children before it into ls_next_fit_.  O(k).
  ClassId ls_first_fit(ClassId parent, ClassId after, TimeNs now);

  Packet serve(ClassId leaf, Criterion crit, TimeNs now);

  // Validates a ClassConfig for a class with/without children; throws.
  static void check_config(const ClassConfig& cfg, bool leaf);
  // A fresh admission aggregate of the rt curves of all live leaves — the
  // set the admission check gates — unchecked (callers test fits() once).
  AdmissionControl leaf_aggregate(RateBps link_rate) const;

  // The control plane's three steps (core/txn.cpp).  A Shadow is the
  // hierarchy as the ops checked so far leave it; with nothing staged it
  // reads straight through to the live tree.
  struct Shadow;
  // An admission delta: the rt curves of classes that stop being rt
  // leaves (`out`) and of those that become rt leaves (`in`).
  struct AdmissionDelta {
    std::vector<ServiceCurve> out;
    std::vector<ServiceCurve> in;
  };
  // The rules: throws Error on the first one `op` breaks against `v`.
  // With `delta`, also appends the op's admission delta to it.
  void check(const Shadow& v, const Op& op, AdmissionDelta* delta) const;
  // Moves the admission aggregate by `d`, or counts the rejection and
  // throws Error{kAdmissionRejected}, leaving the aggregate as it was.
  // `batch` (a Txn's final shadow; null for a direct op) picks the
  // message.  Requires admission to be enabled.
  void admit(const AdmissionDelta& d, const Shadow* batch);
  // Cold path of a refused admission: the first class, in id order, whose
  // rt curve overflows when the rt leaves of `v` (the live tree when null)
  // are admitted one at a time in id order; kRootClass when all fit.
  ClassId first_misfit(const Shadow* v, RateBps link_rate) const;
  // Applies an op that passed check(); validates nothing.
  ClassId apply_unchecked(const Op& op);

  // Scans for newly starved leaves; rate-limited to every horizon/4.
  void maybe_watchdog(TimeNs now);
  // Clamps a data-path clock that ran backwards, counting the anomaly.
  TimeNs clamp_now(TimeNs now) noexcept {
    if (now < last_now_) {
      ++counters_.clock_regressions;
      return last_now_;
    }
    last_now_ = now;
    return now;
  }
  void maybe_self_check();

  RateBps link_rate_;
  SystemVtPolicy vt_policy_;
  std::vector<Node> nodes_;       // nodes_[0] = root (cold state)
  std::vector<HotClass> hot_;     // parallel to nodes_ (hot slab)
  std::vector<ClassCurves> curves_;  // parallel to nodes_ (curve slab)
  ClassQueues queues_;
  // Real-time requests (e, d) of the backlogged rt leaves (Section V).
  DualHeapEligibleSet rt_requests_;
  TimeNs ls_next_fit_ = kTimeInfinity;
  std::uint64_t rt_selections_ = 0;
  std::uint64_t ls_selections_ = 0;
  Criterion last_criterion_ = Criterion::kLinkShare;

  // Robustness state (see util/errors.hpp and core/auditor.hpp).
  Bytes max_packet_len_ = kDefaultMaxPacketLen;
  TimeNs last_now_ = 0;  // data-path monotonic-clock watermark
  DataPathCounters counters_;
  std::size_t self_check_every_ = 0;
  std::uint64_t op_count_ = 0;
  std::uint64_t self_checks_run_ = 0;
  bool in_self_check_ = false;

  // Admission / transaction / watchdog state.
  std::unique_ptr<AdmissionControl> admission_;
  std::uint64_t admission_rejections_ = 0;
  TimeNs starvation_horizon_ = 0;  // 0 = watchdog off
  TimeNs next_starvation_scan_ = 0;
  std::uint64_t starvation_events_ = 0;
  // How far Txn::commit has written nodes_, hot_ and curves_.
  WrittenMark slab_marks_[3];

  friend AuditReport audit(const Hfsc&);
  // core/checkpoint.hpp
  friend void checkpoint(const Hfsc&, std::string&, std::string_view);
  friend Hfsc restore_checkpoint(std::string_view, std::string*);
};

}  // namespace hfsc
