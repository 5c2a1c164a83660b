// Hfsc::Txn — transactional live reconfiguration.
//
// A Txn records mutations without touching the scheduler.  commit()
// replays the whole batch onto a Shadow — a sparse overlay on the live
// hierarchy holding only the classes the batch touches (parent links,
// configs, child counts, backlog flags) plus its staged adds — enforcing
// exactly the rules the live mutators enforce.  When admission control is
// on it then applies only the batch's admission delta: each touched class
// releases its live rt-leaf curve and admits its final one (a parent that
// turns interior drops out, one that turns back into a leaf re-enters),
// and the exact aggregate is checked against the link curve once.  A
// commit therefore costs O(ops * log n + B) for B distinct rt knee times,
// whatever the size of the hierarchy.  Only after every op and the
// admission check validate does commit() apply the batch through the live
// mutators, so any hfsc::Error leaves the scheduler — and the admission
// aggregate — bit-for-bit untouched (tests/test_txn_atomicity_fuzz.cpp
// proves this by state digest over >= 10k failing batches).
//
// Ids for staged add_class calls are predicted: the live scheduler
// assigns ids densely (nodes are never erased from the vector, only
// tombstoned), so the k-th staged add gets num_classes() + k.  The
// prediction is checked at commit; direct adds made while the Txn was
// open make it stale and commit throws Error{kTxnInvalid}.

#include <unordered_map>

#include "core/hfsc.hpp"

namespace hfsc {

struct Hfsc::Txn::Op {
  enum class Kind { kAdd, kChange, kDelete, kQueueLimit };
  Kind kind;
  ClassId cls = 0;  // kAdd: the parent; otherwise the target class
  ClassConfig cfg{};
  TimeNs now = 0;           // kChange re-anchor time
  std::size_t limit = 0;    // kQueueLimit
};

// The hierarchy as the batch so far leaves it, as an overlay on the live
// tree: an existing class is copied in on first use, staged adds are
// appended with ids from the live class count on.  Every other class
// reads through to the scheduler, so a commit costs O(ops), not
// O(classes).
struct Hfsc::Txn::Shadow {
  struct SNode {
    ClassId parent = kRootClass;
    ClassConfig cfg{};
    std::uint32_t children = 0;
    bool deleted = false;
    bool backlogged = false;

    bool rt_leaf() const noexcept {
      return !deleted && children == 0 && !cfg.rt.is_zero();
    }
  };

  explicit Shadow(const Hfsc& sched) : s(&sched) {}

  const Hfsc* s;
  std::unordered_map<ClassId, SNode> touched;  // existing classes
  std::vector<SNode> added;                    // ids base() + i

  std::size_t base() const noexcept { return s->nodes_.size(); }
  std::size_t size() const noexcept { return base() + added.size(); }

  // Class c < size() as the batch leaves it; an existing class is
  // copied in from the live tree on first use.
  SNode& at(ClassId c) {
    if (c >= base()) return added[c - base()];
    const auto [it, first_use] = touched.try_emplace(c);
    if (first_use) {
      const Node& n = s->nodes_[c];
      it->second = SNode{s->hot_[c].parent, n.cfg,
                         static_cast<std::uint32_t>(n.children.size()),
                         n.deleted, s->queues_.has(c)};
    }
    return it->second;
  }
  bool live(ClassId c) {
    return c > 0 && c < size() && !at(c).deleted;
  }
};

Hfsc::Txn::Txn(Hfsc& sched) : s_(&sched), base_classes_(sched.num_classes()) {}

Hfsc::Txn::~Txn() {
  if (open_) rollback();
}

Hfsc::Txn::Txn(Txn&& other) noexcept
    : s_(other.s_), ops_(std::move(other.ops_)),
      base_classes_(other.base_classes_), staged_adds_(other.staged_adds_),
      open_(other.open_) {
  other.open_ = false;
}

ClassId Hfsc::Txn::replay(Shadow& sh, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kAdd: {
      ensure(op.cls < sh.size() &&
                 (op.cls == kRootClass || sh.live(op.cls)),
             Errc::kInvalidClass, "unknown or deleted parent class");
      Shadow::SNode& parent = sh.at(op.cls);
      ensure(!parent.backlogged, Errc::kHasBacklog,
             "cannot add children under a class that queues packets");
      ensure(op.cls == kRootClass || !parent.cfg.ls.is_zero(),
             Errc::kMissingCurve,
             "interior classes need a link-sharing curve");
      check_config(op.cfg, /*leaf=*/true);
      ++parent.children;
      Shadow::SNode sn;
      sn.parent = op.cls;
      sn.cfg = op.cfg;
      sh.added.push_back(sn);  // invalidates `parent` if it is a staged add
      return static_cast<ClassId>(sh.size() - 1);
    }
    case Op::Kind::kChange: {
      ensure(sh.live(op.cls), Errc::kInvalidClass, "unknown or deleted class");
      Shadow::SNode& sn = sh.at(op.cls);
      check_config(op.cfg, /*leaf=*/sn.children == 0);
      sn.cfg = op.cfg;
      return op.cls;
    }
    case Op::Kind::kDelete: {
      ensure(sh.live(op.cls), Errc::kInvalidClass, "unknown or deleted class");
      Shadow::SNode& sn = sh.at(op.cls);
      ensure(sn.children == 0, Errc::kHasChildren, "delete children first");
      sn.deleted = true;
      sn.backlogged = false;
      --sh.at(sn.parent).children;
      return op.cls;
    }
    case Op::Kind::kQueueLimit: {
      ensure(sh.live(op.cls), Errc::kInvalidClass, "unknown or deleted class");
      return op.cls;
    }
  }
  throw Error(Errc::kTxnInvalid, "corrupt staged op");
}

ClassId Hfsc::Txn::add_class(ClassId parent, ClassConfig cfg) {
  ensure(open_, Errc::kTxnInvalid, "transaction already closed");
  ops_.push_back(Op{Op::Kind::kAdd, parent, cfg, 0, 0});
  return static_cast<ClassId>(base_classes_ + staged_adds_++);
}

void Hfsc::Txn::change_class(TimeNs now, ClassId cls, ClassConfig cfg) {
  ensure(open_, Errc::kTxnInvalid, "transaction already closed");
  ops_.push_back(Op{Op::Kind::kChange, cls, cfg, now, 0});
}

void Hfsc::Txn::delete_class(ClassId cls) {
  ensure(open_, Errc::kTxnInvalid, "transaction already closed");
  ops_.push_back(Op{Op::Kind::kDelete, cls, ClassConfig{}, 0, 0});
}

void Hfsc::Txn::set_queue_limit(ClassId cls, std::size_t max_packets) {
  ensure(open_, Errc::kTxnInvalid, "transaction already closed");
  ops_.push_back(Op{Op::Kind::kQueueLimit, cls, ClassConfig{}, 0, max_packets});
}

std::size_t Hfsc::Txn::num_ops() const noexcept { return ops_.size(); }

void Hfsc::Txn::rollback() noexcept {
  ops_.clear();
  staged_adds_ = 0;
  open_ = false;
}

void Hfsc::Txn::admit_batch(Shadow& sh) {
  // Only the touched classes can change rt-leaf status or curve: each
  // leaves the aggregate with its live curve and re-enters with its final
  // one.
  std::vector<ServiceCurve> out;
  std::vector<ServiceCurve> in;
  for (const auto& [c, sn] : sh.touched) {
    const bool was_rt_leaf = s_->live(c) && s_->nodes_[c].children.empty() &&
                             s_->hot_[c].has_rt();
    const ServiceCurve& old_rt = s_->nodes_[c].cfg.rt;
    if (was_rt_leaf && sn.rt_leaf() && old_rt == sn.cfg.rt) continue;
    if (was_rt_leaf) out.push_back(old_rt);
    if (sn.rt_leaf()) in.push_back(sn.cfg.rt);
  }
  for (const Shadow::SNode& sn : sh.added) {
    if (sn.rt_leaf()) in.push_back(sn.cfg.rt);
  }
  if (s_->apply_admission_delta(out, in)) return;

  // Cold path: name the first class, in id order, whose rt curve
  // overflows the final state's aggregate.
  AdmissionControl scan(s_->admission_->link_rate());
  for (ClassId c = 1; c < sh.size(); ++c) {
    const Shadow::SNode& sn = sh.at(c);
    if (!sn.rt_leaf() || scan.admit(sn.cfg.rt)) continue;
    throw Error(Errc::kAdmissionRejected,
                "committing this batch would put real-time curve " +
                    to_string(sn.cfg.rt) + " (class " + std::to_string(c) +
                    ") above the link curve; shrink the batch's rt "
                    "curves or raise the admission link rate");
  }
  throw Error(Errc::kAdmissionRejected,
              "committing this batch would put the real-time curves above "
              "the link curve");
}

void Hfsc::Txn::commit() {
  ensure(open_, Errc::kTxnInvalid, "transaction already closed");
  ensure(s_->num_classes() == base_classes_ || staged_adds_ == 0,
         Errc::kTxnInvalid,
         "classes were added outside the transaction since begin(); the "
         "staged ids are stale — rollback and re-stage");

  // Phase 1: validate the whole batch against a shadow of the live tree.
  // Any throw here (or in the admission check below) leaves the scheduler
  // untouched and the transaction open.
  Shadow sh(*s_);
  for (const Op& op : ops_) replay(sh, op);

  // Phase 2: admission over the final state — the sum of the surviving
  // leaves' rt curves must stay below the link curve (Section II).  The
  // aggregate takes the batch's delta here; a misfit restores it.
  if (s_->admission_) admit_batch(sh);

  // Phase 3: apply.  Validation mirrored every rule the live mutators
  // enforce, so none of these calls can throw; per-op admission gating
  // and self-checks are suspended for the batch (the final state was
  // validated above, and intermediate states are transient).
  s_->in_txn_apply_ = true;
  try {
    for (const Op& op : ops_) {
      switch (op.kind) {
        case Op::Kind::kAdd:
          s_->add_class(op.cls, op.cfg);
          break;
        case Op::Kind::kChange:
          s_->change_class(op.now, op.cls, op.cfg);
          break;
        case Op::Kind::kDelete:
          s_->delete_class(op.cls);
          break;
        case Op::Kind::kQueueLimit:
          s_->set_queue_limit(op.cls, op.limit);
          break;
      }
    }
  } catch (...) {
    s_->in_txn_apply_ = false;
    throw;  // unreachable unless the scheduler was already corrupt
  }
  s_->in_txn_apply_ = false;
  open_ = false;
  ops_.clear();
  staged_adds_ = 0;
  s_->maybe_self_check();
}

}  // namespace hfsc
