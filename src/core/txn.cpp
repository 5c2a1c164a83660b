// The control plane: every class mutation, direct or batched.
//
// An Hfsc::Op takes three steps, each written once:
//
//   check   the rules (Hfsc::check) read the tree through a Shadow — a
//           sparse overlay on the live hierarchy holding only the classes
//           staged ops have touched (parent links, configs, child counts,
//           backlog flags) plus the staged adds.  With nothing staged it
//           reads straight through to the live tree.  The same pass
//           works out the op's admission delta against that view: each
//           class that stops being an rt leaf releases its curve (a
//           parent that turns interior, a deleted leaf), each class that
//           becomes one admits its curve (an added leaf, a parent that
//           turns back into a leaf), and a changed leaf swaps them.
//   admit   when admission control is on, Hfsc::admit moves the
//           aggregate by the delta and checks it against the link curve
//           once, or throws leaving it as it was (Section II).
//   apply   Hfsc::apply_unchecked (core/hfsc.cpp) changes the tree.
//
// A direct mutator runs the three steps for one op on an empty shadow,
// so it allocates nothing beyond the delta.  Txn::commit checks every op
// against a shadow staged with the ops before it, admits the summed
// delta of the batch once, and only then applies the ops, so any
// hfsc::Error leaves the scheduler — and the admission aggregate —
// bit-for-bit untouched (tests/test_txn_atomicity_fuzz.cpp proves this
// by state digest over >= 10k failing batches).  A commit costs
// O(ops * log n + B) for B distinct rt knee times, whatever the size of
// the hierarchy, but for the O(n) move of a class slab its adds outgrow.
//
// Ids for staged adds are predicted: the live scheduler assigns ids
// densely (nodes are never erased from the vector, only tombstoned), so
// the k-th staged add gets num_classes() + k.  The prediction is checked
// at commit; direct adds made while the Txn was open make it stale and
// commit throws Error{kTxnInvalid}.

#include <cassert>
#include <unordered_map>

#include "core/hfsc.hpp"

namespace hfsc {

struct Hfsc::Shadow {
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

  // Class c < size() as the staged ops leave it.
  SNode get(ClassId c) const {
    if (c >= base()) return added[c - base()];
    const auto it = touched.find(c);
    return it != touched.end() ? it->second : from_tree(c);
  }
  bool live(ClassId c) const {
    return c > 0 && c < size() && !get(c).deleted;
  }

  // Records a checked op as applied.
  void stage(const Op& op) {
    switch (op.kind) {
      case Op::Kind::kAdd:
        ++at(op.parent).children;
        added.push_back(SNode{.parent = op.parent, .cfg = op.cfg});
        break;
      case Op::Kind::kChange:
        at(op.cls).cfg = op.cfg;
        break;
      case Op::Kind::kDelete: {
        SNode& sn = at(op.cls);
        sn.deleted = true;
        sn.backlogged = false;
        const ClassId parent = sn.parent;
        --at(parent).children;
        break;
      }
      case Op::Kind::kQueueLimit:
        break;
    }
  }

 private:
  // Class c, copied in from the live tree on first use.
  SNode& at(ClassId c) {
    if (c >= base()) return added[c - base()];
    const auto [it, first_use] = touched.try_emplace(c);
    if (first_use) it->second = from_tree(c);
    return it->second;
  }
  SNode from_tree(ClassId c) const {
    const Node& n = s->nodes_[c];
    return SNode{s->hot_[c].parent, n.cfg,
                 static_cast<std::uint32_t>(n.children.size()),
                 s->hot_[c].deleted(), s->queues_.has(c)};
  }
};

void Hfsc::check(const Shadow& v, const Op& op, AdmissionDelta* delta) const {
  switch (op.kind) {
    case Op::Kind::kAdd: {
      ensure(op.parent < v.size() &&
                 (op.parent == kRootClass || v.live(op.parent)),
             Errc::kInvalidClass, "unknown or deleted parent class");
      const Shadow::SNode parent = v.get(op.parent);
      ensure(!parent.backlogged, Errc::kHasBacklog,
             "cannot add children under a class that queues packets");
      ensure(op.parent == kRootClass || !parent.cfg.ls.is_zero(),
             Errc::kMissingCurve,
             "interior classes need a link-sharing curve");
      check_config(op.cfg, /*leaf=*/true);
      if (delta != nullptr) {
        // A leaf parent turns interior: its rt curve goes inert.
        if (parent.rt_leaf()) delta->out.push_back(parent.cfg.rt);
        if (!op.cfg.rt.is_zero()) delta->in.push_back(op.cfg.rt);
      }
      return;
    }
    case Op::Kind::kChange: {
      ensure(v.live(op.cls), Errc::kInvalidClass, "unknown or deleted class");
      const Shadow::SNode sn = v.get(op.cls);
      check_config(op.cfg, /*leaf=*/sn.children == 0);
      if (delta != nullptr && sn.children == 0 && !(sn.cfg.rt == op.cfg.rt)) {
        if (!sn.cfg.rt.is_zero()) delta->out.push_back(sn.cfg.rt);
        if (!op.cfg.rt.is_zero()) delta->in.push_back(op.cfg.rt);
      }
      return;
    }
    case Op::Kind::kDelete: {
      ensure(v.live(op.cls), Errc::kInvalidClass, "unknown or deleted class");
      const Shadow::SNode sn = v.get(op.cls);
      ensure(sn.children == 0, Errc::kHasChildren, "delete children first");
      if (delta != nullptr) {
        if (!sn.cfg.rt.is_zero()) delta->out.push_back(sn.cfg.rt);
        // An only child's parent becomes a leaf again; its rt guarantee
        // re-activates and must fit back under the link curve.
        const Shadow::SNode parent = v.get(sn.parent);
        if (parent.children == 1 && !parent.cfg.rt.is_zero()) {
          delta->in.push_back(parent.cfg.rt);
        }
      }
      return;
    }
    case Op::Kind::kQueueLimit:
      ensure(v.live(op.cls), Errc::kInvalidClass, "unknown or deleted class");
      return;
  }
  throw Error(Errc::kTxnInvalid, "corrupt op");
}

void Hfsc::admit(const AdmissionDelta& d, const Shadow* batch) {
  if ((d.out.empty() && d.in.empty()) || admission_->replace(d.out, d.in)) {
    return;
  }
  ++admission_rejections_;
  if (batch == nullptr) {
    // Releasing curves only lowers a fitting aggregate, so a misfit
    // always has a curve to blame.
    assert(!d.in.empty());
    const RateBps link = admission_->link_rate();
    double reserved = admission_->utilization();
    for (const ServiceCurve& sc : d.out) {
      reserved -= static_cast<double>(sc.m2) / static_cast<double>(link);
    }
    throw Error(Errc::kAdmissionRejected,
                "real-time curve " + to_string(d.in.back()) +
                    " pushes the aggregate above the link curve (link "
                    "rate " +
                    std::to_string(link) + " B/s, " +
                    std::to_string(reserved * 100.0) +
                    "% already reserved); lower the curve, delete another "
                    "real-time class, or raise the admission link rate");
  }
  const ClassId c = first_misfit(batch, admission_->link_rate());
  if (c != kRootClass) {
    throw Error(Errc::kAdmissionRejected,
                "committing this batch would put real-time curve " +
                    to_string(batch->get(c).cfg.rt) + " (class " +
                    std::to_string(c) +
                    ") above the link curve; shrink the batch's rt "
                    "curves or raise the admission link rate");
  }
  throw Error(Errc::kAdmissionRejected,
              "committing this batch would put the real-time curves above "
              "the link curve");
}

ClassId Hfsc::first_misfit(const Shadow* v, RateBps link_rate) const {
  const Shadow live(*this);
  if (v == nullptr) v = &live;
  AdmissionControl scan(link_rate);
  for (ClassId c = 1; c < v->size(); ++c) {
    const Shadow::SNode sn = v->get(c);
    if (sn.rt_leaf() && !scan.admit(sn.cfg.rt)) return c;
  }
  return kRootClass;
}

ClassId Hfsc::apply(const Op& op) {
  AdmissionDelta delta;
  check(Shadow(*this), op, admission_ ? &delta : nullptr);
  maybe_self_check();  // audits the state before the gate moves it
  if (admission_) admit(delta, nullptr);
  return apply_unchecked(op);
}

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

ClassId Hfsc::Txn::stage(const Op& op) {
  ensure(open_, Errc::kTxnInvalid, "transaction already closed");
  ops_.push_back(op);
  if (op.kind != Op::Kind::kAdd) return op.cls;
  return static_cast<ClassId>(base_classes_ + staged_adds_++);
}

void Hfsc::Txn::rollback() noexcept {
  ops_.clear();
  staged_adds_ = 0;
  open_ = false;
}

void Hfsc::Txn::commit() {
  ensure(open_, Errc::kTxnInvalid, "transaction already closed");
  ensure(s_->num_classes() == base_classes_ || staged_adds_ == 0,
         Errc::kTxnInvalid,
         "classes were added outside the transaction since begin(); the "
         "staged ids are stale — rollback and re-stage");

  // Phase 1: check each op against the shadow as the ops before it leave
  // it, summing the batch's admission delta.  Any throw here (or in the
  // admission check below) leaves the scheduler untouched and the
  // transaction open.
  Shadow sh(*s_);
  AdmissionDelta delta;
  AdmissionDelta* const d = s_->admission_ ? &delta : nullptr;
  for (const Op& op : ops_) {
    s_->check(sh, op, d);
    sh.stage(op);
  }

  // Phase 2: admission over the final state — the sum of the surviving
  // leaves' rt curves must stay below the link curve (Section II).
  if (d != nullptr) s_->admit(delta, &sh);

  // Phase 3: apply.  Every op passed the rules in order, so none can
  // fail; self-checks wait for the final state.  First the adds get room
  // in the class slabs and the queue slab, each grown at most once per
  // batch and written to its capacity once (util/slab.hpp), so no add
  // faults on a fresh page.
  const std::size_t n = s_->num_classes() + staged_adds_;
  reserve_written(s_->nodes_, n, s_->slab_marks_[0]);
  reserve_written(s_->hot_, n, s_->slab_marks_[1]);
  reserve_written(s_->curves_, n, s_->slab_marks_[2]);
  s_->queues_.reserve(n);
  for (const Op& op : ops_) s_->apply_unchecked(op);
  open_ = false;
  ops_.clear();
  staged_adds_ = 0;
  s_->maybe_self_check();
}

}  // namespace hfsc
