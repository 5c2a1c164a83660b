// Scheduler-agnostic hierarchy description and per-family compilers.
//
// The paper's evaluation is comparative — H-FSC against H-PFQ, CBQ and
// the flat baselines — but every family in this repository historically
// exposed a different construction API (three service curves for Hfsc, a
// single rate for HPfq, rate+borrow for Cbq, quanta for Drr, …).
// HierarchySpec is the one description they all compile from: named
// classes with a parent, rt/ls/ul service curves and a queue limit.  One
// spec, compiled per family, yields schedulers that are *the same
// experiment* to the extent the family can express it.
//
// Mapping rules (full matrix in docs/SCHEDULERS.md).  Compilation is
// deliberately lossy where a family is less expressive, and every loss is
// recorded as a human-readable note:
//
//   * H-FSC  — exact: rt/ls/ul curves, queue limits.
//   * H-PFQ  — one guaranteed rate per class: the ls curve's long-term
//     rate (rt's if no ls).  Non-linear curves degrade to that rate;
//     upper limits and queue limits are dropped (work-conserving,
//     unlimited queues).
//   * CBQ    — like H-PFQ, plus: a class with an upper-limit curve
//     compiles with borrowing disabled and its allocation clamped to
//     min(share, ul rate) — CBQ's only cap is the estimator at the
//     allocated rate.
//   * DRR / SCED / VirtualClock / FIFO — flat: interior classes are
//     dropped and leaves attach directly to the server.  SCED keeps the
//     full (possibly non-linear) rt-else-ls curve; DRR gets a quantum
//     proportional to the class rate; VirtualClock the rate itself; FIFO
//     collapses everything into the shared queue (ids are still assigned
//     so per-class statistics survive).
//
// A class whose effective rate is zero where a rate is required (e.g. a
// pure-burst rt curve with m2 = 0 under H-PFQ) is always a typed error —
// there is no meaningful degradation.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/hfsc.hpp"
#include "curve/service_curve.hpp"
#include "sched/scheduler.hpp"
#include "util/types.hpp"

namespace hfsc {

// The families HierarchySpec can target (scenario `scheduler <kind>`
// directive, hfsc_sim --scheduler=/--compare=).
enum class SchedulerKind {
  kHfsc,
  kHpfq,
  kCbq,
  kDrr,
  kSced,
  kVirtualClock,
  kFifo,
};

// Canonical lower-case token ("hfsc", "hpfq", "cbq", "drr", "sced",
// "vclock", "fifo") — the spelling the scenario language uses.
std::string_view to_string(SchedulerKind kind) noexcept;

// Inverse of to_string (also accepts "virtualclock"); nullopt on an
// unknown token.
std::optional<SchedulerKind> parse_scheduler_kind(std::string_view token);

// Every kind, in the canonical comparison order.
const std::vector<SchedulerKind>& all_scheduler_kinds();

struct HierarchyCompileOptions {
  // H-FSC-only knobs, applied before any class is added so the
  // compiled scheduler is call-for-call identical to one configured by
  // hand; other families record a note when they are set.
  std::size_t audit_every = 0;  // enable_self_check(N)
  bool admission = false;       // enable_admission_control()
};

struct HierarchySpec {
  using CompileOptions = HierarchyCompileOptions;
  struct ClassSpec {
    std::string name;
    std::string parent;  // "" or "root" = top level
    ServiceCurve rt{};   // leaf guarantee (families that can express it)
    ServiceCurve ls{};   // link-sharing share
    ServiceCurve ul{};   // upper limit (families that can express it)
    std::size_t qlimit = 0;  // max queued packets; 0 = unlimited
    // Token-bucket arrival envelope A(t) = env_burst + env_rate * t the
    // class's traffic is promised to conform to (scenario `envelope`
    // directive).  Not consumed by any compiler — the static analyzer
    // (analysis/analyzer.hpp) derives Theorem 2 delay bounds from it.
    // Both zero = no envelope declared.
    Bytes env_burst = 0;
    RateBps env_rate = 0;
    // 1-based lines of the scenario directives that declared the class
    // and its envelope; 0 for a spec built in code, which diagnostics
    // print as "<spec>".
    std::size_t line = 0;
    std::size_t env_line = 0;

    static bool is_top_level(const std::string& parent) {
      return parent.empty() || parent == "root";
    }
    ClassConfig config() const { return ClassConfig{rt, ls, ul}; }
    // The single guaranteed rate a rate-based family sees (mapping rule
    // above): the ls long-term rate, else rt's.
    RateBps share_rate() const noexcept {
      if (!ls.is_zero()) return ls.rate();
      return rt.rate();
    }
  };

  // Name -> position in `classes` and the parent/children adjacency,
  // built in O(1) amortized per class (children keep declaration order):
  // what every reader of the hierarchy uses instead of a scan.
  struct Index {
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    std::unordered_map<std::string, std::size_t> pos;
    std::vector<std::size_t> parent;  // npos for a top-level class
    std::vector<std::vector<std::size_t>> children;
    std::vector<std::size_t> top_level;

    // Position of `name`; npos when it is not declared.
    std::size_t find(const std::string& name) const {
      const auto it = pos.find(name);
      return it == pos.end() ? npos : it->second;
    }
    bool is_leaf(std::size_t i) const { return children[i].empty(); }
    // Checks `c` against the classes indexed so far (the rules add()
    // documents) and appends it.
    void push(const ClassSpec& c);
  };

  // Append through add() only: the index covers every class's name and
  // parent, so only the other fields (an envelope read later in a file,
  // say) may be set in place.
  std::vector<ClassSpec> classes;

  // Appends a class after validating it against what is already declared:
  // Error{kInvalidArgument} on a duplicate or reserved ("root") name,
  // Error{kInvalidClass} on a parent not declared before its child,
  // Error{kMissingCurve} when neither rt nor ls is given,
  // Error{kUnsupportedCurve} on a curve shape outside the
  // two-piece algebra.
  void add(ClassSpec c);

  // The index over `classes`.
  const Index& index() const;

  // True when `name` is not declared or no class declares it as its
  // parent.
  bool is_leaf(const std::string& name) const;

  using IdMap = std::map<std::string, ClassId>;

  struct Compiled {
    std::unique_ptr<Scheduler> sched;
    // Non-owning view of sched when it is an Hfsc (checkpointing, audit,
    // state_digest); null for every other family.
    Hfsc* hfsc = nullptr;
    // Class name -> id under the compiled scheduler.  Flat families map
    // leaves only; interior names are absent.
    IdMap ids;
    // One line per lossy mapping, in declaration order.
    std::vector<std::string> notes;
  };

  // Compiles the spec for one family.  Throws hfsc::Error on spec-level
  // misuse, and std::runtime_error wrapping the offending class name
  // ("class 'x': …") when the underlying scheduler rejects a mutation
  // (e.g. admission control).
  Compiled compile(SchedulerKind kind, RateBps link_rate,
                   const CompileOptions& opts = {}) const;

 private:
  Index index_;
};

}  // namespace hfsc
