#!/usr/bin/env bash
# CI gate: build and test libhfsc in a plain Release configuration and an
# address+undefined sanitizer configuration.  Any test failure, sanitizer
# report (-fno-sanitize-recover=all aborts on the first finding), or build
# error fails the script.  Both configurations build with -DHFSC_WERROR=ON
# (-Wall -Wextra -Wshadow promoted to errors).  ctest runs with a 120 s
# per-test timeout and stops at the first failing test, so a broken config
# fails fast instead of grinding through the rest of the suite.
#
#   $ tools/ci_check.sh            # all stages
#   $ tools/ci_check.sh release    # just the Release config
#   $ tools/ci_check.sh sanitize   # just the ASan+UBSan config
#   $ tools/ci_check.sh tidy      # just the clang-tidy stage
#
# The sanitizer config builds RelWithDebInfo with its flags overridden to
# "-O2 -g" (no -DNDEBUG), so every assert in src/ is checked there; the
# Release config and the default build compile them out.
#
# The sanitizer config re-runs the chaos/soak harness gate (ctest label
# "chaos": kill-and-recover at every journal/checkpoint boundary, the
# degradation-ladder overload proof, corrupt-image probes) explicitly
# under ASan+UBSan, so every recovery path is memory- and UB-clean.  The
# long soak (ctest label "soak") is opt-in:
#   $ HFSC_SOAK=1 tools/ci_check.sh sanitize     # adds the 60 s soak
#
# The randomized long-running suites carry the ctest label "fuzz"
# (tests/CMakeLists.txt) — fault injection, transaction atomicity,
# RuntimeHost batched-versus-single drain equivalence, agreement of the two
# Section V eligible-set structures, the min-plus curve-operator fuzz
# (test_curve_minplus_fuzz), the analyzer-vs-simulator topology fuzz
# (test_analysis_topology_fuzz: measured delay/backlog never exceed the
# analytic route bounds), the scenario-parser mutation fuzz
# (test_scenario_fuzz: a mutated shipped scenario fails at its file:line
# or analyzes and runs), the journal framing fuzz (test_journal_fuzz:
# a mutated journal is kBadJournal or recovers to a cut of the
# original).  They run in every configuration; exclude them for a quick
# local gate with
#   $ CTEST_ARGS="-LE fuzz" tools/ci_check.sh release
#
# The Release config additionally runs the scenario-engine smoke (ctest
# label "scenario"): one scenario file through hfsc, hpfq and cbq side by
# side (hfsc_sim --compare), gating the scheduler-agnostic compile path;
# the scenario-lint gate (ctest label "lint"): tools/hfsc_lint over every
# committed scenarios/*.hfsc, so the example hierarchies stay
# diagnostic-clean, the negative fixture (scenarios/overbudget.hfsc),
# which passes only when the e2e-budget-exceeded route-deadline
# diagnostic fires, the CLI's strict count flags and the perf gate's
# comparison logic; and the simulation gate (ctest label "sim"): the
# Section VII reconstruction compared across H-FSC and H-PFQ plus a
# timed-churn smoke under the invariant auditor (the 100k-flow churn soak
# rides the opt-in "soak" label).  They run explicitly after the suite so
# a CTEST_ARGS filter cannot silently skip them.
#
# The Release config then runs the control-plane scale gate (ctest label
# "scale", binary hfsc_scale_tests, a 60 s TIMEOUT per row) as a named
# step of its own: 100k-class flat and 4-ary scenarios parsed, analyzed,
# compiled and run, the cost ratio of 20k to 10k classes (under 3), 50k
# rt leaves added under admission, a 100k-leaf checkpoint round trip,
# and two many-node rows: the cost ratio of parsing and analyzing a
# 4k-node file (10 classes a node) to a 2k-node one, and of rendering
# its report (to_table and to_json), each under 3.
# It guards the control plane against going quadratic in the class
# count again: one scan of every class per class, anywhere on those
# paths, turns the 100k rows into minutes and the ratio into about 4;
# a renderer that filters every class row once per node reads above 5.
#
# Last, the Release config runs the perf gate, tools/perf_smoke_check.py:
# every workload BENCHMARK.json lists runs once through perfbench (built
# into build-ci-perf/ via CARGO_TARGET_DIR, so it stays out of the tree)
# at the seed and run length stored in BENCH_perfbench.json, and every
# end_to_end metric is compared with that baseline using BENCHMARK.json's
# own `better` and `bound`.  A failed correctness gate always fails the
# stage; a regression past its bound warns, and fails only with
#   $ HFSC_PERF_GATE=1 tools/ci_check.sh release
#
# The `tidy` stage runs clang-tidy (.clang-tidy at the repo root, with
# WarningsAsErrors) over src/ tools/ bench/, plus the one tests/support/
# file a bench builds (the augmented-tree eligible set), against a
# compile_commands database.  clang-tidy is not part of the baked
# toolchain everywhere, so the stage degrades to an explicit SKIP when
# the binary is absent instead of failing CI on the missing tool.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
what="${1:-all}"

run_config() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== ${name}: configure ==="
  cmake -B "${build_dir}" -S "${repo}" "$@"
  echo "=== ${name}: build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== ${name}: ctest ==="
  # shellcheck disable=SC2086  # CTEST_ARGS is intentionally word-split
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
    --timeout 120 --stop-on-failure ${CTEST_ARGS:-}
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "=== clang-tidy: SKIP (clang-tidy not installed) ==="
    return 0
  fi
  local build_dir="${repo}/build-ci-tidy"
  echo "=== clang-tidy: configure (compile_commands) ==="
  cmake -B "${build_dir}" -S "${repo}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  echo "=== clang-tidy: src/ tools/ bench/ and the E10 reference tree ==="
  # .clang-tidy sets WarningsAsErrors: '*', so any finding fails the
  # stage; xargs -P parallelizes across translation units.  The
  # augmented-tree eligible set lives in tests/support/ but builds into
  # bench_eligible_ablation, so it is linted with the benches.
  {
    find "${repo}/src" "${repo}/tools" "${repo}/bench" -name '*.cpp' -print0
    printf '%s\0' "${repo}/tests/support/aug_tree_eligible_set.cpp"
  } | xargs -0 -n 4 -P "${jobs}" clang-tidy -p "${build_dir}" --quiet
  echo "=== clang-tidy: clean ==="
}

case "${what}" in
  release|all)
    run_config "Release" "${repo}/build-ci-release" \
      -DCMAKE_BUILD_TYPE=Release -DHFSC_WERROR=ON
    echo "=== Release: scenario compare smoke ==="
    ctest --test-dir "${repo}/build-ci-release" --output-on-failure \
      -L scenario
    echo "=== Release: scenario lint gate ==="
    ctest --test-dir "${repo}/build-ci-release" --output-on-failure \
      -L lint
    echo "=== Release: simulation gate (Section VII + churn smoke) ==="
    ctest --test-dir "${repo}/build-ci-release" --output-on-failure \
      -L sim
    echo "=== Release: control-plane scale gate ==="
    ctest --test-dir "${repo}/build-ci-release" --output-on-failure \
      -L scale
    echo "=== Release: perf gate (perfbench vs BENCH_perfbench.json) ==="
    CARGO_TARGET_DIR="${repo}/build-ci-perf" \
      python3 "${repo}/tools/perf_smoke_check.py"
    ;;&
  sanitize|all)
    run_config "ASan+UBSan" "${repo}/build-ci-sanitize" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHFSC_WERROR=ON \
      "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O2 -g" \
      "-DHFSC_SANITIZE=address;undefined"
    echo "=== ASan+UBSan: chaos/recovery gate ==="
    ctest --test-dir "${repo}/build-ci-sanitize" --output-on-failure \
      -L chaos
    if [ "${HFSC_SOAK:-0}" = "1" ]; then
      echo "=== ASan+UBSan: soak (HFSC_SOAK=1) ==="
      ctest --test-dir "${repo}/build-ci-sanitize" --output-on-failure \
        -L soak --timeout 300
    fi
    ;;&
  tidy|all)
    run_tidy
    ;;&
  release|sanitize|tidy|all)
    echo "=== ci_check: OK (${what}) ==="
    ;;
  *)
    echo "usage: $0 [release|sanitize|tidy|all]" >&2
    exit 2
    ;;
esac
