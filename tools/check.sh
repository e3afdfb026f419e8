#!/usr/bin/env bash
# Repository gate: hardened build + full ctest + static analysis + sanitizers.
#
#   default        build (warnings-as-errors) + full ctest, then lint +
#                  clang-tidy, then the asan-ubsan preset over the entire
#                  test suite
#   --fast         skip the sanitizer pass
#   --lint         run only the static-analysis stage (lint.py + clang-tidy)
#   --tsan         run only the thread-sanitizer pass over the concurrency
#                  suites (runtime pool/executor + contract tests + the
#                  fast-path concurrent cache-fill suite + the walk
#                  reference + the alias-evidence store tests + the
#                  golden border-map table)
#   --bench        benchmark smoke: python3 perfbench/test_smoke.py runs
#                  every perfbench workload at toy size and checks that it
#                  reports every metric BENCHMARK.json names
#   --obs          observability smoke: run bdrmap_sim --obs-json over the
#                  small scenario (single-VP and multi-VP) and validate the
#                  exports against docs/obs_schema.json and the name
#                  inventory in docs/observability.md with
#                  tools/check_obs.py
#   --serve        serving smoke: bdrmapd one-shot over the small scenario
#                  with churn, --compare-full (hard bit-identity gate
#                  incremental vs from-scratch) and an --obs-json export
#                  validated with tools/check_obs.py --serve
#   --analyze      bdrmap-analyze stage: all tools/lint.py passes
#                  (hygiene, module layering, determinism, raw locks)
#                  repo-wide, the fixture self-test
#                  (tools/lint_selftest.py), and — when clang++ is
#                  installed — a Clang build with -Wthread-safety
#                  -Werror=thread-safety-analysis over the netbase/sync.h
#                  capability annotations (clang-tsa preset)
#   --fuzz         property-based scenario fuzz smoke: fixed-seed sweep of
#                  25 cases across every adversarial family (scenario_fuzz;
#                  failing seeds print one-line repro commands)
#   --ablation     heuristic-ablation smoke: bench_ablation --smoke over the
#                  small scenario, then tools/check_ablation.py — structural
#                  honesty checks are hard, accuracy drift vs the committed
#                  BENCH_ablation.json is warn-only (EXPERIMENTS.md)
#
# clang-tidy is optional: when the binary is absent the tidy stage is
# skipped with a notice (the .clang-tidy profile still gates CI runners
# that have it).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
FAST=0
LINT_ONLY=0
TSAN_ONLY=0
BENCH_ONLY=0
OBS_ONLY=0
FUZZ_ONLY=0
ANALYZE_ONLY=0
SERVE_ONLY=0
ABLATION_ONLY=0
case "${1:-}" in
  --fast) FAST=1 ;;
  --lint) LINT_ONLY=1 ;;
  --tsan) TSAN_ONLY=1 ;;
  --bench) BENCH_ONLY=1 ;;
  --obs) OBS_ONLY=1 ;;
  --fuzz) FUZZ_ONLY=1 ;;
  --analyze) ANALYZE_ONLY=1 ;;
  --serve) SERVE_ONLY=1 ;;
  --ablation) ABLATION_ONLY=1 ;;
  "") ;;
  *) echo "usage: tools/check.sh [--fast|--lint|--tsan|--bench|--obs|--fuzz|--analyze|--serve|--ablation]" >&2; exit 2 ;;
esac

run_tsan() {
  echo "== tsan preset: configure + build + concurrency suites =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$JOBS" --target \
    runtime_thread_pool_test runtime_multi_vp_test netbase_contract_test \
    route_bgp_test route_fastpath_test walk_reference_test obs_metrics_test \
    obs_trace_test eval_fuzzer_test serve_handle_test serve_snapshot_test \
    serve_incremental_test golden_border_map_test \
    heuristic_confidence_test alias_evidence_test bdrmap_sim bdrmapd
  ctest --test-dir build-tsan -j "$JOBS" --output-on-failure \
    -R 'ThreadPool|TaskGroup|ParallelFor|ParallelMap|MultiVp|Contract|FastPath|WalkReference|AliasEvidence|Obs|Fuzzer|Serve|Heuristic'
}

run_fuzz() {
  echo "== fuzz smoke: scenario_fuzz, fixed-seed 25-case sweep =="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS" --target scenario_fuzz
  ./build/tools/scenario_fuzz --seeds 25 --threads "$JOBS"
}

run_obs() {
  echo "== obs smoke: bdrmap_sim --obs-json + schema check =="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS" --target bdrmap_sim
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  ./build/tools/bdrmap_sim --scenario small --obs-json "$tmp/obs_single.json" \
    >/dev/null
  python3 tools/check_obs.py "$tmp/obs_single.json"
  ./build/tools/bdrmap_sim --scenario small --all-vps --threads 4 \
    --obs-json "$tmp/obs_multi.json" >/dev/null
  python3 tools/check_obs.py "$tmp/obs_multi.json"
}

run_serve() {
  echo "== serve smoke: bdrmapd churn + --compare-full + obs export =="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS" --target bdrmapd
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  ./build/tools/bdrmapd --scenario small --seed 42 --churn 3 \
    --queries 10000 --compare-full --obs-json "$tmp/obs_serve.json"
  python3 tools/check_obs.py --serve "$tmp/obs_serve.json"
}

run_bench() {
  echo "== bench: perfbench smoke (every workload at toy size) =="
  python3 perfbench/test_smoke.py
}

run_ablation() {
  echo "== ablation smoke: bench_ablation --smoke + gate =="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS" --target bench_ablation
  # Same code paths as the committed BENCH_ablation.json run, on the
  # CI-sized scenario; the gate script hard-checks the honesty fields and
  # warns (only) on accuracy drift vs the reference.
  ./build/bench/bench_ablation --smoke --out BENCH_ablation_smoke.json
  python3 tools/check_ablation.py BENCH_ablation_smoke.json
}

run_lint() {
  echo "== lint: tools/lint.py (all passes) =="
  python3 tools/lint.py

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== lint: clang-tidy =="
    # Needs a compile database; the default preset writes one. The net
    # covers every compiled tree: src/, tools/, bench/, examples/ and
    # tests/ (lint fixtures are deliberately bad and never compiled, so
    # they are excluded).
    if [[ ! -f build/compile_commands.json ]]; then
      cmake --preset default >/dev/null
    fi
    git ls-files 'src/*.cc' 'tools/*.cc' 'bench/*.cc' 'examples/*.cc' \
        'tests/*.cc' | grep -v lint_fixtures | xargs -r -P "$JOBS" -n 8 \
      clang-tidy -p build --quiet
  else
    echo "== lint: clang-tidy not installed, skipping tidy stage =="
  fi
}

run_analyze() {
  echo "== analyze: tools/lint.py (hygiene + layering + determinism + raw locks) =="
  python3 tools/lint.py

  echo "== analyze: lint fixture self-test =="
  python3 tools/lint_selftest.py

  if command -v clang++ >/dev/null 2>&1; then
    echo "== analyze: Clang thread-safety analysis (-Werror=thread-safety-analysis) =="
    cmake --preset clang-tsa >/dev/null
    cmake --build --preset clang-tsa -j "$JOBS"
  else
    echo "== analyze: clang++ not installed, skipping thread-safety build =="
  fi
}

if [[ "$LINT_ONLY" == "1" ]]; then
  run_lint
  echo "== lint passed =="
  exit 0
fi

if [[ "$TSAN_ONLY" == "1" ]]; then
  run_tsan
  echo "== tsan passed =="
  exit 0
fi

if [[ "$BENCH_ONLY" == "1" ]]; then
  run_bench
  echo "== bench passed =="
  exit 0
fi

if [[ "$OBS_ONLY" == "1" ]]; then
  run_obs
  echo "== obs smoke passed =="
  exit 0
fi

if [[ "$FUZZ_ONLY" == "1" ]]; then
  run_fuzz
  echo "== fuzz smoke passed =="
  exit 0
fi

if [[ "$SERVE_ONLY" == "1" ]]; then
  run_serve
  echo "== serve smoke passed =="
  exit 0
fi

if [[ "$ANALYZE_ONLY" == "1" ]]; then
  run_analyze
  echo "== analyze passed =="
  exit 0
fi

if [[ "$ABLATION_ONLY" == "1" ]]; then
  run_ablation
  echo "== ablation smoke passed =="
  exit 0
fi

echo "== default preset: configure + build (-Werror) + full ctest =="
cmake --preset default -DBDRMAP_WERROR=ON
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

run_lint

if [[ "$FAST" == "1" ]]; then
  echo "== --fast: skipping sanitizer pass =="
  echo "== all checks passed =="
  exit 0
fi

echo "== asan-ubsan preset: configure + build + FULL test suite =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$JOBS"
ctest --test-dir build-asan -j "$JOBS" --output-on-failure

run_tsan
echo "== all checks passed =="
