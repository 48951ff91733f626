#!/usr/bin/env bash
# Run the harnessed benchmark suite and merge the per-binary JSON artifacts
# into one results file at the repo root.
#
# Usage: tools/run_bench_suite.sh [--tier=smoke|full] [--build-dir=DIR]
#                                 [--out=FILE] [--update-baseline]
#
# --tier=smoke (default) runs the CI-sized subset; --tier=full runs the
# paper-scale configurations (minutes, not seconds). --update-baseline
# additionally copies the merged artifact over bench/baselines/<tier>.json —
# do this only when a deliberate model change shifts the numbers.
set -euo pipefail

tier=smoke
build_dir=build
out=BENCH_results.json
update_baseline=0

for arg in "$@"; do
  case "$arg" in
    --tier=*) tier="${arg#*=}" ;;
    --build-dir=*) build_dir="${arg#*=}" ;;
    --out=*) out="${arg#*=}" ;;
    --update-baseline) update_baseline=1 ;;
    *)
      echo "run_bench_suite: unknown argument '$arg'" >&2
      echo "usage: $0 [--tier=smoke|full] [--build-dir=DIR] [--out=FILE]" \
           "[--update-baseline]" >&2
      exit 2
      ;;
  esac
done

case "$tier" in
  smoke|full) ;;
  *) echo "run_bench_suite: --tier must be smoke or full, got '$tier'" >&2
     exit 2 ;;
esac

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

if [[ ! -d "$build_dir" ]]; then
  echo "run_bench_suite: build dir '$build_dir' not found" \
       "(run: cmake -B $build_dir -S . && cmake --build $build_dir -j)" >&2
  exit 2
fi

HUPC_GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export HUPC_GIT_SHA

# Every built bench binary is a suite. Simulation suites: modeled metrics
# are deterministic, so 2 repetitions are enough to prove bit-identical
# samples (MAD 0). The wall-clock micro suite needs more repetitions plus
# warmup to tame host noise.
micro_suite=bench_micro_engine
sim_suites=()
for bin in "$build_dir"/bench/bench_*; do
  [[ -f "$bin" && -x "$bin" ]] || continue
  suite="$(basename "$bin")"
  [[ "$suite" == "$micro_suite" ]] || sim_suites+=("$suite")
done
if [[ ${#sim_suites[@]} -eq 0 ]]; then
  echo "run_bench_suite: no bench binaries under $build_dir/bench" \
       "(run: cmake --build $build_dir -j)" >&2
  exit 2
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

artifacts=()
for suite in "${sim_suites[@]}"; do
  echo "== $suite (tier=$tier) =="
  "$build_dir/bench/$suite" --tier="$tier" --repetitions=2 \
      --json="$tmpdir/$suite.json" --no-table
  artifacts+=("$tmpdir/$suite.json")
done

bin="$build_dir/bench/$micro_suite"
if [[ ! -x "$bin" ]]; then
  echo "run_bench_suite: missing binary $bin" >&2
  exit 2
fi
echo "== $micro_suite (tier=$tier) =="
"$bin" --tier="$tier" --repetitions=5 --warmup=1 \
       --json="$tmpdir/$micro_suite.json" --no-table
artifacts+=("$tmpdir/$micro_suite.json")

python3 tools/bench_merge.py "$out" "${artifacts[@]}"

if [[ "$update_baseline" == 1 ]]; then
  mkdir -p bench/baselines
  cp "$out" "bench/baselines/$tier.json"
  echo "run_bench_suite: baseline refreshed: bench/baselines/$tier.json"
fi

echo "run_bench_suite: done -> $out (tier=$tier, git=$HUPC_GIT_SHA)"
