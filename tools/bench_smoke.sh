#!/usr/bin/env bash
# Bench harness smoke: runs each bench binary given on the command line once
# at tiny scale, then validates the BENCH_*.json it emits against the
# BenchReporter schema with bench_compare --validate and diffs it against
# itself — proving the JSON pipeline (emit -> parse -> gate) works end to end
# without paying for a full benchmark run. Registered as the `bench_smoke`
# ctest test:
#
#   tools/bench_smoke.sh <bench_compare-binary> <output-dir> <bench-binary>...
set -euo pipefail

USAGE="usage: bench_smoke.sh <compare-binary> <out-dir> <bench-binary>..."
COMPARE_BIN=${1:?${USAGE}}
OUT_DIR=${2:?${USAGE}}
shift 2
if [[ $# -eq 0 ]]; then
  echo "${USAGE}"
  exit 2
fi

# The table: per bench, the environment (`vars`), the arguments, and the
# JSON file it writes.
row() {
  case "$1" in
    bench_micro_substrates)
      # Hot paths only: the kNN / propagation / trainer benches cover every
      # BenchStage field (threads, entities, seed); min_time=0 +
      # repetitions=1 keeps this a schema check, not a measurement.
      vars=""
      args="--benchmark_filter=BM_KnnGraphBuild|BM_LabelPropagation|BM_LogisticRegressionTrain
            --benchmark_min_time=0 --benchmark_repetitions=1"
      json=BENCH_micro_substrates.json ;;
    bench_ablation_resource_quality)
      # Two-point availability sweep: exercises the fault injection + retry
      # + degraded-mode path end to end and proves the optional per-stage
      # "metric" field round-trips through the validator.
      vars="CM_BENCH_SCALE=0.05 CM_BENCH_AVAIL_RATES=0,0.3"
      args="--availability-only"
      json=BENCH_availability_sweep.json ;;
    bench_serving_tier)
      # The binary fails if any sharded score diverges bitwise from direct
      # ModelServer scoring, so this is also an equivalence gate.
      vars="CM_BENCH_SCALE=0.1 CM_BENCH_REPS=2 CM_BENCH_WARMUP=0"
      args=""
      json=BENCH_serving_tier.json ;;
    bench_feature_store_io)
      # The binary fails unless the TSV, columnar, and mmap read paths all
      # hash bit-identically, so this covers the format round trip too.
      vars="CM_BENCH_SCALE=0.05 CM_BENCH_REPS=2 CM_BENCH_WARMUP=0"
      args=""
      json=BENCH_feature_store_io.json ;;
    *)
      echo "bench_smoke: no table row for $1"
      exit 2 ;;
  esac
}

for bin in "$@"; do
  name=$(basename "${bin}")
  row "${name}"
  rm -f "${OUT_DIR}/${json}"
  echo "== ${name} =="
  # shellcheck disable=SC2086  # vars and args are word lists
  env CM_BENCH_JSON_DIR="${OUT_DIR}" ${vars} "${bin}" ${args}
  echo "== bench_compare --validate (${json}) =="
  "${COMPARE_BIN}" --validate "${OUT_DIR}/${json}"
  # The self-compare must pass trivially (every ratio is 1.00x).
  echo "== bench_compare self-diff (${json}) =="
  "${COMPARE_BIN}" "${OUT_DIR}/${json}" "${OUT_DIR}/${json}"
done

echo "bench_smoke: OK"
