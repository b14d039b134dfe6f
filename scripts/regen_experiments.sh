#!/usr/bin/env bash
# Regenerates every experiment table in EXPERIMENTS.md from a built tree.
#   scripts/regen_experiments.sh [build-dir]   (default: build)
set -euo pipefail
build="${1:-build}"
for b in bench_alg_a_steps bench_b1_depth bench_maxreg_compare \
         bench_counter_tradeoff bench_snapshot_tradeoff \
         bench_lemma1_growth bench_thm1_adversary bench_thm3_adversary \
         bench_model_checker bench_propagate_ablation; do
  echo "=== ${b} ==="
  "${build}/bench/${b}"
  echo
done
echo "=== bench_hw_throughput (THR: solo rows; HOT: default rows) ==="
"${build}/bench/bench_hw_throughput"
