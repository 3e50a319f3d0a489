#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repository root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings (all targets)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release (every workspace binary the steps below run)"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> golden stdout (fig9, ablation, table1: seeded and timing-free, byte-exact)"
# GCN QAT under Native/DQ/LSQ, the lambda-swept MixQ search, and table1's
# FP32 and relaxed GCN parameter counts; the files in tests/golden/ pin
# their exact output.
for bin in fig9 ablation; do
  ./target/release/"$bin" --quick --runs 1 | diff -u "tests/golden/$bin.txt" -
done
./target/release/table1 | diff -u tests/golden/table1.txt -

echo "==> telemetry smoke (table1 with MIXQ_TELEMETRY=1)"
smoke_dir="$(mktemp -d)"
MIXQ_TELEMETRY=1 MIXQ_TELEMETRY_DIR="$smoke_dir" ./target/release/table1 > /dev/null
./target/release/telemetry_check "$smoke_dir/table1.json" \
  --expect counters.tensor.matmul.calls \
  --expect counters.tape.bwd_ns.matmul \
  --expect series.train.loss \
  --expect series.search.alpha_entropy \
  --expect histograms.search.bits \
  --expect spans.train_node/epoch
rm -rf "$smoke_dir"

echo "==> fault-injection drill (MIXQ_FAULTS with all three kinds)"
drill_dir="$(mktemp -d)"
MIXQ_TELEMETRY=1 MIXQ_TELEMETRY_DIR="$drill_dir" \
  MIXQ_FAULTS='grad_nan@epoch=3,ckpt_torn@1,worker_panic@2' \
  ./target/release/fault_drill
./target/release/telemetry_check "$drill_dir/fault_drill.json" \
  --expect counters.faults.injected \
  --expect counters.train.divergence_rollbacks \
  --expect counters.parallel.worker_panics \
  --expect-eq counters.faults.injected=3 \
  --expect-eq counters.faults.recovered=3
rm -rf "$drill_dir"

echo "==> kernel smoke (tiled/naive bit-identity, every f32 and integer SpMM and requant GEMM arm, the engine's byte layers, pool reuse)"
kernel_dir="$(mktemp -d)"
MIXQ_TELEMETRY=1 MIXQ_TELEMETRY_DIR="$kernel_dir" \
  ./target/release/kernel_bench --smoke
# The SIMD arms of the integer SpMM and of the requantized dense product,
# and the integer engine's byte layers built on them, run where the host has
# AVX-512 VNNI and BW, the f32 SpMM's where it has AVX-512 F; elsewhere the
# portable arms take their inputs.
simd_arm=()
if grep -qw avx512_vnni /proc/cpuinfo 2>/dev/null \
  && grep -qw avx512bw /proc/cpuinfo; then
  simd_arm=(--expect-gt counters.qcsr.spmm.vnni_path=0
    --expect-gt counters.qinfer.requant.vnni_path=0
    --expect-gt counters.qinfer.byte_layers=0)
fi
if grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
  simd_arm+=(--expect-gt counters.sparse.spmm_f32.avx512_path=0)
fi
./target/release/telemetry_check "$kernel_dir/kernel_bench.json" \
  --expect-gt counters.qcsr.spmm.i32_path=0 \
  --expect-gt counters.qcsr.spmm.i64_path=0 \
  ${simd_arm[@]+"${simd_arm[@]}"} \
  --expect-gt counters.pool.hit_bytes=0 \
  --expect counters.parallel.balanced_calls
rm -rf "$kernel_dir"

echo "==> property-fuzz conformance drill (MIXQ_PT_CASES=32 pinned budget)"
fuzz_dir="$(mktemp -d)"
MIXQ_TELEMETRY=1 MIXQ_TELEMETRY_DIR="$fuzz_dir" MIXQ_PT_CASES=32 \
  ./target/release/fuzz_drill
./target/release/telemetry_check "$fuzz_dir/fuzz_drill.json" \
  --expect-eq counters.proptest.cases=160 \
  --expect-eq counters.proptest.drill.theorem1.cases=32 \
  --expect-eq counters.proptest.drill.quant_edges.cases=32 \
  --expect-eq counters.proptest.drill.autograd.cases=32 \
  --expect-eq counters.proptest.drill.parallel.cases=32 \
  --expect-eq counters.proptest.drill.qcsr.cases=32
rm -rf "$fuzz_dir"

echo "CI OK"
