//! Kernel benchmark trajectory: dense tiled-vs-naive GEMM, nnz-balanced
//! vs row-chunked SpMM on a hub-heavy power-law graph, the i32
//! fast-path integer SpMM, the whole Theorem-1 layer
//! (`quantized_spmm`, INT8) against its portable row kernel and the f32
//! SpMM on cora-, arxiv- and reddit-like graphs at widths 64 and 12, and
//! the training tape's per-element kernels
//! (dropout, fake quantization, the k=3 relaxed mixture, and `matmul_a_bt`
//! on the layer-0 backward shapes) against the forms they replaced, and the
//! classifier layer's narrow products (`matmul`, `matmul_at_b` and the INT8
//! `int_matmul_requant` at 64 → 7 and 64 → 12) —
//! written as machine-readable JSON so speedups can be tracked across
//! commits (`BENCH_kernels.json` at the repo root).
//!
//! Modes:
//!
//! * default — full measurement run; prints a table and writes
//!   `BENCH_kernels.json` into the current directory.
//! * `--smoke` — seconds-long CI drill: asserts tiled/naive bit-identity
//!   on awkward shapes, checks every `spmm_int` arm (SIMD, `i32`, `i64`)
//!   and the INT8 Theorem-1 layer bit for bit against the portable row
//!   kernel, runs a 3-epoch training loop (so the buffer pool sees steady
//!   state), checks each training-tape kernel and the classifier-width
//!   products bit for bit against their reference forms, then writes a
//!   telemetry report (`kernel_bench.json`)
//!   for `telemetry_check` to assert that each arm ran and
//!   `pool.hit_bytes > 0`.

use std::path::Path;

use mixq_bench::{bench, BenchRecord};
use mixq_core::{
    int_matmul_requant, quantize_csr_symmetric, quantized_spmm, quantized_spmm_portable, QTensor,
    QmpParams,
};
use mixq_graph::{arxiv_like, cora_like, reddit_like};
use mixq_nn::{train_node, GcnNet, NodeBundle, ParamSet, TrainConfig};
use mixq_parallel::{nnz_balanced_bounds, set_num_threads};
use mixq_sparse::{gcn_normalize, spmm_int, spmm_rows_portable, CsrMatrix, QuantCsr, RowAcc};
use mixq_tensor::{Matrix, QuantParams, Rng, Tape, Var};

/// Builds a hub-heavy "power-law" CSR: the first `hubs` rows carry
/// `hub_nnz` entries each, every other row carries `tail_nnz`. Fronting
/// the hubs makes equal-*row* chunking maximally unbalanced (one chunk
/// owns almost all the work), which is exactly the shape the nnz-balanced
/// partitioner exists for. Column indices are strictly increasing by
/// construction (stride layout), satisfying the CSR invariants.
fn powerlaw_csr(n: usize, hubs: usize, hub_nnz: usize, tail_nnz: usize, seed: u64) -> CsrMatrix {
    assert!(hub_nnz <= n && tail_nnz <= n && hubs <= n);
    let mut rng = Rng::seed_from_u64(seed);
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for r in 0..n {
        let nnz = if r < hubs { hub_nnz } else { tail_nnz };
        let stride = n / nnz;
        let offset = r % stride.max(1);
        for j in 0..nnz {
            col_idx.push(j * stride + offset);
            values.push(rng.normal() * 0.1);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(n, n, row_ptr, col_idx, values)
}

/// `spmm_int` over the row kernel without its SIMD arm.
fn spmm_int_portable(a: &QuantCsr, x: &[i32], x_cols: usize) -> Vec<i64> {
    let mut y = vec![0i64; a.rows() * x_cols];
    spmm_rows_portable(a, x, x_cols, &mut y, |_, acc, _, out| match acc {
        RowAcc::I32(acc) => {
            for (o, &v) in out.iter_mut().zip(acc) {
                *o = v as i64;
            }
        }
        RowAcc::I64(acc) => out.copy_from_slice(acc),
    });
    y
}

/// Quantized clone of `a` with values clipped to `±max_abs` integers.
fn quantize(a: &CsrMatrix, max_abs: i32, bits: u8) -> QuantCsr {
    QuantCsr::from_csr(a, bits, |_, _, v| {
        ((v * 10.0 * max_abs as f32).round() as i32).clamp(-max_abs, max_abs)
    })
}

fn dense_features(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..rows * cols).map(|_| rng.normal()).collect()
}

fn int_features(rows: usize, cols: usize, max_abs: i32, seed: u64) -> Vec<i32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..rows * cols)
        .map(|_| rng.gen_range(2 * max_abs as usize + 1) as i32 - max_abs)
        .collect()
}

/// The dropout `Tape::dropout` replaced: one `bernoulli` draw per element
/// into a mask, applied in a second pass.
fn dropout_bernoulli(t: &mut Tape, x: Var, p: f32, rng: &mut Rng) -> Var {
    let keep = 1.0 - p;
    let n = t.value(x).numel();
    let mask = (0..n)
        .map(|_| {
            if rng.bernoulli(keep as f64) {
                1.0 / keep
            } else {
                0.0
            }
        })
        .collect();
    t.dropout_with_mask(x, mask)
}

/// One dropout on a fresh tape over a trainable copy of `x` (so the mask
/// is stored, as for a hidden layer); returns the output.
fn dropout_on_tape(
    x: &Matrix,
    rng: &mut Rng,
    op: fn(&mut Tape, Var, f32, &mut Rng) -> Var,
) -> Matrix {
    let mut t = Tape::new();
    let xv = t.leaf(x.clone());
    let y = op(&mut t, xv, 0.5, rng);
    let out = t.value(y).clone();
    t.recycle();
    out
}

fn dropout_select(t: &mut Tape, x: Var, p: f32, rng: &mut Rng) -> Var {
    t.dropout(x, p, rng, true)
}

/// The fake quantization `QuantParams::fake` replaced: the integer round
/// trip `dequantize(quantize(x))`.
fn fake_round_trip(qp: &QuantParams, xs: &[f32], out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = qp.dequantize(qp.quantize(x));
    }
}

fn fake_vectorized(qp: &QuantParams, xs: &[f32], out: &mut [f32]) {
    qp.fake_each(xs, out, |o, q| *o = q);
}

/// The relaxed mixture `Σ w_i Q_i(x)` as it ran before: every candidate
/// materialized by the integer round trip, then mixed.
fn relaxed_materialized(
    qps: &[QuantParams],
    w: &[f32],
    xs: &[f32],
    quants: &mut [Vec<f32>],
    out: &mut [f32],
) {
    for (q, qp) in quants.iter_mut().zip(qps) {
        fake_round_trip(qp, xs, q);
    }
    out.fill(0.0);
    for (&wi, q) in w.iter().zip(quants.iter()) {
        for (o, &qv) in out.iter_mut().zip(q) {
            *o += wi * qv;
        }
    }
}

/// The relaxed mixture as the tape runs it when α needs no gradient: one
/// vectorized pass per candidate, accumulated in place.
fn relaxed_fused(qps: &[QuantParams], w: &[f32], xs: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for (&wi, qp) in w.iter().zip(qps) {
        qp.fake_each(xs, out, |o, q| *o += wi * q);
    }
}

/// The relaxed candidates of the benchmark and its softmax weights.
fn relaxed_menu(xs: &[f32]) -> ([QuantParams; 3], [f32; 3]) {
    let lo = xs.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let qps = [2, 4, 8].map(|b| QuantParams::from_min_max(lo, hi, b));
    (qps, [0.2, 0.3, 0.5])
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Training-tape kernels, 1 thread, on the layer-0 shapes of `cora-t1`
/// (1500 nodes × 180 features) and `reddit-t1` (8000 × 80) with 64 hidden
/// units: dropout and fake quantization over the input features, and the
/// `dX = dY·Wᵀ` product of the first layer's backward pass.
fn tape_kernel_records(records: &mut Vec<BenchRecord>, summary: &mut Vec<(String, f64)>) {
    set_num_threads(1);
    for (name, n, feat) in [("cora", 1500usize, 180usize), ("reddit", 8000, 80)] {
        let mut rng = Rng::seed_from_u64(53);
        let x = Matrix::from_fn(n, feat, |_, _| rng.normal());
        let elems = (n * feat) as u64;

        let mut rng = Rng::seed_from_u64(59);
        let ns_ref = bench(&format!("dropout_bernoulli_{name}_t1"), || {
            std::hint::black_box(dropout_on_tape(&x, &mut rng, dropout_bernoulli));
        });
        let ns_new = bench(&format!("dropout_select_{name}_t1"), || {
            std::hint::black_box(dropout_on_tape(&x, &mut rng, dropout_select));
        });
        let base = BenchRecord::new(&format!("dropout_bernoulli_{name}"), 1, ns_ref, elems);
        let fast = BenchRecord::new(&format!("dropout_select_{name}"), 1, ns_new, elems).vs(&base);
        summary.push((format!("dropout_speedup_{name}_t1"), fast.speedup.unwrap()));
        records.extend([base, fast]);

        let (qps, w) = relaxed_menu(x.data());
        let mut out = vec![0f32; x.numel()];
        let ns_ref = bench(&format!("fake_quant_round_trip_{name}_t1"), || {
            fake_round_trip(&qps[2], x.data(), &mut out);
            std::hint::black_box(&out);
        });
        let ns_new = bench(&format!("fake_quant_f32_{name}_t1"), || {
            fake_vectorized(&qps[2], x.data(), &mut out);
            std::hint::black_box(&out);
        });
        let base = BenchRecord::new(&format!("fake_quant_round_trip_{name}"), 1, ns_ref, elems);
        let fast = BenchRecord::new(&format!("fake_quant_f32_{name}"), 1, ns_new, elems).vs(&base);
        summary.push((
            format!("fake_quant_speedup_{name}_t1"),
            fast.speedup.unwrap(),
        ));
        records.extend([base, fast]);

        let mut quants = vec![vec![0f32; x.numel()]; qps.len()];
        let ns_ref = bench(&format!("relaxed_k3_materialized_{name}_t1"), || {
            relaxed_materialized(&qps, &w, x.data(), &mut quants, &mut out);
            std::hint::black_box(&out);
        });
        let ns_new = bench(&format!("relaxed_k3_fused_{name}_t1"), || {
            relaxed_fused(&qps, &w, x.data(), &mut out);
            std::hint::black_box(&out);
        });
        let work = elems * qps.len() as u64;
        let base = BenchRecord::new(&format!("relaxed_k3_materialized_{name}"), 1, ns_ref, work);
        let fast = BenchRecord::new(&format!("relaxed_k3_fused_{name}"), 1, ns_new, work).vs(&base);
        summary.push((
            format!("relaxed_k3_speedup_{name}_t1"),
            fast.speedup.unwrap(),
        ));
        records.extend([base, fast]);

        let g = Matrix::from_fn(n, 64, |_, _| rng.normal());
        let wt = Matrix::from_fn(feat, 64, |_, _| rng.normal());
        let macs = (n * 64 * feat) as u64;
        let ns_ref = bench(&format!("matmul_a_bt_layer0_{name}_naive_t1"), || {
            std::hint::black_box(g.matmul_a_bt_unblocked(&wt));
        });
        let ns_new = bench(&format!("matmul_a_bt_layer0_{name}_t1"), || {
            std::hint::black_box(g.matmul_a_bt(&wt));
        });
        let base = BenchRecord::new(&format!("matmul_a_bt_layer0_{name}_naive"), 1, ns_ref, macs);
        let fast =
            BenchRecord::new(&format!("matmul_a_bt_layer0_{name}"), 1, ns_new, macs).vs(&base);
        summary.push((
            format!("matmul_a_bt_layer0_speedup_{name}_t1"),
            fast.speedup.unwrap(),
        ));
        records.extend([base, fast]);
    }
}

/// Bit identity of each training-tape kernel against its reference form,
/// on small awkward shapes (with IEEE specials in the fake-quant inputs).
fn check_tape_kernels() {
    let mut rng = Rng::seed_from_u64(61);
    let mut x = Matrix::from_fn(37, 29, |_, _| rng.normal());
    for (i, s) in [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-42]
        .into_iter()
        .enumerate()
    {
        x.data_mut()[i * 7] = s;
    }
    let (mut r1, mut r2) = (Rng::seed_from_u64(67), Rng::seed_from_u64(67));
    let want = dropout_on_tape(&x, &mut r1, dropout_bernoulli);
    let got = dropout_on_tape(&x, &mut r2, dropout_select);
    assert_eq!(bits(got.data()), bits(want.data()), "dropout");
    assert_eq!(r1.state(), r2.state(), "dropout RNG draws");

    let (qps, w) = relaxed_menu(&x.data()[8..]);
    let (mut a, mut b) = (vec![0f32; x.numel()], vec![0f32; x.numel()]);
    for qp in qps {
        fake_round_trip(&qp, x.data(), &mut a);
        fake_vectorized(&qp, x.data(), &mut b);
        assert_eq!(bits(&a), bits(&b), "fake_quant {qp:?}");
    }
    let mut quants = vec![vec![0f32; x.numel()]; qps.len()];
    relaxed_materialized(&qps, &w, x.data(), &mut quants, &mut a);
    relaxed_fused(&qps, &w, x.data(), &mut b);
    assert_eq!(bits(&a), bits(&b), "relaxed k=3");

    let g = Matrix::from_fn(
        41,
        64,
        |r, c| if (r + c) % 6 == 0 { 0.0 } else { rng.normal() },
    );
    let mut wt = Matrix::from_fn(67, 64, |_, _| rng.normal());
    wt.data_mut()[5] = f32::INFINITY;
    assert_eq!(
        bits(g.matmul_a_bt(&wt).data()),
        bits(g.matmul_a_bt_unblocked(&wt).data()),
        "matmul_a_bt"
    );
}

/// The classifier layer's operands at `n` nodes and `classes` outputs of a
/// 64-unit hidden layer: post-ReLU activations `H` (about half exact
/// zeros), the weight `W` and an output gradient `dY`.
fn classifier_operands(n: usize, classes: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = Rng::seed_from_u64(seed);
    let h = Matrix::from_fn(n, 64, |_, _| rng.normal().max(0.0));
    let w = Matrix::from_fn(64, classes, |_, _| rng.normal() * 0.2);
    let dy = Matrix::from_fn(n, classes, |_, _| rng.normal());
    (h, w, dy)
}

/// The classifier layer of `cora-t1` (1500 nodes, 64 → 7) and `reddit-t1`
/// (8000 nodes, 64 → 12) at 1 thread: the forward product `H·W` and the
/// weight gradient `Hᵀ·dY` against the unblocked kernels, and the INT8
/// engine's requantized `H·W` on 8-bit codes (absolute).
fn classifier_records(records: &mut Vec<BenchRecord>, summary: &mut Vec<(String, f64)>) {
    set_num_threads(1);
    type GemmFn = fn(&Matrix, &Matrix) -> Matrix;
    for (name, n, classes) in [("cora", 1500usize, 7usize), ("reddit", 8000, 12)] {
        let (h, w, dy) = classifier_operands(n, classes, 71);
        let macs = (n * 64 * classes) as u64;
        let products: [(&str, GemmFn, GemmFn, &Matrix); 2] = [
            ("matmul", Matrix::matmul_unblocked, Matrix::matmul, &w),
            (
                "matmul_at_b",
                Matrix::matmul_at_b_unblocked,
                Matrix::matmul_at_b,
                &dy,
            ),
        ];
        for (op, naive, tiled, rhs) in products {
            let rec = format!("{op}_classifier_{name}");
            let ns_ref = bench(&format!("{rec}_naive_t1"), || {
                std::hint::black_box(naive(&h, rhs)).recycle();
            });
            let ns_new = bench(&format!("{rec}_t1"), || {
                std::hint::black_box(tiled(&h, rhs)).recycle();
            });
            let base = BenchRecord::new(&format!("{rec}_naive"), 1, ns_ref, macs);
            let fast = BenchRecord::new(&rec, 1, ns_new, macs).vs(&base);
            summary.push((format!("{rec}_speedup_t1"), fast.speedup.unwrap()));
            records.extend([base, fast]);
        }

        let y = h.matmul(&w);
        let xq = QTensor::quantize(&h, QuantParams::from_min_max(0.0, h.max(), 8));
        let wq = QTensor::quantize(&w, QuantParams::from_min_max(w.min(), w.max(), 8));
        let out_qp = QuantParams::from_min_max(y.min(), y.max(), 8);
        let bias: Vec<f32> = (0..classes).map(|j| 0.01 * j as f32).collect();
        let rec = format!("int_matmul_requant_classifier_{name}");
        let ns = bench(&format!("{rec}_t1"), || {
            std::hint::black_box(int_matmul_requant(&xq, &wq, Some(&bias), out_qp));
        });
        records.push(BenchRecord::new(&rec, 1, ns, macs));
    }
}

/// Bit identity of the classifier-width products on the narrow register
/// tile against the unblocked kernels, at row counts that are not a
/// multiple of the 4-row tile: first on finite operands, then with ±inf
/// and NaN in `W` and `dY` facing the zeros of `H`.
fn check_classifier_kernels() {
    for (n, classes) in [(301usize, 7usize), (298, 12)] {
        let (h, mut w, mut dy) = classifier_operands(n, classes, 73);
        for pass in ["finite", "specials"] {
            assert_eq!(
                bits(h.matmul(&w).data()),
                bits(h.matmul_unblocked(&w).data()),
                "classifier matmul, {n}×64·64×{classes}, {pass}"
            );
            assert_eq!(
                bits(h.matmul_at_b(&dy).data()),
                bits(h.matmul_at_b_unblocked(&dy).data()),
                "classifier matmul_at_b, {n}×64, {pass}"
            );
            w.data_mut()[classes + 1] = f32::INFINITY;
            w.data_mut()[3 * classes] = f32::NEG_INFINITY;
            dy.data_mut()[2] = f32::NAN;
            dy.data_mut()[7 * classes + 1] = f32::INFINITY;
        }
    }
}

/// Full measurement run: the headline numbers are the single-thread tiled
/// GEMM speedup (acceptance bar: ≥ 1.5× on 512³) and the balanced-vs-row
/// chunked SpMM ratio at 4 threads on the hub-heavy graph.
fn full_run() {
    let mut records: Vec<BenchRecord> = Vec::new();

    // ---- dense GEMM, single thread (isolates the micro-kernel) ----------
    set_num_threads(1);
    let d = 512usize;
    let macs = (d * d * d) as u64;
    let mut rng = Rng::seed_from_u64(7);
    let a = Matrix::from_fn(d, d, |_, _| rng.normal());
    let b = Matrix::from_fn(d, d, |_, _| rng.normal());

    type GemmFn = fn(&Matrix, &Matrix) -> Matrix;
    let gemms: [(&str, GemmFn, GemmFn); 3] = [
        ("matmul_512", Matrix::matmul_unblocked, Matrix::matmul),
        (
            "matmul_at_b_512",
            Matrix::matmul_at_b_unblocked,
            Matrix::matmul_at_b,
        ),
        (
            "matmul_a_bt_512",
            Matrix::matmul_a_bt_unblocked,
            Matrix::matmul_a_bt,
        ),
    ];
    let mut matmul_speedup = 0.0;
    for (name, naive, tiled) in gemms {
        let ns_naive = bench(&format!("{name}_naive_t1"), || {
            std::hint::black_box(naive(&a, &b));
        });
        let ns_tiled = bench(&format!("{name}_tiled_t1"), || {
            std::hint::black_box(tiled(&a, &b));
        });
        let base = BenchRecord::new(&format!("{name}_naive"), 1, ns_naive, macs);
        let fast = BenchRecord::new(&format!("{name}_tiled"), 1, ns_tiled, macs).vs(&base);
        if name == "matmul_512" {
            matmul_speedup = fast.speedup.unwrap();
        }
        records.push(base);
        records.push(fast);
    }

    // ---- f32 SpMM on a hub-heavy power-law graph -------------------------
    let n = 20_000usize;
    let f = 64usize;
    let adj = powerlaw_csr(n, 32, 2000, 8, 11);
    let x = dense_features(n, f, 13);
    let mut y = vec![0.0f32; n * f];
    let spmm_macs = (adj.nnz() * f) as u64;

    set_num_threads(1);
    let ns_serial = bench("spmm_f32_powerlaw_t1", || {
        adj.spmm_into(&x, f, &mut y);
        std::hint::black_box(&y);
    });
    let serial = BenchRecord::new("spmm_f32_powerlaw_serial", 1, ns_serial, spmm_macs);

    set_num_threads(4);
    let ns_rows = bench("spmm_f32_powerlaw_row_chunked_t4", || {
        adj.spmm_into_row_chunked(&x, f, &mut y);
        std::hint::black_box(&y);
    });
    let ns_bal = bench("spmm_f32_powerlaw_balanced_t4", || {
        adj.spmm_into(&x, f, &mut y);
        std::hint::black_box(&y);
    });
    let row_chunked =
        BenchRecord::new("spmm_f32_powerlaw_row_chunked", 4, ns_rows, spmm_macs).vs(&serial);
    let balanced = BenchRecord::new("spmm_f32_powerlaw_balanced", 4, ns_bal, spmm_macs).vs(&serial);
    let balanced_vs_rows = ns_rows / ns_bal;

    // ---- integer SpMM: i32 fast path vs forced i64 -----------------------
    // Small magnitudes keep max_row_nnz · max|a| · max|x| within i32 (the
    // narrow accumulator path); large ones overflow the bound and take the
    // i64 path. Same structure, so the ratio isolates the accumulator; the
    // portable kernel keeps the small codes off the SIMD arm.
    let qa_small = quantize(&adj, 7, 4);
    let xi_small = int_features(n, f, 7, 17);
    let qa_big = quantize(&adj, 60_000, 16);
    let xi_big = int_features(n, f, 60_000, 19);
    let ns_i32 = bench("spmm_int_powerlaw_i32_t4", || {
        std::hint::black_box(spmm_int_portable(&qa_small, &xi_small, f));
    });
    let ns_i64 = bench("spmm_int_powerlaw_i64_t4", || {
        std::hint::black_box(spmm_int_portable(&qa_big, &xi_big, f));
    });
    let wide = BenchRecord::new("spmm_int_powerlaw_i64", 4, ns_i64, spmm_macs);
    let narrow = BenchRecord::new("spmm_int_powerlaw_i32", 4, ns_i32, spmm_macs).vs(&wide);

    records.push(serial);
    records.push(row_chunked);
    records.push(balanced);
    records.push(wide);
    records.push(narrow);

    // ---- Theorem-1 layer vs f32 SpMM, widths 64 and 12, single thread ----
    // The whole INT8 aggregation (`quantized_spmm`: integer rows, row sums
    // and the correction to output codes) against `CsrMatrix::spmm` on the
    // same normalized adjacency, at the hidden width (64) and the layer-1
    // width of `reddit-t1` (12); `speedup` > 1 means the integer layer wins.
    // `quantized_spmm_portable` is the same layer without the SIMD arm.
    set_num_threads(1);
    let mut theorem1 = Vec::new();
    for (name, ds) in [
        ("cora", cora_like(1)),
        ("arxiv", arxiv_like(1)),
        ("reddit", reddit_like(1)),
    ] {
        let adj = gcn_normalize(&ds.adj);
        let n = adj.rows();
        let (qa, sa) = quantize_csr_symmetric(&adj, 8);
        for (sfx, f) in [("", 64usize), ("_f12", 12)] {
            let macs = (adj.nnz() * f) as u64;
            let x = dense_features(n, f, 43);
            let ns_f32 = bench(&format!("spmm_f32_{name}{sfx}_t1"), || {
                std::hint::black_box(adj.spmm(&x, f));
            });
            let qx = int_features(n, f, 127, 47);
            let p = QmpParams::per_tensor(n, f, sa, 0, 0.01, 3, 0.02, 0, -128, 127);
            let ns_portable = bench(&format!("theorem1_int8_portable_{name}{sfx}_t1"), || {
                std::hint::black_box(quantized_spmm_portable(&qa, &qx, f, &p));
            });
            let ns_int = bench(&format!("theorem1_int8_{name}{sfx}_t1"), || {
                std::hint::black_box(quantized_spmm(&qa, &qx, f, &p));
            });
            let base = BenchRecord::new(&format!("spmm_f32_{name}{sfx}"), 1, ns_f32, macs);
            let portable = BenchRecord::new(
                &format!("theorem1_int8_portable_{name}{sfx}"),
                1,
                ns_portable,
                macs,
            )
            .vs(&base);
            let layer = BenchRecord::new(&format!("theorem1_int8_{name}{sfx}"), 1, ns_int, macs)
                .vs(&portable);
            theorem1.push((
                format!("theorem1_int8_vs_f32_{name}{sfx}_t1"),
                ns_f32 / ns_int,
            ));
            theorem1.push((
                format!("theorem1_int8_vs_portable_{name}{sfx}_t1"),
                ns_portable / ns_int,
            ));
            records.extend([base, portable, layer]);
        }
    }

    // Thread-count records only mean what they say relative to the host:
    // on a single-CPU box the 4-thread schedules time-slice one core, so
    // the balanced-vs-row-chunked wall-clock gap collapses to scheduling
    // noise there. The *imbalance factor* (heaviest chunk nnz ÷ ideal
    // nnz/chunk) is the host-independent quality metric: with enough cores
    // a schedule's parallel runtime is proportional to its heaviest chunk,
    // so row-chunked forfeits roughly `imbalance_row_chunked /
    // imbalance_balanced` of the potential speedup on this graph.
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let imbalance = |bounds: &[usize]| -> f64 {
        let rp = adj.row_ptr();
        let max_chunk = bounds
            .windows(2)
            .map(|w| rp[w[1]] - rp[w[0]])
            .max()
            .unwrap_or(0);
        max_chunk as f64 / (adj.nnz() as f64 / (bounds.len() - 1) as f64)
    };
    let row_bounds: Vec<usize> = (0..=4).map(|i| i * n / 4).collect();
    let imbalance_rows = imbalance(&row_bounds);
    let imbalance_bal = imbalance(&nnz_balanced_bounds(adj.row_ptr(), 4));

    let mut tape_summary = Vec::new();
    tape_kernel_records(&mut records, &mut tape_summary);
    classifier_records(&mut records, &mut tape_summary);

    let mut summary = vec![
        ("host_cpus", host_cpus as f64),
        ("matmul_512_tiled_speedup_t1", matmul_speedup),
        ("spmm_balanced_vs_row_chunked_t4", balanced_vs_rows),
        ("spmm_balanced_t4_vs_serial", ns_serial / ns_bal),
        ("spmm_imbalance_row_chunked_t4", imbalance_rows),
        ("spmm_imbalance_balanced_t4", imbalance_bal),
    ];
    summary.extend(theorem1.iter().map(|(k, v)| (k.as_str(), *v)));
    summary.extend(tape_summary.iter().map(|(k, v)| (k.as_str(), *v)));
    let path = Path::new("BENCH_kernels.json");
    match mixq_bench::write_json(path, &records, &summary) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
    println!(
        "matmul 512^3 tiled speedup (1 thread): {matmul_speedup:.2}x; \
         balanced vs row-chunked SpMM (4 threads, {host_cpus} cpu(s)): {balanced_vs_rows:.2}x; \
         nnz imbalance row-chunked {imbalance_rows:.2} vs balanced {imbalance_bal:.2}"
    );
    for (k, v) in &theorem1 {
        println!("{k}: {v:.2}x");
    }
}

/// CI smoke drill: cheap correctness + telemetry-counter coverage, no
/// `BENCH_kernels.json` (measurements under CI load are noise).
fn smoke_run() {
    // Tiled kernels must be bit-identical to the naive ones on shapes that
    // exercise every remainder path (non-multiples of the 4×8 tile).
    let mut rng = Rng::seed_from_u64(23);
    let a = Matrix::from_fn(
        41,
        33,
        |r, c| {
            if (r + c) % 5 == 0 {
                0.0
            } else {
                rng.normal()
            }
        },
    );
    let b = Matrix::from_fn(33, 21, |_, _| rng.normal());
    assert_eq!(a.matmul(&b).data(), a.matmul_unblocked(&b).data());
    let at = Matrix::from_fn(33, 41, |_, _| rng.normal());
    assert_eq!(
        at.matmul_at_b(&b).data(),
        at.matmul_at_b_unblocked(&b).data()
    );
    let bt = Matrix::from_fn(21, 33, |_, _| rng.normal());
    assert_eq!(
        a.matmul_a_bt(&bt).data(),
        a.matmul_a_bt_unblocked(&bt).data()
    );

    check_tape_kernels();
    check_classifier_kernels();

    // Every integer-SpMM arm, each checked against the portable arms: 4-bit
    // codes take the SIMD arm where the host has it, activations spanning
    // more than 255 the i32 accumulators, 16-bit codes the i64 ones. Two
    // threads (regardless of host cores — this is a code-path drill, not a
    // measurement) so the nnz-balanced scheduler actually engages.
    set_num_threads(2);
    let adj = powerlaw_csr(400, 4, 64, 4, 29);
    let qa_small = quantize(&adj, 7, 4);
    let qa_big = quantize(&adj, 60_000, 16);
    for f in [8usize, 12, 64, 65] {
        for (qa, max_abs) in [(&qa_small, 7), (&qa_small, 1000), (&qa_big, 60_000)] {
            let x = int_features(400, f, max_abs, 31);
            assert_eq!(
                spmm_int(qa, &x, f),
                spmm_int_portable(qa, &x, f),
                "spmm_int arms diverged (f={f}, |x| ≤ {max_abs})"
            );
        }
    }
    // The Theorem-1 layer on both row kernels, on the INT8 hidden and
    // layer-1 widths of a generated graph.
    let ds = cora_like(5);
    let cora_adj = gcn_normalize(&ds.adj);
    let (qa, sa) = quantize_csr_symmetric(&cora_adj, 8);
    let n = cora_adj.rows();
    for f in [64usize, 12] {
        let qx = int_features(n, f, 127, 47);
        let p = QmpParams::per_tensor(n, f, sa, 0, 0.01, 3, 0.02, 0, -128, 127);
        assert_eq!(
            quantized_spmm(&qa, &qx, f, &p),
            quantized_spmm_portable(&qa, &qx, f, &p),
            "Theorem-1 layer arms diverged (f={f})"
        );
    }

    // Balanced and row-chunked f32 schedules agree bit-for-bit.
    let f = 8usize;
    let x = dense_features(400, f, 41);
    let mut y_bal = vec![0.0f32; 400 * f];
    let mut y_rows = vec![0.0f32; 400 * f];
    adj.spmm_into(&x, f, &mut y_bal);
    adj.spmm_into_row_chunked(&x, f, &mut y_rows);
    assert_eq!(
        y_bal.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        y_rows.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );

    // Three training epochs: epoch 1 fills the buffer pool, epochs 2-3 run
    // on recycled buffers — `pool.hit_bytes` must be nonzero afterwards.
    let bundle = NodeBundle::new(&ds);
    let mut ps = ParamSet::new();
    let dims = [ds.feat_dim(), 16, ds.num_classes()];
    let mut net = GcnNet::new(&mut ps, &dims, 0.5, &mut Rng::seed_from_u64(43));
    let cfg = TrainConfig {
        epochs: 3,
        patience: 0,
        ..TrainConfig::default()
    };
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, &cfg);
    assert!(rep.final_train_loss.is_finite(), "smoke training diverged");
    let stats = mixq_tensor::pool::thread_stats();
    assert!(
        stats.hit_bytes > 0,
        "buffer pool saw no reuse across epochs (hits={}, misses={})",
        stats.hits,
        stats.misses
    );

    if mixq_telemetry::enabled() {
        match mixq_telemetry::write_report("kernel_bench") {
            Ok(p) => println!("telemetry report written to {}", p.display()),
            Err(e) => eprintln!("telemetry report failed: {e}"),
        }
    }
    println!("kernel_bench --smoke: OK");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        smoke_run();
    } else {
        full_run();
    }
}
