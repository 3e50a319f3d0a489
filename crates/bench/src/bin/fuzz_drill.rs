//! Property-fuzz conformance drill: one representative generated-case suite
//! per differential-testing family, run as a standalone binary so CI can pin
//! the executed case counts through telemetry.
//!
//! Families drilled (each a `mixq-proptest` suite with shrinking and
//! `MIXQ_PT_SEED` replay, case budgets overridable via `MIXQ_PT_CASES`):
//!
//! * `drill.theorem1` — the fused integer sparse aggregation vs the
//!   two-pass form it replaced, the dense general form, and an f64
//!   dequantize-multiply-requantize reference (Theorem 1).
//! * `drill.quant_edges` — `QuantParams::from_min_max` over NaN/±inf/
//!   subnormal/extreme endpoints stays well-formed.
//! * `drill.autograd` — finite-difference gradcheck of a small tape program
//!   (matmul → relu → spmm → square → sum).
//! * `drill.parallel` — threaded kernels bit-identical to the serial path.
//! * `drill.qcsr` — `QuantCsr` integer SpMM vs a dense i64 contraction on
//!   isolation-heavy degree-skewed graphs.
//!
//! The runner bumps `proptest.cases` / `proptest.<suite>.cases` per executed
//! case; `ci.sh` runs this with `MIXQ_TELEMETRY=1 MIXQ_PT_CASES=32` and
//! asserts the exact totals with `telemetry_check`, so a suite that silently
//! stops generating fails the build.

use std::sync::Arc;

use mixq_core::{quantized_matmul_dense, quantized_spmm, QmpParams};
use mixq_proptest::{f32_with_specials, graph, usize_in, Config, Gen, GraphConfig, RandomGraph};
use mixq_sparse::{spmm_int, QuantCsr};
use mixq_tensor::{assert_close_tol, numeric_grad, Matrix, QuantParams, Rng, SpPair, Tape};

/// f64 reference for Theorem 1: dequantize the codes, multiply, requantize.
fn reference(qa: &[i32], n: usize, m: usize, qx: &[i32], f: usize, p: &QmpParams) -> Vec<i32> {
    let mut out = vec![0i32; n * f];
    for i in 0..n {
        for j in 0..f {
            let mut acc = 0f64;
            for k in 0..m {
                let a = (qa[i * m + k] - p.za[i]) as f64 * p.sa[i] as f64;
                let x = (qx[k * f + j] - p.zx[j]) as f64 * p.sx[j] as f64;
                acc += a * x;
            }
            let q = (acc / p.sy[j] as f64).round_ties_even() as i64 + p.zy[j] as i64;
            out[i * f + j] = q.clamp(p.y_qmin as i64, p.y_qmax as i64) as i32;
        }
    }
    out
}

/// The sparse Theorem-1 form before fusion, kept test-local so that it
/// shares no code with the kernel under test: the integer product in `i64`,
/// the row sums as a separate pass, then the `f64` correction per element.
fn two_pass(qa: &QuantCsr, qx: &[i32], f: usize, p: &QmpParams) -> Vec<i32> {
    let mut out = vec![0i32; qa.rows() * f];
    for i in 0..qa.rows() {
        let mut prod = vec![0i64; f];
        let mut row_sum = 0i64;
        for (c, v) in qa.row(i) {
            row_sum += v as i64;
            for (j, acc) in prod.iter_mut().enumerate() {
                *acc += v as i64 * qx[c * f + j] as i64;
            }
        }
        for j in 0..f {
            let corrected = prod[j] - p.zx[j] as i64 * row_sum;
            let real = p.sa[i] as f64 * p.sx[j] as f64 * corrected as f64 / p.sy[j] as f64;
            let q = real.round_ties_even() as i64 + p.zy[j] as i64;
            out[i * f + j] = q.clamp(p.y_qmin as i64, p.y_qmax as i64) as i32;
        }
    }
    out
}

/// Shrinkable structure (graph, feature width) from the generators; the
/// per-case codes and quantization vectors derive from a generated seed so
/// the structure shrinks while the data stays deterministic.
fn graph_case(max_nodes: usize) -> Gen<(RandomGraph, usize, u64)> {
    let cfg = GraphConfig {
        min_nodes: 1,
        max_nodes,
        max_degree: 6,
        degree_alpha: 2.5,
        isolated_frac: 0.25,
        self_loops: true,
        val_lo: -7.0,
        val_hi: 7.0,
    };
    graph(cfg)
        .zip(&usize_in(1, 4))
        .zip(&usize_in(0, 1 << 20))
        .map(|&((ref g, f), seed)| (g.clone(), f, seed as u64))
}

/// Sparse Theorem-1 conformance: the fused sparse kernel, the two-pass
/// form, the dense general form, and the f64 reference must agree
/// bit-exactly on generated graphs.
fn drill_theorem1() {
    Config::new("drill.theorem1")
        .cases(96)
        .run(&graph_case(16), |&(ref g, f, seed)| {
            let n = g.nodes;
            let mut rng = Rng::seed_from_u64(seed);
            let qx: Vec<i32> = (0..n * f)
                .map(|_| rng.gen_range(256) as i32 - 128)
                .collect();
            let sa: Vec<f32> = (0..n).map(|_| rng.uniform_in(0.01, 0.5)).collect();
            let sx: Vec<f32> = (0..f).map(|_| rng.uniform_in(0.01, 0.5)).collect();
            let zx: Vec<i32> = (0..f).map(|_| rng.gen_range(21) as i32 - 10).collect();
            let sy: Vec<f32> = (0..f).map(|_| rng.uniform_in(0.05, 1.0)).collect();
            let zy: Vec<i32> = (0..f).map(|_| rng.gen_range(11) as i32 - 5).collect();
            let p = QmpParams {
                sa,
                za: vec![0; n], // the sparse fast path requires Z_a = 0
                sx,
                zx,
                sy,
                zy,
                y_qmin: -128,
                y_qmax: 127,
            };

            let qcsr = QuantCsr::from_csr(&g.to_csr(), 4, |_, _, v| v.round_ties_even() as i32);
            let mut qa = vec![0i32; n * n];
            for &(s, d, v) in &g.edges {
                qa[s * n + d] = v.round_ties_even() as i32;
            }

            let sparse = quantized_spmm(&qcsr, &qx, f, &p);
            assert_eq!(
                sparse,
                two_pass(&qcsr, &qx, f, &p),
                "fused kernel diverged from the two-pass form (nodes={n}, nnz={})",
                g.nnz()
            );
            let dense = quantized_matmul_dense(&qa, n, n, &qx, f, &p);
            assert_eq!(
                sparse,
                dense,
                "sparse fast path diverged from dense form (nodes={n}, nnz={})",
                g.nnz()
            );
            assert_eq!(
                dense,
                reference(&qa, n, n, &qx, f, &p),
                "dense form diverged from f64 reference (nodes={n}, f={f})"
            );
        });
}

/// Quantizer construction over special endpoints: every combination must
/// yield a finite positive scale, an in-range zero point, exact zero
/// round-trip, and finite dequantization of both extreme codes.
fn drill_quant_edges() {
    let endpoint = f32_with_specials(-1e30, 1e30, 0.4);
    let gen = endpoint.zip(&endpoint).zip(&mixq_proptest::bits());
    Config::new("drill.quant_edges")
        .cases(128)
        .run(&gen, |&((lo, hi), bits)| {
            let qp = QuantParams::from_min_max(lo, hi, bits);
            let ctx = format!("from_min_max({lo}, {hi}, {bits})");
            assert!(
                qp.scale.is_finite() && qp.scale > 0.0,
                "{ctx}: scale {} must be positive finite",
                qp.scale
            );
            assert!(
                qp.qmin <= qp.zero_point && qp.zero_point <= qp.qmax,
                "{ctx}: zero point {} escaped [{}, {}]",
                qp.zero_point,
                qp.qmin,
                qp.qmax
            );
            assert_eq!(qp.fake(0.0), 0.0, "{ctx}: zero must round-trip exactly");
            assert!(qp.dequantize(qp.qmin).is_finite(), "{ctx}");
            assert!(qp.dequantize(qp.qmax).is_finite(), "{ctx}");
        });
}

/// Forward+backward tape program used by the autograd and parallel drills.
fn run_program(pair: &Arc<SpPair>, x: &Matrix, w: &Matrix) -> (f32, Matrix, Matrix) {
    let mut t = Tape::new();
    let xv = t.leaf(x.clone());
    let wv = t.leaf(w.clone());
    let xw = t.matmul(xv, wv);
    let h = t.relu(xw);
    let y = t.spmm(pair, h);
    let y2 = t.mul(y, y);
    let loss = t.sum_all(y2);
    t.backward(loss);
    (
        t.value(loss).item(),
        t.grad(xv).unwrap().clone(),
        t.grad(wv).unwrap().clone(),
    )
}

/// Finite-difference gradcheck of the tape program on generated graphs and
/// shapes; inputs are kept away from the ReLU kink so central differences
/// are valid.
fn drill_autograd() {
    Config::new("drill.autograd")
        .cases(24)
        .run(&graph_case(10), |&(ref g, hidden, seed)| {
            let n = g.nodes;
            let pair = Arc::new(SpPair::new(g.to_csr()));
            let mut rng = Rng::seed_from_u64(seed);
            let feats = 1 + (seed as usize % 3);
            let off = |v: f32| v + 0.05f32.copysign(v);
            let x = Matrix::from_fn(n, feats, |_, _| off(rng.uniform_in(-1.0, 1.0)));
            let w = Matrix::from_fn(feats, hidden, |_, _| off(rng.uniform_in(-1.0, 1.0)));

            let (_, dx, dw) = run_program(&pair, &x, &w);
            let num_dx = numeric_grad(|xp| run_program(&pair, xp, &w).0, &x, 1e-3);
            let num_dw = numeric_grad(|wp| run_program(&pair, &x, wp).0, &w, 1e-3);
            assert_close_tol(&dx, &num_dx, 2e-2, 2e-2, "drill dX");
            assert_close_tol(&dw, &num_dw, 2e-2, 2e-2, "drill dW");
        });
}

/// Threaded kernels and gradients bit-identical to the serial path across
/// generated shapes, graphs and thread counts.
fn drill_parallel() {
    mixq_parallel::set_parallel_row_threshold(0); // thread even tiny shapes

    let gen = graph_case(20).zip(&usize_in(2, 6));
    Config::new("drill.parallel")
        .cases(48)
        .run(&gen, |&((ref g, hidden, seed), threads)| {
            let n = g.nodes;
            let pair = Arc::new(SpPair::new(g.to_csr()));
            let mut rng = Rng::seed_from_u64(seed);
            let feats = 1 + (seed as usize % 4);
            let x = Matrix::from_fn(n, feats, |_, _| rng.uniform_in(-2.0, 2.0));
            let w = Matrix::from_fn(feats, hidden, |_, _| rng.uniform_in(-1.0, 1.0));

            mixq_parallel::set_num_threads(1);
            let (loss_s, dx_s, dw_s) = run_program(&pair, &x, &w);
            mixq_parallel::set_num_threads(threads);
            let (loss_p, dx_p, dw_p) = run_program(&pair, &x, &w);
            mixq_parallel::set_num_threads(1);

            assert_eq!(
                loss_s.to_bits(),
                loss_p.to_bits(),
                "loss @ {threads} threads"
            );
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dx_s), bits(&dx_p), "dX @ {threads} threads");
            assert_eq!(bits(&dw_s), bits(&dw_p), "dW @ {threads} threads");
        });

    mixq_parallel::set_parallel_row_threshold(mixq_parallel::DEFAULT_ROW_THRESHOLD);
}

/// `QuantCsr` integer SpMM equals the dense i64 contraction on graphs biased
/// toward pathology (isolated nodes, hub rows).
fn drill_qcsr() {
    Config::new("drill.qcsr")
        .cases(96)
        .run(&graph_case(24), |&(ref g, f, seed)| {
            let q = QuantCsr::from_csr(&g.to_csr(), 4, |_, _, v| v.round_ties_even() as i32);
            let mut rng = Rng::seed_from_u64(seed);
            let x: Vec<i32> = (0..g.nodes * f)
                .map(|_| rng.gen_range(256) as i32 - 128)
                .collect();
            let mut want = vec![0i64; q.rows() * f];
            for r in 0..q.rows() {
                for (c, v) in q.row(r) {
                    for j in 0..f {
                        want[r * f + j] += v as i64 * x[c * f + j] as i64;
                    }
                }
            }
            assert_eq!(
                spmm_int(&q, &x, f),
                want,
                "integer SpMM diverged (nodes={}, nnz={}, f={f})",
                g.nodes,
                q.nnz()
            );
        });
}

fn main() {
    let suites: [(&str, fn()); 5] = [
        ("drill.theorem1", drill_theorem1),
        ("drill.quant_edges", drill_quant_edges),
        ("drill.autograd", drill_autograd),
        ("drill.parallel", drill_parallel),
        ("drill.qcsr", drill_qcsr),
    ];
    for (name, run) in suites {
        run();
        println!("fuzz_drill: suite '{name}' passed");
    }
    if mixq_telemetry::enabled() {
        match mixq_telemetry::write_report("fuzz_drill") {
            Ok(p) => println!("telemetry report written to {}", p.display()),
            Err(e) => eprintln!("telemetry report failed: {e}"),
        }
    }
    println!("fuzz_drill: OK ({} suites)", suites.len());
}
