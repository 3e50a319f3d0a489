//! Differential conformance fuzzing of Theorem 1.
//!
//! The paper's central claim is that `Q_y(AX)` computed *entirely from
//! integer codes* (`quantized_matmul_dense` / `quantized_spmm`) equals
//! quantizing the floating-point product of the dequantized operands. These
//! suites generate random codes, quantization vectors, and CSR graphs —
//! including degree-skewed, isolated-node, and self-loop regimes — and
//! assert bit-exact agreement against an f64 dequantize-then-multiply
//! reference. Failures shrink to a minimal graph/code configuration and
//! print a replayable `MIXQ_PT_SEED`.
//!
//! The fused kernels are also held to the forms they replaced, bit for bit:
//! `quantized_spmm` and `quantized_spmm_portable` (its row kernel without
//! the SIMD arm) against a test-local two-pass form (`i64` product, then
//! the `f64` correction), `int_matmul_requant` against the `i64`/`i128`
//! product, and `QTensor::quantize` against `QuantParams::quantize`.

use mixq_core::{
    fixed_point_multiply, int_matmul_requant, int_matmul_requant_portable, quantize_multiplier,
    quantized_matmul_dense, quantized_spmm, quantized_spmm_portable, QTensor, QmpParams,
};
use mixq_proptest::{
    f32_in, f32_with_specials, graph, i32_in, quant_params, usize_in, Config, Gen, GraphConfig,
    RandomGraph, F32_SPECIALS,
};
use mixq_sparse::QuantCsr;
use mixq_tensor::{Matrix, QuantParams, Rng};

/// Reference: dequantize the codes to f64, multiply, requantize.
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

#[derive(Clone, Debug)]
struct DenseCase {
    n: usize,
    m: usize,
    f: usize,
    qa: Vec<i32>,
    qx: Vec<i32>,
    sa: Vec<f32>,
    za: Vec<i32>,
    sx: Vec<f32>,
    zx: Vec<i32>,
    sy: Vec<f32>,
    zy: Vec<i32>,
}

impl DenseCase {
    fn params(&self) -> QmpParams {
        QmpParams {
            sa: self.sa.clone(),
            za: self.za.clone(),
            sx: self.sx.clone(),
            zx: self.zx.clone(),
            sy: self.sy.clone(),
            zy: self.zy.clone(),
            y_qmin: -128,
            y_qmax: 127,
        }
    }
}

/// Dense Theorem-1 case: arbitrary zero points on both operands, code
/// ranges spanning 4-bit adjacency × 8-bit activations.
fn dense_case() -> Gen<DenseCase> {
    let dims = usize_in(1, 6).zip(&usize_in(1, 6)).zip(&usize_in(1, 6));
    dims.bind(|&((n, m), f)| {
        let qa = i32_in(-8, 7).vec_of(n * m, n * m);
        let qx = i32_in(-128, 127).vec_of(m * f, m * f);
        let sa = f32_in(0.01, 0.5).vec_of(n, n);
        let za = i32_in(-3, 3).vec_of(n, n);
        let sx = f32_in(0.01, 0.5).vec_of(f, f);
        let zx = i32_in(-10, 10).vec_of(f, f);
        let sy = f32_in(0.05, 1.0).vec_of(f, f);
        let zy = i32_in(-5, 5).vec_of(f, f);
        qa.zip(&qx)
            .zip(&sa.zip(&za))
            .zip(&sx.zip(&zx))
            .zip(&sy.zip(&zy))
            .map(move |case| {
                let (((qaqx, saza), sxzx), syzy) = case.clone();
                DenseCase {
                    n,
                    m,
                    f,
                    qa: qaqx.0,
                    qx: qaqx.1,
                    sa: saza.0,
                    za: saza.1,
                    sx: sxzx.0,
                    zx: sxzx.1,
                    sy: syzy.0,
                    zy: syzy.1,
                }
            })
    })
}

#[test]
fn fuzz_dense_theorem1_matches_f64_reference() {
    Config::new("theorem1_dense")
        .cases(96)
        .run(&dense_case(), |c| {
            let p = c.params();
            let got = quantized_matmul_dense(&c.qa, c.n, c.m, &c.qx, c.f, &p);
            let want = reference(&c.qa, c.n, c.m, &c.qx, c.f, &p);
            assert_eq!(
                got, want,
                "integer Theorem-1 path diverged from f64 reference (n={}, m={}, f={})",
                c.n, c.m, c.f
            );
        });
}

#[derive(Clone, Debug)]
struct SparseCase {
    g: RandomGraph,
    f: usize,
    qx: Vec<i32>,
    sa: Vec<f32>,
    sx: Vec<f32>,
    zx: Vec<i32>,
    sy: Vec<f32>,
    zy: Vec<i32>,
}

impl SparseCase {
    fn params(&self) -> QmpParams {
        QmpParams {
            sa: self.sa.clone(),
            za: vec![0; self.g.nodes], // sparse path requires Z_a = 0
            sx: self.sx.clone(),
            zx: self.zx.clone(),
            sy: self.sy.clone(),
            zy: self.zy.clone(),
            y_qmin: -128,
            y_qmax: 127,
        }
    }

    /// The adjacency codes: edge weights rounded to integers. Structural
    /// zeros and rounded-to-zero edges agree between sparse and dense form
    /// by construction.
    fn dense_codes(&self) -> Vec<i32> {
        let n = self.g.nodes;
        let mut qa = vec![0i32; n * n];
        for &(s, d, v) in &self.g.edges {
            qa[s * n + d] = v.round_ties_even() as i32;
        }
        qa
    }

    fn qcsr(&self) -> QuantCsr {
        QuantCsr::from_csr(&self.g.to_csr(), 4, |_, _, v| v.round_ties_even() as i32)
    }
}

/// Sparse case over generated graphs: degree-skewed with isolated nodes and
/// self-loops, edge weights in the 4-bit code range.
fn sparse_case() -> Gen<SparseCase> {
    let cfg = GraphConfig {
        min_nodes: 1,
        max_nodes: 20,
        max_degree: 6,
        degree_alpha: 2.5,
        isolated_frac: 0.2,
        self_loops: true,
        val_lo: -7.0,
        val_hi: 7.0,
    };
    graph(cfg).zip(&usize_in(1, 5)).bind(|&(ref g, f)| {
        let n = g.nodes;
        let g = g.clone();
        let qx = i32_in(-128, 127).vec_of(n * f, n * f);
        let sa = f32_in(0.01, 0.5).vec_of(n, n);
        let sx = f32_in(0.01, 0.5).vec_of(f, f);
        let zx = i32_in(-10, 10).vec_of(f, f);
        let sy = f32_in(0.05, 1.0).vec_of(f, f);
        let zy = i32_in(-5, 5).vec_of(f, f);
        qx.zip(&sa)
            .zip(&sx.zip(&zx))
            .zip(&sy.zip(&zy))
            .map(move |case| {
                let ((qxsa, sxzx), syzy) = case.clone();
                SparseCase {
                    g: g.clone(),
                    f,
                    qx: qxsa.0,
                    sa: qxsa.1,
                    sx: sxzx.0,
                    zx: sxzx.1,
                    sy: syzy.0,
                    zy: syzy.1,
                }
            })
    })
}

/// The sparse fast path must agree bit-exactly with BOTH the dense general
/// form and the f64 reference, on graphs spanning the isolated-node /
/// hub-row / self-loop regimes.
#[test]
fn fuzz_sparse_theorem1_matches_dense_and_reference() {
    Config::new("theorem1_sparse")
        .cases(96)
        .run(&sparse_case(), |c| {
            let n = c.g.nodes;
            let p = c.params();
            let qa = c.dense_codes();
            let sparse = quantized_spmm(&c.qcsr(), &c.qx, c.f, &p);
            let dense = quantized_matmul_dense(&qa, n, n, &c.qx, c.f, &p);
            assert_eq!(
                sparse,
                dense,
                "sparse fast path diverged from dense form (nodes={n}, nnz={}, f={})",
                c.g.nnz(),
                c.f
            );
            let want = reference(&qa, n, n, &c.qx, c.f, &p);
            assert_eq!(
                dense, want,
                "dense form diverged from f64 reference (nodes={n}, f={})",
                c.f
            );
        });
}

/// Tight output ranges force clipping on nearly every element; both paths
/// must clip identically.
#[test]
fn fuzz_theorem1_clipping_is_bit_exact() {
    Config::new("theorem1_clip")
        .cases(48)
        .run(&dense_case(), |c| {
            let mut p = c.params();
            p.y_qmin = -2;
            p.y_qmax = 1;
            let got = quantized_matmul_dense(&c.qa, c.n, c.m, &c.qx, c.f, &p);
            let want = reference(&c.qa, c.n, c.m, &c.qx, c.f, &p);
            assert_eq!(got, want, "clipping behaviour diverged");
            assert!(got.iter().all(|&v| (-2..=1).contains(&v)));
        });
}

// ---- fused kernels against the forms they replaced --------------------------

/// The code widths the integer engine runs.
const WIDTHS: [u8; 4] = [2, 4, 8, 16];

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

/// Structure (graph, width, code widths of `A`, `X`, `Y`, zero-point mode)
/// from the generators; the codes and scales derive from a generated seed.
type FusedShape = (RandomGraph, usize, [u8; 3], usize, u64);

fn fused_case() -> Gen<FusedShape> {
    let cfg = GraphConfig {
        min_nodes: 1,
        max_nodes: 30,
        max_degree: 12,
        degree_alpha: 3.0,
        isolated_frac: 0.25,
        self_loops: true,
        val_lo: -1.0,
        val_hi: 1.0,
    };
    let width = Gen::one_of(WIDTHS.to_vec());
    // Every narrow width, and the row kernel's SIMD block of 64 columns
    // with the edges of its partial last block.
    let cols = Gen::one_of(
        (1usize..=12)
            .chain([15, 16, 17, 47, 48, 63, 64, 65])
            .collect(),
    );
    graph(cfg)
        .zip(&cols)
        .zip(&width.zip(&width).zip(&width))
        .zip(&usize_in(0, 2).zip(&usize_in(0, 1 << 20)))
        .map(|&(((ref g, f), ((ab, xb), yb)), (zmode, seed))| {
            (g.clone(), f, [ab, xb, yb], zmode, seed as u64)
        })
}

/// Builds the adjacency codes, activation codes and parameters of a case.
/// `zmode` puts every activation zero point at `qmin` (0), at `qmax` (1),
/// or anywhere in range (2). One seed in four sets every code to its
/// largest magnitude, so that each row's accumulator reaches the static
/// bound that picks its width.
fn fused_inputs(shape: &FusedShape) -> (QuantCsr, Vec<i32>, QmpParams) {
    let (g, f, [ab, xb, yb], zmode, seed) = shape;
    let (n, f) = (g.nodes, *f);
    let extreme = seed % 4 == 0;
    let mut rng = Rng::seed_from_u64(*seed);
    let amax = QuantParams::int_range(*ab).1;
    let qa = QuantCsr::from_csr(&g.to_csr(), *ab, |_, _, v| {
        if extreme {
            amax
        } else {
            ((v * amax as f32).round_ties_even() as i32).clamp(-amax, amax)
        }
    });
    let (xqmin, xqmax) = QuantParams::int_range(*xb);
    let (yqmin, yqmax) = QuantParams::int_range(*yb);
    let mut code =
        |lo: i32, hi: i32| lo + rng.gen_range((hi as i64 - lo as i64 + 1) as usize) as i32;
    let qx: Vec<i32> = (0..n * f)
        .map(|_| if extreme { xqmin } else { code(xqmin, xqmax) })
        .collect();
    let zx: Vec<i32> = (0..f)
        .map(|_| match zmode {
            0 => xqmin,
            1 => xqmax,
            _ => code(xqmin, xqmax),
        })
        .collect();
    let zy: Vec<i32> = (0..f).map(|_| code(yqmin, yqmax)).collect();
    let sa: Vec<f32> = (0..n).map(|_| rng.uniform_in(1e-3, 1.0)).collect();
    let sx: Vec<f32> = (0..f).map(|_| rng.uniform_in(1e-3, 1.0)).collect();
    // Output scales sized so that some outputs land inside the clip range
    // and some saturate.
    let span = amax as f32 * xqmax as f32 / yqmax as f32;
    let sy: Vec<f32> = sx
        .iter()
        .map(|&s| s * span * rng.uniform_in(0.02, 1.0))
        .collect();
    let p = QmpParams {
        sa,
        za: vec![0; n],
        sx,
        zx,
        sy,
        zy,
        y_qmin: yqmin,
        y_qmax: yqmax,
    };
    (qa, qx, p)
}

/// The one-pass `quantized_spmm` equals the two-pass form bit for bit over
/// the width menu {2, 4, 8, 16}, isolated nodes and hub rows, activation
/// zero points at `qmin` and `qmax`, and every arm of the row kernel: the
/// SIMD arm (codes of at most 8 bits, where the host has it), and both
/// accumulator widths of the portable arms (16 × 16 bits on a row of three
/// or more edges takes `i64`), which `quantized_spmm_portable` runs on
/// every case.
#[test]
fn fuzz_fused_spmm_matches_two_pass_form() {
    Config::new("theorem1_fused")
        .cases(128)
        .run(&fused_case(), |shape| {
            let (qa, qx, p) = fused_inputs(shape);
            let f = shape.1;
            let want = two_pass(&qa, &qx, f, &p);
            assert_eq!(
                quantized_spmm(&qa, &qx, f, &p),
                want,
                "fused Theorem-1 kernel diverged from the two-pass form (nodes={}, f={f}, bits={:?})",
                shape.0.nodes,
                shape.2
            );
            assert_eq!(
                quantized_spmm_portable(&qa, &qx, f, &p),
                want,
                "portable Theorem-1 kernel diverged from the two-pass form (nodes={}, f={f}, bits={:?})",
                shape.0.nodes,
                shape.2
            );
        });
}

/// Rows whose accumulators reach the width-picking bound exactly: a hub
/// row of `d` edges, every code at its largest magnitude, for every pair
/// of menu widths and zero-point placement. 16 × 16 bits leaves `i32` at
/// `d = 3`, so the hub degrees straddle the switch.
#[test]
fn fused_spmm_matches_two_pass_at_the_accumulator_bound() {
    for d in [1usize, 2, 3, 5, 17] {
        let g = RandomGraph {
            nodes: d + 1,
            edges: (1..=d).map(|c| (0, c, 1.0)).collect(),
        };
        for ab in WIDTHS {
            for xb in WIDTHS {
                for zmode in 0..3 {
                    // Seed 0 selects the all-extreme codes.
                    let shape = (g.clone(), 3, [ab, xb, 8], zmode, 0);
                    let (qa, qx, p) = fused_inputs(&shape);
                    let want = two_pass(&qa, &qx, 3, &p);
                    assert_eq!(
                        quantized_spmm(&qa, &qx, 3, &p),
                        want,
                        "hub degree {d}, bits a{ab} x{xb}, zero-point mode {zmode}"
                    );
                    assert_eq!(
                        quantized_spmm_portable(&qa, &qx, 3, &p),
                        want,
                        "portable: hub degree {d}, bits a{ab} x{xb}, zero-point mode {zmode}"
                    );
                }
            }
        }
    }
}

/// `int_matmul_requant` before the `i32` path: `i64` accumulators and the
/// `i128` fixed-point multiply for every output.
fn requant_reference(
    x: &QTensor,
    w: &QTensor,
    bias: Option<&[f32]>,
    out_qp: QuantParams,
) -> Vec<i32> {
    let acc_scale = x.qp.scale as f64 * w.qp.scale as f64;
    let (m0, rshift) = quantize_multiplier(acc_scale / out_qp.scale as f64);
    let (zx, zw) = (x.qp.zero_point as i64, w.qp.zero_point as i64);
    let mut out = vec![0i32; x.rows * w.cols];
    for i in 0..x.rows {
        for j in 0..w.cols {
            let mut acc = bias.map_or(0, |b| (b[j] as f64 / acc_scale).round() as i64);
            for k in 0..x.cols {
                acc += (x.data[i * x.cols + k] as i64 - zx) * (w.data[k * w.cols + j] as i64 - zw);
            }
            let q = fixed_point_multiply(acc, m0, rshift) + out_qp.zero_point as i64;
            out[i * w.cols + j] = q.clamp(out_qp.qmin as i64, out_qp.qmax as i64) as i32;
        }
    }
    out
}

/// Integer codes in `qp`'s range under an affine quantizer of `bits`, with
/// the zero point at `qmin` (mode 0), `qmax` (1) or anywhere (2), or
/// anywhere with about seven codes in eight at the zero point (3), as in
/// post-ReLU activations: uniform codes of 16 bits hit the zero point about
/// once in 65 536, so only mode 3 drives the products' zero-point skip.
fn random_qtensor(rng: &mut Rng, rows: usize, cols: usize, bits: u8, zmode: usize) -> QTensor {
    let (qmin, qmax) = QuantParams::int_range(bits);
    let code =
        |rng: &mut Rng| qmin + rng.gen_range((qmax as i64 - qmin as i64 + 1) as usize) as i32;
    let zero_point = match zmode {
        0 => qmin,
        1 => qmax,
        _ => code(rng),
    };
    let data = (0..rows * cols)
        .map(|_| {
            if zmode == 3 && rng.gen_range(8) != 0 {
                zero_point
            } else {
                code(rng)
            }
        })
        .collect();
    QTensor {
        rows,
        cols,
        data,
        qp: QuantParams {
            scale: rng.uniform_in(1e-3, 1.0),
            zero_point,
            qmin,
            qmax,
            bits,
        },
    }
}

/// `int_matmul_requant` and `int_matmul_requant_portable` equal the
/// `i64`/`i128` product bit for bit on their VNNI, `i32` and `i64` paths,
/// at narrow (register-tile) and wide (axpy) output widths on both sides of
/// each 16-lane block, with row counts crossing the 4-row tile, over the
/// width menu with zero points at `qmin`, at `qmax`, anywhere, and anywhere
/// under inputs mostly at their zero point.
#[test]
fn fuzz_requant_gemm_matches_wide_reference() {
    let width = Gen::one_of(WIDTHS.to_vec());
    let cols = Gen::one_of(vec![
        1usize, 2, 7, 12, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65,
    ]);
    let gen = usize_in(1, 13)
        .zip(&usize_in(0, 48))
        .zip(&cols)
        .zip(&width.zip(&width).zip(&width))
        .zip(&usize_in(0, 3).zip(&usize_in(0, 1 << 20)));
    let vnni_before = requant_vnni_calls();
    Config::new("requant_gemm").cases(128).run(
        &gen,
        |&((((rows, k), m), ((xb, wb), ob)), (zmode, seed))| {
            let mut rng = Rng::seed_from_u64(seed as u64);
            let x = random_qtensor(&mut rng, rows, k, xb, zmode);
            let w = random_qtensor(&mut rng, k, m, wb, 2);
            let oq = QuantParams::int_range(ob).1 as f32;
            let span = x.qp.scale
                * w.qp.scale
                * (k.max(1) as f32).sqrt()
                * QuantParams::int_range(xb).1 as f32
                * QuantParams::int_range(wb).1 as f32;
            let out_qp = QuantParams::from_min_max(-span * rng.uniform_in(0.05, 1.0), span, ob);
            let bias: Vec<f32> = (0..m)
                .map(|_| rng.uniform_in(-1.0, 1.0) * out_qp.scale * oq)
                .collect();
            let bias = (seed % 2 == 0).then_some(bias.as_slice());
            let want = requant_reference(&x, &w, bias, out_qp);
            assert_eq!(
                int_matmul_requant(&x, &w, bias, out_qp).data,
                want,
                "requant GEMM diverged ({rows}×{k}·{k}×{m}, bits x{xb} w{wb} out{ob})"
            );
            assert_eq!(
                int_matmul_requant_portable(&x, &w, bias, out_qp).data,
                want,
                "portable requant GEMM diverged ({rows}×{k}·{k}×{m}, bits x{xb} w{wb} out{ob})"
            );
        },
    );
    // 8-bit operands take the VNNI arm where the host has it.
    if vnni_host() {
        assert!(
            requant_vnni_calls() > vnni_before,
            "no case took the VNNI arm of int_matmul_requant"
        );
    }
}

fn vnni_host() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512vnni") && is_x86_feature_detected!("avx512bw")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The `qinfer.requant.vnni_path` counter. Telemetry is process-global and
/// other tests of this file may run alongside, but none resets it, so it
/// only grows.
fn requant_vnni_calls() -> u64 {
    mixq_telemetry::set_enabled(true);
    mixq_telemetry::snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == "qinfer.requant.vnni_path")
        .map_or(0, |(_, v)| *v)
}

/// The `i32` bound of `int_matmul_requant` is exact at its edge: with
/// `x − zx = 65535`, `w − zw = 32767` and one inner term, a bias of 98302
/// puts the accumulator exactly on `i32::MAX` (the `i32` path); 98303 is
/// one past it (the `i64` path). Both match the wide reference, at a
/// narrow and a wide output.
#[test]
fn requant_gemm_is_exact_on_both_sides_of_the_i32_bound() {
    let (qmin, qmax) = QuantParams::int_range(16);
    let qp = |zero_point| QuantParams {
        scale: 1.0,
        zero_point,
        qmin,
        qmax,
        bits: 16,
    };
    let out_qp = QuantParams {
        scale: 131072.0,
        ..qp(0)
    };
    for m in [1usize, 32] {
        let x = QTensor {
            rows: 2,
            cols: 1,
            data: vec![qmax, qmin + 1],
            qp: qp(qmin),
        };
        let w = QTensor {
            rows: 1,
            cols: m,
            data: vec![qmax; m],
            qp: qp(0),
        };
        for b in [98302.0f32, 98303.0] {
            let bias = vec![b; m];
            let got = int_matmul_requant(&x, &w, Some(&bias), out_qp).data;
            assert_eq!(
                got,
                requant_reference(&x, &w, Some(&bias), out_qp),
                "m={m}, bias={b}"
            );
            assert_eq!(got[0], 16384, "i32::MAX / 2^17 rounds to 16384");
        }
    }
}

/// A multiplier of exactly 1/2 puts every odd accumulator on a rounding
/// tie; both loop orders round it half up, as the `i128` reference does.
#[test]
fn requant_gemm_ties_round_half_up() {
    let qp = |scale| QuantParams {
        scale,
        zero_point: 0,
        qmin: -128,
        qmax: 127,
        bits: 8,
    };
    let x = QTensor {
        rows: 7,
        cols: 1,
        data: (-3..=3).collect(),
        qp: qp(1.0),
    };
    for m in [1usize, 32] {
        let w = QTensor {
            rows: 1,
            cols: m,
            data: vec![1; m],
            qp: qp(1.0),
        };
        let got = int_matmul_requant(&x, &w, None, qp(2.0)).data;
        assert_eq!(got, requant_reference(&x, &w, None, qp(2.0)), "m={m}");
        let column: Vec<i32> = got.iter().step_by(m).copied().collect();
        assert_eq!(column, vec![-1, -1, 0, 0, 1, 1, 2], "m={m}");
    }
}

/// The vectorized `QTensor::quantize` equals `QuantParams::quantize` bit
/// for bit on generated values, every IEEE special (NaN, ±inf, ±0,
/// subnormals, ±f32::MAX) and exact rounding ties, at every menu width —
/// 32 bits included, where it keeps the saturating cast.
#[test]
fn fuzz_qtensor_quantize_matches_scalar_quantize() {
    let gen = quant_params(1e3).zip(&f32_with_specials(-1e4, 1e4, 0.3).vec_of(1, 64));
    Config::new("qtensor_quantize")
        .cases(128)
        .run(&gen, |(qp, vals)| {
            let mut data = vals.clone();
            data.extend(F32_SPECIALS);
            data.extend((-9..=9).map(|k| k as f32 * 0.5 * qp.scale));
            let m = Matrix::from_vec(1, data.len(), data.clone());
            let got = QTensor::quantize(&m, *qp).data;
            let want: Vec<i32> = data.iter().map(|&v| qp.quantize(v)).collect();
            assert_eq!(got, want, "quantize diverged under {qp:?}");
        });
}
