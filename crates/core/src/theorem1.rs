//! **Theorem 1** — quantized message passing.
//!
//! Given quantized forms `Q_a(A)` and `Q_x(X)`, the quantized product
//! `Q_y(AX)` can be computed *entirely from integer codes*:
//!
//! `Q_y(AX) = C1 ⊙ Q_a(A)Q_x(X) ⊙ C2 + C3`
//!
//! with `C1 = S_a` (per-row scales of `A`), `C2 = S_x ⊘ S_y` (per-column
//! scales) and `C3` a zero-point correction built from row/column sums of
//! the integer codes. The expensive part — the sparse-dense product — runs
//! on integers; the corrections are `O(n + f)` vector work.
//!
//! Two implementations are provided:
//!
//! * [`quantized_matmul_dense`] — the fully general form (arbitrary
//!   zero-points on both operands) over dense integer codes, used as the
//!   reference in the equality tests;
//! * [`quantized_spmm`] — the sparse kernel used by the inference engine.
//!   It requires `Z_a = 0` (symmetric quantization of the adjacency): with
//!   an affine zero-point, the integer code of a structural zero would be
//!   `Z_a ≠ 0` and the "sparse" matrix would densify — which is why the
//!   engine quantizes adjacencies symmetrically (see
//!   [`crate::quantize_adjacency`]). It is one pass per output row over
//!   [`mixq_sparse::spmm_rows`]: the integer row and its code sum are
//!   accumulated together (by the AVX-512 VNNI kernel on hosts and inputs
//!   that allow it, else in `i32` when a static bound allows, else in
//!   `i64`), and the correction writes the row's final codes straight away.
//!   [`quantized_spmm_portable`] is the same layer without the SIMD arm.
//!   The integer engine's byte layers enter the same rows through
//!   `quantized_spmm_u8`, crate-internal: the activations arrive as bytes
//!   `u = x − lo` of a clip range the caller proves (no range pass, no
//!   packed copy), go to [`mixq_sparse::spmm_rows_u8`], and the correction
//!   writes the output codes as bytes `q − y_qmin` for the next layer.
//!
//! Both evaluate the correction in `f64` with the same operation order,
//! `Sa·Sx·(P − Zx·rowsum)/Sy`, so the only rounding is the final `⌊·⌉` and
//! the two agree bit for bit; that also makes the integer path numerically
//! identical to quantizing the fake-quantized FP product (verified by
//! property tests). The `f64` stays because a fixed-point multiplier would
//! round differently from that reference. The sparse form takes
//! `P − Zx·rowsum` in `f64` too when its accumulators are `i32` and
//! `|Zx·rowsum| < 2^52`: every integer involved is then exact in `f64`, so
//! the value is the one the `i64` form converts.

use mixq_sparse::{spmm_rows, spmm_rows_portable, spmm_rows_u8, QuantCsr, RowAcc};

/// Quantization vectors for `Y = A·X` (Theorem 1's `{S_a,Z_a}`, `{S_x,Z_x}`,
/// `{S_y,Z_y}`). `A` is quantized per-row, `X` and `Y` per-column. Scalars
/// (per-tensor quantization) are the special case of constant vectors.
#[derive(Debug, Clone)]
pub struct QmpParams {
    pub sa: Vec<f32>,
    pub za: Vec<i32>,
    pub sx: Vec<f32>,
    pub zx: Vec<i32>,
    pub sy: Vec<f32>,
    pub zy: Vec<i32>,
    /// Output clipping range.
    pub y_qmin: i32,
    pub y_qmax: i32,
}

impl QmpParams {
    /// Per-tensor (scalar) parameters broadcast to vectors.
    #[allow(clippy::too_many_arguments)]
    pub fn per_tensor(
        n_rows: usize,
        n_cols: usize,
        sa: f32,
        za: i32,
        sx: f32,
        zx: i32,
        sy: f32,
        zy: i32,
        y_qmin: i32,
        y_qmax: i32,
    ) -> Self {
        Self {
            sa: vec![sa; n_rows],
            za: vec![za; n_rows],
            sx: vec![sx; n_cols],
            zx: vec![zx; n_cols],
            sy: vec![sy; n_cols],
            zy: vec![zy; n_cols],
            y_qmin,
            y_qmax,
        }
    }
}

/// `clip(⌊v⌉ + zy, lo, hi)` evaluated in `f64`, so an out-of-range `v`
/// saturates to the clip bound of its sign. NaN rounds to 0, as the
/// integer cast did. Written without a saturating float→int cast so the
/// correction loops vectorize.
#[inline(always)]
fn round_clip(v: f64, zy: f64, lo: f64, hi: f64) -> i32 {
    // SAFETY: `clip_code` returns `lo`, `hi` or a value between them, all
    // integers in `i32`.
    unsafe { clip_code(v, zy, lo, hi).to_int_unchecked::<i32>() }
}

/// [`round_clip`] before its cast: an integer-valued `f64` in `[lo, hi]`.
/// Once NaN has become 0 the sum cannot be NaN, so the clamp is two plain
/// selects (`max` then `min`) without `f64::max`/`min`'s NaN handling.
#[inline(always)]
fn clip_code(v: f64, zy: f64, lo: f64, hi: f64) -> f64 {
    let r = v.round_ties_even();
    let q = if r.is_nan() { 0.0 } else { r } + zy;
    let q = if q < lo { lo } else { q };
    if q > hi {
        hi
    } else {
        q
    }
}

/// General (dense) Theorem 1: computes `Q_y(AX)` from dense integer codes
/// `qa` (`n×m`, row-quantized) and `qx` (`m×f`, column-quantized).
///
/// Expanding `Q⁻¹(q) = (q − Z)·S` on both operands:
///
/// `Y[i,j] = Sa_i·Sx_j·( P[i,j] − Zx_j·rowsum(Qa)_i − Za_i·colsum(Qx)_j
///            + m·Za_i·Zx_j )` with `P = Qa·Qx`,
///
/// then `Q_y = clip(⌊Y[i,j]/Sy_j⌉ + Zy_j)`. The row/column sums are the
/// `O(n+f)` precomputed factors of the theorem.
pub fn quantized_matmul_dense(
    qa: &[i32],
    n: usize,
    m: usize,
    qx: &[i32],
    f: usize,
    p: &QmpParams,
) -> Vec<i32> {
    assert_eq!(qa.len(), n * m);
    assert_eq!(qx.len(), m * f);
    assert_eq!(p.sa.len(), n);
    assert_eq!(p.sx.len(), f);

    // Integer product P = Qa·Qx in i64, partitioned by output row.
    let mut prod = vec![0i64; n * f];
    mixq_parallel::par_row_chunks_mut(&mut prod, n, f, |start, chunk| {
        for (di, out) in chunk.chunks_mut(f).enumerate() {
            let i = start + di;
            for k in 0..m {
                let a = qa[i * m + k] as i64;
                if a == 0 {
                    continue;
                }
                let row = &qx[k * f..(k + 1) * f];
                for (o, &x) in out.iter_mut().zip(row.iter()) {
                    *o += a * x as i64;
                }
            }
        }
    });
    // Precomputed factors.
    let row_sum_a: Vec<i64> = (0..n)
        .map(|i| qa[i * m..(i + 1) * m].iter().map(|&v| v as i64).sum())
        .collect();
    let col_sum_x: Vec<i64> = {
        let mut s = vec![0i64; f];
        for k in 0..m {
            for (j, sj) in s.iter_mut().enumerate() {
                *sj += qx[k * f + j] as i64;
            }
        }
        s
    };

    let mut out = vec![0i32; n * f];
    mixq_parallel::par_row_chunks_mut(&mut out, n, f, |start, chunk| {
        for (di, orow) in chunk.chunks_mut(f).enumerate() {
            let i = start + di;
            for (j, o) in orow.iter_mut().enumerate() {
                let corrected =
                    prod[i * f + j] - p.zx[j] as i64 * row_sum_a[i] - p.za[i] as i64 * col_sum_x[j]
                        + (m as i64) * p.za[i] as i64 * p.zx[j] as i64;
                let real = p.sa[i] as f64 * p.sx[j] as f64 * corrected as f64 / p.sy[j] as f64;
                *o = round_clip(real, p.zy[j] as f64, p.y_qmin as f64, p.y_qmax as f64);
            }
        }
    });
    out
}

/// Sparse Theorem 1: `Q_y(AX)` where `A` is a [`QuantCsr`] with **zero
/// zero-point** (`Z_a = 0`, enforced by assertion through `p.za`).
///
/// One pass per output row: [`spmm_rows`] accumulates the integer row
/// `P[i,:]` and `rowsum(Qa)_i` together, and the correction
/// `clip(⌊Sa_i·Sx_j·(P[i,j] − Zx_j·rowsum_i)/Sy_j⌉ + Zy_j)` turns it into
/// output codes before the next row starts. Bit-identical to
/// [`quantized_matmul_dense`] on the densified codes, at any thread count.
pub fn quantized_spmm(qa: &QuantCsr, qx: &[i32], f: usize, p: &QmpParams) -> Vec<i32> {
    theorem1_rows(qa, qx, f, p, false)
}

/// [`quantized_spmm`] over [`spmm_rows_portable`], the row kernel without
/// its SIMD arm: the reference the SIMD arm is held to in the tests and in
/// `kernel_bench`.
pub fn quantized_spmm_portable(qa: &QuantCsr, qx: &[i32], f: usize, p: &QmpParams) -> Vec<i32> {
    theorem1_rows(qa, qx, f, p, true)
}

fn theorem1_rows(qa: &QuantCsr, qx: &[i32], f: usize, p: &QmpParams, portable: bool) -> Vec<i32> {
    let cols = ColumnFactors::new(qa, p, f);
    let mut out = vec![0i32; qa.rows() * f];
    let epilogue = |i: usize, acc: RowAcc<'_>, rowsum: i64, orow: &mut [i32]| {
        cols.correct_row(p.sa[i] as f64, acc, rowsum, orow)
    };
    if portable {
        spmm_rows_portable(qa, qx, f, &mut out, epilogue);
    } else {
        spmm_rows(qa, qx, f, &mut out, epilogue);
    }
    out
}

/// [`quantized_spmm`] on the integer engine's byte codes: `u` holds the
/// activation codes `u + range.0`, every one in `range`, and `out` receives
/// the output codes `q − p.y_qmin`, one byte each, which the output clip
/// range of at most 256 codes guarantees. The rows run through
/// [`mixq_sparse::spmm_rows_u8`], so no pass over the codes and no packed
/// copy of them precedes the kernel. Bit-identical to [`quantized_spmm`]
/// on the codes `u + range.0`, offset by `p.y_qmin`.
pub(crate) fn quantized_spmm_u8(
    qa: &QuantCsr,
    u: &[u8],
    range: (i32, i32),
    f: usize,
    p: &QmpParams,
    out: &mut [u8],
) {
    assert!(
        (0..=u8::MAX as i64).contains(&(p.y_qmax as i64 - p.y_qmin as i64)),
        "byte output needs a clip range of at most 256 codes"
    );
    let cols = ColumnFactors::new(qa, p, f);
    spmm_rows_u8(qa, u, range, f, out, |i, acc, rowsum, orow| {
        cols.correct_row(p.sa[i] as f64, acc, rowsum, orow)
    });
}

/// The code types the correction writes: `i32` codes, or the integer
/// engine's bytes `q − lo` (whose clip range the caller keeps within 256
/// codes).
trait OutCode: Copy {
    fn from_code(q: i32, lo: i32) -> Self;
}

impl OutCode for i32 {
    #[inline(always)]
    fn from_code(q: i32, _lo: i32) -> Self {
        q
    }
}

impl OutCode for u8 {
    #[inline(always)]
    fn from_code(q: i32, lo: i32) -> Self {
        q.wrapping_sub(lo) as u8
    }
}

/// Theorem 1's per-column factors `Sx`, `Zx`, `Sy`, `Zy` and the clip range,
/// widened once per call. The casts are exact, so the per-element
/// expression keeps [`quantized_matmul_dense`]'s operation order.
struct ColumnFactors {
    sx: Vec<f64>,
    zx: Vec<i64>,
    zx_f64: Vec<f64>,
    sy: Vec<f64>,
    zy: Vec<f64>,
    lo: f64,
    hi: f64,
    /// Whether every `|Zx_j · rowsum|` stays below 2^52, so that for an
    /// `i32` accumulator the whole of `acc − Zx_j·rowsum` is an integer
    /// below 2^53 in magnitude and `f64` computes it exactly.
    exact_f64: bool,
}

impl ColumnFactors {
    /// Checks `p` against `qa` and `f` (Theorem 1's sparse form needs
    /// `Z_a = 0`) and widens its factors.
    fn new(qa: &QuantCsr, p: &QmpParams, f: usize) -> Self {
        assert!(
            p.za.iter().all(|&z| z == 0),
            "sparse path requires Z_a = 0 (symmetric adjacency)"
        );
        assert_eq!(p.sa.len(), qa.rows());
        assert_eq!(p.sx.len(), f);
        let zx_max = p.zx[..f]
            .iter()
            .map(|z| z.unsigned_abs())
            .max()
            .unwrap_or(0);
        let rowsum_max = qa.max_row_nnz() as u128 * qa.max_abs() as u128;
        Self {
            sx: p.sx[..f].iter().map(|&v| v as f64).collect(),
            zx: p.zx[..f].iter().map(|&v| v as i64).collect(),
            zx_f64: p.zx[..f].iter().map(|&v| v as f64).collect(),
            sy: p.sy[..f].iter().map(|&v| v as f64).collect(),
            zy: p.zy[..f].iter().map(|&v| v as f64).collect(),
            lo: p.y_qmin as f64,
            hi: p.y_qmax as f64,
            exact_f64: zx_max as u128 * rowsum_max < 1 << 52,
        }
    }

    /// Writes the output codes of one row from its integer accumulators
    /// and code sum; `sa` is the row's adjacency scale.
    #[inline(always)]
    fn correct_row<O: OutCode>(&self, sa: f64, acc: RowAcc<'_>, rowsum: i64, out: &mut [O]) {
        let f = out.len();
        let zx = &self.zx[..f];
        match acc {
            RowAcc::I32(acc) if self.exact_f64 => {
                let (acc, zx, rs) = (&acc[..f], &self.zx_f64[..f], rowsum as f64);
                self.write_row(sa, out, |j| acc[j] as f64 - zx[j] * rs);
            }
            RowAcc::I32(acc) => {
                let acc = &acc[..f];
                self.write_row(sa, out, |j| (acc[j] as i64 - zx[j] * rowsum) as f64);
            }
            RowAcc::I64(acc) => {
                let acc = &acc[..f];
                self.write_row(sa, out, |j| (acc[j] - zx[j] * rowsum) as f64);
            }
        }
    }

    /// `out[j] = clip(⌊Sa·Sx_j·c_j/Sy_j⌉ + Zy_j)` with `c_j = corrected(j)`,
    /// the exact `acc − Zx_j·rowsum`.
    #[inline(always)]
    fn write_row<O: OutCode>(&self, sa: f64, out: &mut [O], corrected: impl Fn(usize) -> f64) {
        let f = out.len();
        let (sx, sy, zy) = (&self.sx[..f], &self.sy[..f], &self.zy[..f]);
        let lo = self.lo as i32;
        for (j, o) in out.iter_mut().enumerate() {
            let real = sa * sx[j] * corrected(j) / sy[j];
            *o = O::from_code(round_clip(real, zy[j], self.lo, self.hi), lo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixq_sparse::{CooEntry, CsrMatrix};
    use mixq_tensor::{QuantParams, Rng};

    /// Reference: dequantize the codes (i.e. the fake-quantized values),
    /// multiply in floating point, then quantize the product.
    fn reference(qa: &[i32], n: usize, m: usize, qx: &[i32], f: usize, p: &QmpParams) -> Vec<i32> {
        let af: Vec<f64> = (0..n * m)
            .map(|i| (qa[i] - p.za[i / m]) as f64 * p.sa[i / m] as f64)
            .collect();
        let xf: Vec<f64> = (0..m * f)
            .map(|i| (qx[i] - p.zx[i % f]) as f64 * p.sx[i % f] as f64)
            .collect();
        let mut out = vec![0i32; n * f];
        for i in 0..n {
            for j in 0..f {
                let mut acc = 0f64;
                for k in 0..m {
                    acc += af[i * m + k] * xf[k * f + j];
                }
                out[i * f + j] = round_clip(
                    acc / p.sy[j] as f64,
                    p.zy[j] as f64,
                    p.y_qmin as f64,
                    p.y_qmax as f64,
                );
            }
        }
        out
    }

    fn random_case(
        seed: u64,
        za_zero: bool,
    ) -> (Vec<i32>, Vec<i32>, usize, usize, usize, QmpParams) {
        let mut rng = Rng::seed_from_u64(seed);
        let n = 2 + rng.gen_range(5);
        let m = 2 + rng.gen_range(5);
        let f = 1 + rng.gen_range(6);
        let (aqmin, aqmax) = QuantParams::int_range(4);
        let (xqmin, xqmax) = QuantParams::int_range(8);
        let qa: Vec<i32> = (0..n * m)
            .map(|_| aqmin + rng.gen_range((aqmax - aqmin + 1) as usize) as i32)
            .collect();
        let qx: Vec<i32> = (0..m * f)
            .map(|_| xqmin + rng.gen_range((xqmax - xqmin + 1) as usize) as i32)
            .collect();
        let p = QmpParams {
            sa: (0..n).map(|_| rng.uniform_in(0.01, 0.5)).collect(),
            za: (0..n)
                .map(|_| {
                    if za_zero {
                        0
                    } else {
                        rng.gen_range(7) as i32 - 3
                    }
                })
                .collect(),
            sx: (0..f).map(|_| rng.uniform_in(0.01, 0.5)).collect(),
            zx: (0..f).map(|_| rng.gen_range(21) as i32 - 10).collect(),
            sy: (0..f).map(|_| rng.uniform_in(0.05, 1.0)).collect(),
            zy: (0..f).map(|_| rng.gen_range(11) as i32 - 5).collect(),
            y_qmin: -128,
            y_qmax: 127,
        };
        (qa, qx, n, m, f, p)
    }

    #[test]
    fn dense_theorem_matches_fp_reference() {
        for seed in 0..50 {
            let (qa, qx, n, m, f, p) = random_case(seed, false);
            let got = quantized_matmul_dense(&qa, n, m, &qx, f, &p);
            let want = reference(&qa, n, m, &qx, f, &p);
            assert_eq!(got, want, "mismatch at seed {seed}");
        }
    }

    #[test]
    fn sparse_theorem_matches_dense_theorem() {
        for seed in 100..130 {
            let mut rng = Rng::seed_from_u64(seed);
            let (_, qx, n, m, f, p) = random_case(seed, true);
            // Random sparse integer adjacency (≈30 % density).
            let mut entries = Vec::new();
            let mut dense_qa = vec![0i32; n * m];
            for i in 0..n {
                for k in 0..m {
                    if rng.bernoulli(0.3) {
                        let v = rng.gen_range(15) as i32 - 7;
                        if v != 0 {
                            entries.push(CooEntry {
                                row: i,
                                col: k,
                                val: v as f32,
                            });
                            dense_qa[i * m + k] = v;
                        }
                    }
                }
            }
            let csr = CsrMatrix::from_coo(n, m, entries);
            let qcsr = QuantCsr::from_csr(&csr, 4, |_, _, v| v as i32);
            let sparse = quantized_spmm(&qcsr, &qx, f, &p);
            let dense = quantized_matmul_dense(&dense_qa, n, m, &qx, f, &p);
            assert_eq!(sparse, dense, "mismatch at seed {seed}");
        }
        correction_edge_cases();
    }

    /// The sparse kernels (both row kernels, and the byte entry where both
    /// ranges hold at most 256 codes) against [`quantized_matmul_dense`] on
    /// one hand-built case: `rows[i]` lists row `i`'s `(column, code)`
    /// pairs over `m` columns, `qx` is `m × f`.
    fn check_against_dense(
        rows: &[Vec<(usize, i32)>],
        m: usize,
        qx: &[i32],
        f: usize,
        p: &QmpParams,
    ) {
        let n = rows.len();
        let mut dense = vec![0i32; n * m];
        let mut entries = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            for &(col, code) in row {
                dense[i * m + col] = code;
                entries.push(CooEntry {
                    row: i,
                    col,
                    val: code as f32,
                });
            }
        }
        let qa = QuantCsr::from_csr(&CsrMatrix::from_coo(n, m, entries), 16, |_, _, v| v as i32);
        let want = quantized_matmul_dense(&dense, n, m, qx, f, p);
        assert_eq!(quantized_spmm(&qa, qx, f, p), want, "quantized_spmm");
        assert_eq!(quantized_spmm_portable(&qa, qx, f, p), want, "portable");
        let lo = qx.iter().copied().min().unwrap_or(0);
        let hi = qx.iter().copied().max().unwrap_or(0);
        if hi - lo <= 255 && p.y_qmax as i64 - p.y_qmin as i64 <= 255 {
            let u: Vec<u8> = qx.iter().map(|&v| (v - lo) as u8).collect();
            let mut out = vec![0u8; n * f];
            quantized_spmm_u8(&qa, &u, (lo, hi), f, p, &mut out);
            let got: Vec<i32> = out.iter().map(|&b| b as i32 + p.y_qmin).collect();
            assert_eq!(got, want, "quantized_spmm_u8");
        }
    }

    /// Correction edge cases, each against the dense form: quotients that
    /// land exactly on half-integers (`Sy = 2`, ties to even, both signs),
    /// per-column scales and zero points, saturation at `Sy = 1e-38`, and
    /// `Zx·rowsum` on both sides of the 2^52 bound under which `i32`
    /// accumulators are corrected in `f64`, plus `i64` accumulators.
    fn correction_edge_cases() {
        // Two rows over three columns; row 1 has a negative code.
        let rows = vec![vec![(0, 1), (2, 1)], vec![(1, 3), (2, -1)]];
        let qx: Vec<i32> = (0..3 * 4).map(|i| i * 7 % 23 - 11).collect();
        // Sa = Sx = 1, Sy = 2: every odd `acc − Zx·rowsum` is a half-integer.
        for zx in [-3, 0, 1, 4] {
            let p = QmpParams::per_tensor(2, 4, 1.0, 0, 1.0, zx, 2.0, 0, -128, 127);
            check_against_dense(&rows, 3, &qx, 4, &p);
            let p = QmpParams::per_tensor(2, 4, 1.0, 0, 1.0, zx, 2.0, 5, -8, 7);
            check_against_dense(&rows, 3, &qx, 4, &p);
        }
        // Per-column factors, one column of each kind.
        let p = QmpParams {
            sa: vec![0.5, 1.0],
            za: vec![0, 0],
            sx: vec![1.0, 0.25, 3.0, 1.0],
            zx: vec![-7, 0, 3, 11],
            sy: vec![2.0, 0.125, 1e-38, 0.75],
            zy: vec![0, -4, 5, 9],
            y_qmin: -128,
            y_qmax: 127,
        };
        check_against_dense(&rows, 3, &qx, 4, &p);
        // Saturation of both signs at a tiny output scale.
        let p = QmpParams::per_tensor(2, 4, 1.0, 0, 1.0, 0, 1e-38, 5, -128, 127);
        check_against_dense(&rows, 3, &qx, 4, &p);
        // One row of 256 codes 32767 (rowsum 8388352 ≈ 2^23) with small
        // activations: `i32` accumulators, and `|Zx·rowsum|` below 2^52
        // (corrected in `f64`) at Zx = ±2^28 and above it (in `i64`) at
        // ±(2^31 − 1).
        let wide = vec![(0..256).map(|c| (c, 32767)).collect::<Vec<_>>()];
        let qx: Vec<i32> = (0..256 * 3).map(|i| i % 401 - 200).collect();
        for zx in [1 << 28, -(1 << 28), i32::MAX, i32::MIN + 1] {
            let p = QmpParams::per_tensor(1, 3, 1e-5, 0, 1e-5, zx, 1e3, 0, i32::MIN, i32::MAX);
            check_against_dense(&wide, 256, &qx, 3, &p);
        }
        // Activations too wide for `i32` accumulators.
        let qx: Vec<i32> = (0..256 * 3).map(|i| i * 977 % 120_001 - 60_000).collect();
        let p = QmpParams::per_tensor(1, 3, 1e-6, 0, 1e-3, 12_345, 0.5, -3, -32768, 32767);
        check_against_dense(&wide, 256, &qx, 3, &p);
    }

    #[test]
    #[should_panic(expected = "Z_a = 0")]
    fn sparse_path_rejects_nonzero_adjacency_zero_point() {
        let csr = CsrMatrix::from_coo(
            1,
            1,
            vec![CooEntry {
                row: 0,
                col: 0,
                val: 1.0,
            }],
        );
        let qcsr = QuantCsr::from_csr(&csr, 4, |_, _, v| v as i32);
        let mut p = QmpParams::per_tensor(1, 1, 0.1, 0, 0.1, 0, 0.1, 0, -8, 7);
        p.za[0] = 1;
        quantized_spmm(&qcsr, &[1], 1, &p);
    }

    #[test]
    fn identity_quantization_recovers_integer_product() {
        // With all scales 1 and zero-points 0, Theorem 1 is just the
        // integer product (no clipping within range).
        let qa = vec![1, 2, 3, 4]; // 2×2
        let qx = vec![5, 6, 7, 8]; // 2×2
        let p = QmpParams::per_tensor(2, 2, 1.0, 0, 1.0, 0, 1.0, 0, -1000, 1000);
        let got = quantized_matmul_dense(&qa, 2, 2, &qx, 2, &p);
        assert_eq!(got, vec![19, 22, 43, 50]);
    }

    #[test]
    fn output_respects_clipping_range() {
        let (qa, qx, n, m, f, mut p) = random_case(7, false);
        p.y_qmin = -8;
        p.y_qmax = 7;
        let got = quantized_matmul_dense(&qa, n, m, &qx, f, &p);
        assert!(got.iter().all(|&v| (-8..=7).contains(&v)));
    }

    #[test]
    fn out_of_range_values_saturate_to_the_clip_bound_of_their_sign() {
        // 1e19 exceeds i64: an integer cast saturates there and adding the
        // zero point then wraps to the wrong bound (or panics in debug).
        assert_eq!(round_clip(1e19, 5.0, -128.0, 127.0), 127);
        assert_eq!(round_clip(-1e19, -5.0, -128.0, 127.0), -128);
        assert_eq!(round_clip(f64::INFINITY, 5.0, -8.0, 7.0), 7);
        assert_eq!(round_clip(f64::NAN, 3.0, -8.0, 7.0), 3);
        // Reached through both kernels by a tiny output scale.
        let qa = [3, -2];
        let qx = [100];
        let p = QmpParams::per_tensor(2, 1, 1.0, 0, 1.0, 0, 1e-38, 5, -128, 127);
        assert_eq!(
            quantized_matmul_dense(&qa, 2, 1, &qx, 1, &p),
            vec![127, -128]
        );
        let csr = CsrMatrix::from_coo(
            2,
            1,
            vec![
                CooEntry {
                    row: 0,
                    col: 0,
                    val: 3.0,
                },
                CooEntry {
                    row: 1,
                    col: 0,
                    val: -2.0,
                },
            ],
        );
        let qcsr = QuantCsr::from_csr(&csr, 4, |_, _, v| v as i32);
        assert_eq!(quantized_spmm(&qcsr, &qx, 1, &p), vec![127, -128]);
    }

    /// Property: for any random codes and quantization vectors, the
    /// factored integer computation equals quantizing the FP product of
    /// the fake-quantized operands (the theorem's claim). Seeded
    /// exhaustively instead of via proptest (no external dev-deps).
    #[test]
    fn prop_theorem1_exact() {
        for seed in 0..64u64 {
            let (qa, qx, n, m, f, p) = random_case(seed * 157 + 1, false);
            let got = quantized_matmul_dense(&qa, n, m, &qx, f, &p);
            let want = reference(&qa, n, m, &qx, f, &p);
            assert_eq!(got, want, "mismatch at seed {seed}");
        }
    }
}
