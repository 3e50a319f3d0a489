//! Fully-integer inference engine built on Theorem 1.
//!
//! After quantization-aware training, fake quantizers are removed and the
//! architecture executes on integer codes (Fig. 5(iv)): weights and the
//! adjacency are quantized once, in `prepare`, and activations flow as
//! `i32` codes. Dense products accumulate in `i32` when a static bound
//! allows (else `i64`) and are requantized with *fixed-point* multipliers
//! (Jacob et al. [30]) — no floating point in the dense hot loop. Sparse
//! aggregation uses [`crate::theorem1::quantized_spmm`], one pass per
//! output row.
//!
//! Floating point remains in three places, each kept because it defines
//! the codes the engine must reproduce bit for bit: quantizing the input
//! features (`f32`, as [`QuantParams::quantize`]), the Theorem 1
//! correction of each aggregation (`f64`, the order of
//! [`crate::theorem1::quantized_matmul_dense`]), and dequantizing the
//! logits.

use mixq_sparse::{CsrMatrix, QuantCsr};
use mixq_tensor::{Matrix, QuantParams};

use crate::qnets::adjacency_qparams;
use crate::theorem1::{quantized_spmm, QmpParams};

// ---- accumulator bound ------------------------------------------------------
//
// Both integer kernels pick `i32` accumulators per call when their own
// bound allows, and otherwise accumulate in `i64`. `prepare` proves per
// layer that no `i64` accumulator can overflow: it computes a static
// worst-case bound (in `i128`, so the analysis itself cannot overflow) and
// asserts that it stays under [`ACC_SAT_LIMIT`]. Snapshots exported from
// trained nets carry operands of at most 16 bits (`Slots::qparams` rejects
// wider ones), so one dense product term stays under 2^32 and one
// aggregation term under 2^33: the bound reaches 2^62 only at an inner
// dimension of at least 2^30 or a row with at least 2^29 non-zeros, before
// the folded bias term.

/// Conservative accumulator ceiling: one bit of headroom under `i64::MAX`
/// on top of the (already conservative) worst-case bound.
const ACC_SAT_LIMIT: i128 = 1 << 62;

fn qp_span(qp: &QuantParams) -> i128 {
    (qp.qmax as i128 - qp.qmin as i128).max(1)
}

/// Worst-case |accumulator| of [`int_matmul_requant`] for `x_qp × w_qp`
/// over inner dimension `in_dim`, with the bias folded at scale `Sx·Sw`.
fn matmul_acc_bound(
    in_dim: usize,
    x_qp: &QuantParams,
    w_qp: &QuantParams,
    bias: Option<&[f32]>,
) -> i128 {
    let acc_scale = x_qp.scale as f64 * w_qp.scale as f64;
    let bias_max = bias
        .map(|b| {
            b.iter()
                .map(|&v| (v as f64 / acc_scale).abs().round() as i128)
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);
    in_dim as i128 * qp_span(x_qp) * qp_span(w_qp) + bias_max
}

/// Worst-case |accumulator| of one Theorem 1 aggregation row: `max_row_nnz`
/// products of an adjacency code (`|code| ≤ 2^{b_a}`) with an activation
/// code, plus the zero-point correction of the same order.
fn spmm_acc_bound(qadj: &QuantCsr, h_qp: &QuantParams) -> i128 {
    let a_span = 1i128 << qadj.bits().min(16);
    let h_mag = qp_span(h_qp) + h_qp.zero_point.unsigned_abs() as i128;
    qadj.max_row_nnz() as i128 * a_span * h_mag
}

/// Panics unless `bound` proves that layer `layer`'s `i64` accumulators
/// cannot overflow.
fn assert_acc_bound(engine: &str, layer: usize, bound: i128) {
    assert!(
        bound < ACC_SAT_LIMIT,
        "{engine}: layer {layer} accumulator bound {bound} reaches the 2^62 limit"
    );
}

/// A dense integer tensor with its quantization parameters.
#[derive(Debug, Clone)]
pub struct QTensor {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<i32>,
    pub qp: QuantParams,
}

impl QTensor {
    /// Quantizes a real matrix (element-wise, parallelized over chunks),
    /// bit-identical to [`QuantParams::quantize`] on every input, NaN and
    /// ±inf included.
    pub fn quantize(m: &Matrix, qp: QuantParams) -> Self {
        let mut data = vec![0i32; m.numel()];
        let (lo, hi, z) = (qp.qmin as f32, qp.qmax as f32, qp.zero_point as f32);
        if hi < 2_147_483_648.0 {
            // The same arithmetic without the saturating float→int cast,
            // which keeps LLVM from vectorizing the loop: after the clamp
            // every non-NaN value is an integer in `[qmin, qmax]`, and NaN
            // maps to 0 as the cast would map it.
            mixq_parallel::par_map_slice(m.data(), &mut data, |v| {
                let q = (v / qp.scale).round_ties_even() + z;
                let q = if q < lo {
                    lo
                } else if q > hi {
                    hi
                } else {
                    q
                };
                if q.is_nan() {
                    0
                } else {
                    // SAFETY: `q` is an integer in `[qmin, qmax]` ⊂ i32.
                    unsafe { q.to_int_unchecked::<i32>() }
                }
            });
        } else {
            // `qmax as f32` rounds up to 2^31 (32-bit codes): keep the
            // saturating cast.
            mixq_parallel::par_map_slice(m.data(), &mut data, |v| qp.quantize(v));
        }
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data,
            qp,
        }
    }

    /// Dequantizes back to a real matrix (element-wise, parallelized).
    pub fn dequantize(&self) -> Matrix {
        let mut data = vec![0f32; self.data.len()];
        mixq_parallel::par_map_slice(&self.data, &mut data, |q| self.qp.dequantize(q));
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Integer ReLU: real 0 corresponds to the zero-point code.
    pub fn relu_inplace(&mut self) {
        let z = self.qp.zero_point;
        for v in &mut self.data {
            *v = (*v).max(z);
        }
    }
}

/// Decomposes a positive real multiplier as `m0 · 2^{−(31+rshift)}` with
/// `m0 ∈ [2^30, 2^31)` — the fixed-point representation used to requantize
/// accumulators without floating point.
pub fn quantize_multiplier(real: f64) -> (i32, i32) {
    assert!(
        real > 0.0 && real.is_finite(),
        "multiplier must be positive, got {real}"
    );
    // frexp: real = mant · 2^exp with mant ∈ [0.5, 1).
    let exp = real.log2().floor() as i32 + 1;
    let mant = real / 2f64.powi(exp);
    debug_assert!((0.5..1.0).contains(&mant));
    let mut m0 = (mant * (1i64 << 31) as f64).round() as i64;
    let mut exp = exp;
    if m0 == (1i64 << 31) {
        m0 /= 2;
        exp += 1;
    }
    let rshift = -exp;
    assert!(
        31 + rshift >= 1,
        "multiplier {real} too large for fixed-point requantization"
    );
    (m0 as i32, rshift)
}

/// `round(acc · m0 · 2^{−(31+rshift)})` in pure integer arithmetic.
#[inline]
pub fn fixed_point_multiply(acc: i64, m0: i32, rshift: i32) -> i64 {
    let total = 31 + rshift;
    let prod = acc as i128 * m0 as i128;
    let round = 1i128 << (total - 1);
    ((prod + round) >> total) as i64
}

/// Integer dense product with requantization:
/// `out = clip(round((Σ (qx−zx)(qw−zw) + bias_int) · Sx·Sw/So) + zo)`.
///
/// The bias is folded into the accumulator at scale `Sx·Sw` (the standard
/// integer-only-inference recipe). When the static bound
/// `in_dim·max|x−zx|·max|w−zw| + max|bias_int|` fits in `i32` (which
/// every prefix of every sum then also satisfies), the product accumulates
/// in `i32` and requantizes in `i64` fixed point; otherwise it runs in
/// `i64` with an `i128` multiply. The arithmetic is exact on both paths,
/// so they produce the same codes. Narrow outputs (fewer than
/// [`DOT_MAX_COLS`] columns) take each output as one dot product over the
/// transposed weights instead of axpy-accumulating a short row.
pub fn int_matmul_requant(
    x: &QTensor,
    w: &QTensor,
    bias: Option<&[f32]>,
    out_qp: QuantParams,
) -> QTensor {
    assert_eq!(x.cols, w.rows, "int_matmul: inner dimensions differ");
    let acc_scale = x.qp.scale as f64 * w.qp.scale as f64;
    let (m0, rshift) = quantize_multiplier(acc_scale / out_qp.scale as f64);
    let bias_int: Vec<i64> = match bias {
        Some(b) => {
            assert_eq!(b.len(), w.cols);
            b.iter()
                .map(|&v| (v as f64 / acc_scale).round() as i64)
                .collect()
        }
        None => vec![0; w.cols],
    };
    let rq = Requant {
        m0: m0 as i64,
        shift: 31 + rshift,
        zo: out_qp.zero_point as i64,
        qmin: out_qp.qmin as i64,
        qmax: out_qp.qmax as i64,
    };
    let out = if rq.shift <= 62 && gemm_fits_i32(x, w, &bias_int) {
        let bias: Vec<i32> = bias_int.iter().map(|&b| b as i32).collect();
        if w.cols < DOT_MAX_COLS {
            gemm_i32_dot(x, w, &bias, &rq)
        } else {
            gemm_i32_axpy(x, w, &bias, &rq)
        }
    } else {
        gemm_i64(x, w, &bias_int, &rq)
    };
    if mixq_telemetry::enabled() {
        mixq_telemetry::counter_add("qinfer.requant.calls", 1);
        mixq_telemetry::counter_add("qinfer.requant.elems", out.len() as u64);
    }
    QTensor {
        rows: x.rows,
        cols: w.cols,
        data: out,
        qp: out_qp,
    }
}

/// Output widths below this take the dot-product loop order in
/// [`int_matmul_requant`]. An axpy over a row this short is mostly loop
/// overhead and scalar remainder; on post-ReLU activations (about half the
/// codes at the zero point, 64 inputs) the dot order measured 1.7–3×
/// faster at 4–24 output columns and even at 32.
const DOT_MAX_COLS: usize = 32;

/// The requantization epilogue `clip(round(acc · m0 · 2^-shift) + zo)`.
struct Requant {
    m0: i64,
    shift: i32,
    zo: i64,
    qmin: i64,
    qmax: i64,
}

impl Requant {
    /// Any `i64` accumulator, through the `i128` [`fixed_point_multiply`].
    #[inline(always)]
    fn wide(&self, acc: i64) -> i32 {
        let q = fixed_point_multiply(acc, self.m0 as i32, self.shift - 31) + self.zo;
        q.max(self.qmin).min(self.qmax) as i32
    }

    /// An `i32` accumulator when `shift ≤ 62`: `|acc · m0| < 2^62` and the
    /// rounding term is at most 2^61, so the same fixed-point product fits
    /// `i64` and gives the same value as [`Self::wide`].
    #[inline(always)]
    fn narrow(&self, acc: i32) -> i32 {
        let prod = acc as i64 * self.m0;
        let q = ((prod + (1i64 << (self.shift - 1))) >> self.shift) + self.zo;
        q.max(self.qmin).min(self.qmax) as i32
    }
}

/// `true` iff `in_dim·max|x−zx|·max|w−zw| + max|bias|` — a bound on every
/// prefix of every accumulator of [`int_matmul_requant`], and on each
/// zero-point-shifted operand — fits in `i32`.
fn gemm_fits_i32(x: &QTensor, w: &QTensor, bias: &[i64]) -> bool {
    let max_shifted = |t: &QTensor| {
        let z = t.qp.zero_point;
        t.data.iter().map(|&v| v.abs_diff(z)).max().unwrap_or(0) as u128
    };
    let (xmax, wmax) = (max_shifted(x), max_shifted(w));
    let bmax = bias.iter().map(|b| b.unsigned_abs()).max().unwrap_or(0) as u128;
    let limit = i32::MAX as u128;
    xmax <= limit && wmax <= limit && x.cols as u128 * xmax * wmax + bmax <= limit
}

/// `w − zw`, transposed to `cols × rows` when `transpose`.
fn shifted_weights(w: &QTensor, transpose: bool) -> Vec<i32> {
    let z = w.qp.zero_point;
    if !transpose {
        return w.data.iter().map(|&v| v - z).collect();
    }
    let mut t = vec![0i32; w.data.len()];
    for k in 0..w.rows {
        for j in 0..w.cols {
            t[j * w.rows + k] = w.data[k * w.cols + j] - z;
        }
    }
    t
}

/// `i32` product, one axpy of a weight row per non-zero shifted input code.
fn gemm_i32_axpy(x: &QTensor, w: &QTensor, bias: &[i32], rq: &Requant) -> Vec<i32> {
    let (k, m, zx) = (x.cols, w.cols, x.qp.zero_point);
    let wz = shifted_weights(w, false);
    let mut out = vec![0i32; x.rows * m];
    // Output rows are independent: partition them across threads, each with
    // its own accumulator row. Integer arithmetic ⇒ exact at any count.
    mixq_parallel::par_row_chunks_mut(&mut out, x.rows, m, |start, chunk| {
        let mut acc = vec![0i32; m];
        for (di, orow) in chunk.chunks_mut(m).enumerate() {
            let xr = &x.data[(start + di) * k..(start + di + 1) * k];
            acc.copy_from_slice(bias);
            // Sparse inputs (features at their zero point) skip most weight
            // rows: a bit mask of the non-zero `x − zx` per 64 codes (a
            // vectorized compare), then one axpy per set bit.
            for (b, block) in xr.chunks(64).enumerate() {
                let mut mask = 0u64;
                for (i, &xv) in block.iter().enumerate() {
                    mask |= ((xv != zx) as u64) << i;
                }
                while mask != 0 {
                    let kk = b * 64 + mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let a = xr[kk] - zx;
                    for (o, &wv) in acc.iter_mut().zip(&wz[kk * m..(kk + 1) * m]) {
                        *o += a * wv;
                    }
                }
            }
            for (o, &a) in orow.iter_mut().zip(&acc) {
                *o = rq.narrow(a);
            }
        }
    });
    out
}

/// `i32` product, each output one dot product of the shifted input row
/// with a transposed weight column.
fn gemm_i32_dot(x: &QTensor, w: &QTensor, bias: &[i32], rq: &Requant) -> Vec<i32> {
    let (k, m, zx) = (x.cols, w.cols, x.qp.zero_point);
    let wt = shifted_weights(w, true);
    let mut out = vec![0i32; x.rows * m];
    mixq_parallel::par_row_chunks_mut(&mut out, x.rows, m, |start, chunk| {
        let mut xs = vec![0i32; k];
        for (di, orow) in chunk.chunks_mut(m).enumerate() {
            let xr = &x.data[(start + di) * k..(start + di + 1) * k];
            for (s, &xv) in xs.iter_mut().zip(xr) {
                *s = xv - zx;
            }
            for (j, (o, &b)) in orow.iter_mut().zip(bias).enumerate() {
                let wcol = &wt[j * k..(j + 1) * k];
                let dot: i32 = xs.iter().zip(wcol).map(|(&a, &wv)| a * wv).sum();
                *o = rq.narrow(b + dot);
            }
        }
    });
    out
}

/// `i64` product with the `i128` requantization (16-bit operands, or a
/// multiplier too small for the `i64` fixed point).
fn gemm_i64(x: &QTensor, w: &QTensor, bias: &[i64], rq: &Requant) -> Vec<i32> {
    let (zx, zw) = (x.qp.zero_point as i64, w.qp.zero_point as i64);
    let mut out = vec![0i32; x.rows * w.cols];
    mixq_parallel::par_row_chunks_mut(&mut out, x.rows, w.cols, |start, chunk| {
        let mut acc_row = vec![0i64; w.cols];
        for (di, orow) in chunk.chunks_mut(w.cols).enumerate() {
            let i = start + di;
            acc_row.copy_from_slice(bias);
            for k in 0..x.cols {
                let a = x.data[i * x.cols + k] as i64 - zx;
                if a == 0 {
                    continue;
                }
                let wrow = &w.data[k * w.cols..(k + 1) * w.cols];
                for (o, &wv) in acc_row.iter_mut().zip(wrow.iter()) {
                    *o += a * (wv as i64 - zw);
                }
            }
            for (o, &acc) in orow.iter_mut().zip(acc_row.iter()) {
                *o = rq.wide(acc);
            }
        }
    });
    out
}

/// Per-layer bit-width summary reported by [`QuantizedGcn::bit_config`] and
/// [`QuantizedSage::bit_config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerBits {
    /// Weight bit-width (for SAGE: the root weight; both weights share it).
    pub weight_bits: u8,
    /// Activation bit-width of the layer's output quantizer.
    pub activation_bits: u8,
    /// Adjacency bit-width used for the Theorem 1 aggregation.
    pub adj_bits: u8,
}

/// Runs one phase of an engine's `infer` under the span `name`, nested in
/// the engine's `infer` span. With telemetry off the span costs one relaxed
/// load.
fn phase<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = mixq_telemetry::span(name);
    f()
}

/// Theorem 1 sparse aggregation shared by both executors: `h`'s codes
/// through [`quantized_spmm`] with the layer's prebuilt parameters, as a
/// [`QTensor`] under `agg_qp`.
fn aggregate_theorem1(qadj: &QuantCsr, h: &QTensor, p: &QmpParams, agg_qp: QuantParams) -> QTensor {
    QTensor {
        rows: qadj.rows(),
        cols: h.cols,
        data: quantized_spmm(qadj, &h.data, h.cols, p),
        qp: agg_qp,
    }
}

/// Theorem 1 parameters for aggregating `h_qp` codes of width `cols`
/// through an adjacency of `rows` rows quantized at `adj_scale` (`Z_a = 0`),
/// into `agg_qp`, clipped to `clip`.
fn theorem1_params(
    rows: usize,
    cols: usize,
    adj_scale: f32,
    h_qp: &QuantParams,
    agg_qp: &QuantParams,
    clip: (i32, i32),
) -> QmpParams {
    QmpParams::per_tensor(
        rows,
        cols,
        adj_scale,
        0,
        h_qp.scale,
        h_qp.zero_point,
        agg_qp.scale,
        agg_qp.zero_point,
        clip.0,
        clip.1,
    )
}

/// The clip range of `qp`, followed by the integer ReLU `max(·, Z)` when
/// `relu`: `max(clip(q, qmin, qmax), Z) = clip(q, max(qmin, Z), max(qmax, Z))`,
/// so the ReLU costs no pass of its own.
fn clip_range(qp: &QuantParams, relu: bool) -> (i32, i32) {
    if relu {
        (qp.qmin.max(qp.zero_point), qp.qmax.max(qp.zero_point))
    } else {
        (qp.qmin, qp.qmax)
    }
}

/// Index into `adjs` of the adjacency quantized to `bits` (capped at 16,
/// like the codes), quantizing it on first use: layers that share a width
/// share one copy.
fn shared_adjacency(adjs: &mut Vec<(QuantCsr, f32)>, adj: &CsrMatrix, bits: u8) -> usize {
    let bits = bits.min(16);
    if let Some(i) = adjs.iter().position(|(q, _)| q.bits() == bits) {
        return i;
    }
    adjs.push(quantize_csr_symmetric(adj, bits));
    adjs.len() - 1
}

/// Quantization parameters of one GCN layer, exported from a trained
/// fixed-bit net.
#[derive(Debug, Clone)]
pub struct GcnLayerSnapshot {
    pub weight: Matrix,
    pub bias: Option<Vec<f32>>,
    pub w_qp: QuantParams,
    pub lin_qp: QuantParams,
    pub agg_qp: QuantParams,
    pub adj_bits: u8,
}

/// Everything needed to run integer-only GCN inference.
#[derive(Debug, Clone)]
pub struct GcnSnapshot {
    pub input_qp: QuantParams,
    pub layers: Vec<GcnLayerSnapshot>,
}

struct ExecLayer {
    wq: QTensor,
    bias: Option<Vec<f32>>,
    lin_qp: QuantParams,
    agg_qp: QuantParams,
    /// Index into [`QuantizedGcn::adjs`].
    adj: usize,
    /// The aggregation's Theorem 1 parameters; hidden layers fold the
    /// ReLU into the clip range.
    agg: QmpParams,
}

/// The integer GCN executor: Fig. 5(iv) for the multi-layer GCN.
pub struct QuantizedGcn {
    input_qp: QuantParams,
    /// The quantized adjacency, one copy per distinct code width.
    adjs: Vec<QuantCsr>,
    layers: Vec<ExecLayer>,
}

impl QuantizedGcn {
    /// Prepares integer weights, the quantized adjacency and each layer's
    /// Theorem 1 parameters from a trained snapshot and the (normalized)
    /// adjacency.
    ///
    /// # Panics
    ///
    /// If a layer's static accumulator bound reaches 2^62, so that its
    /// `i64` accumulators could overflow. Snapshots exported by
    /// `QGcnNet::snapshot` (operands of at most 16 bits) reach it only at
    /// an inner dimension of 2^30 or a row of 2^29 non-zeros.
    pub fn prepare(snapshot: &GcnSnapshot, adj_norm: &CsrMatrix) -> Self {
        let mut adjs = Vec::new();
        let mut x_qp = snapshot.input_qp;
        let last = snapshot.layers.len().saturating_sub(1);
        let layers = snapshot
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let wq = QTensor::quantize(&l.weight, l.w_qp);
                let adj = shared_adjacency(&mut adjs, adj_norm, l.adj_bits);
                let (qadj, adj_scale) = &adjs[adj];
                let bound = matmul_acc_bound(l.weight.rows(), &x_qp, &l.w_qp, l.bias.as_deref())
                    .max(spmm_acc_bound(qadj, &l.lin_qp));
                assert_acc_bound("QuantizedGcn::prepare", i, bound);
                x_qp = l.agg_qp;
                let agg = theorem1_params(
                    qadj.rows(),
                    wq.cols,
                    *adj_scale,
                    &l.lin_qp,
                    &l.agg_qp,
                    clip_range(&l.agg_qp, i < last),
                );
                ExecLayer {
                    wq,
                    bias: l.bias.clone(),
                    lin_qp: l.lin_qp,
                    agg_qp: l.agg_qp,
                    adj,
                    agg,
                }
            })
            .collect();
        Self {
            input_qp: snapshot.input_qp,
            adjs: adjs.into_iter().map(|(q, _)| q).collect(),
            layers,
        }
    }

    /// Runs integer inference and returns dequantized logits. With
    /// telemetry on, the phases are spans under `qinfer_gcn/infer`:
    /// `quantize`, `matmul` and `aggregate` (once per layer) and
    /// `dequantize`.
    pub fn infer(&self, features: &Matrix) -> Matrix {
        let _span = mixq_telemetry::span("qinfer_gcn/infer");
        let mut x = phase("quantize", || QTensor::quantize(features, self.input_qp));
        for layer in &self.layers {
            let h = phase("matmul", || {
                int_matmul_requant(&x, &layer.wq, layer.bias.as_deref(), layer.lin_qp)
            });
            // Sparse aggregation via Theorem 1 (Z_a = 0 by construction),
            // with the hidden layers' ReLU in its clip range.
            x = phase("aggregate", || {
                aggregate_theorem1(&self.adjs[layer.adj], &h, &layer.agg, layer.agg_qp)
            });
        }
        phase("dequantize", || x.dequantize())
    }

    /// Per-layer bit-widths of the frozen executor.
    pub fn bit_config(&self) -> Vec<LayerBits> {
        self.layers
            .iter()
            .map(|l| LayerBits {
                weight_bits: l.wq.qp.bits,
                activation_bits: l.agg_qp.bits,
                adj_bits: self.adjs[l.adj].bits(),
            })
            .collect()
    }
}

/// Symmetrically quantizes a sparse matrix's values to integer codes,
/// returning the codes and the common scale (`Z = 0`).
/// Codes are at most 16 bits wide, and the returned matrix records the
/// width it holds: `bits.min(16)`.
pub fn quantize_csr_symmetric(a: &CsrMatrix, bits: u8) -> (QuantCsr, f32) {
    let bits = bits.min(16);
    let qp = adjacency_qparams(a, bits);
    (
        QuantCsr::from_csr(a, bits, |_, _, v| qp.quantize(v)),
        qp.scale,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_round_trips() {
        for real in [0.9, 0.5, 0.1, 0.013, 1e-4, 3.7] {
            let (m0, rshift) = quantize_multiplier(real);
            // Apply to a large accumulator and compare against f64 math.
            for acc in [1i64, -7, 123_456, -9_876_543] {
                let got = fixed_point_multiply(acc, m0, rshift);
                let want = (acc as f64 * real).round() as i64;
                assert!(
                    (got - want).abs() <= 1,
                    "real={real} acc={acc}: fixed={got} float={want}"
                );
            }
        }
    }

    #[test]
    fn int_matmul_matches_float_reference() {
        let x = Matrix::from_vec(2, 3, vec![0.5, -0.25, 0.75, -0.5, 0.25, 0.0]);
        let w = Matrix::from_vec(3, 2, vec![0.3, -0.6, 0.9, 0.1, -0.2, 0.4]);
        let x_qp = QuantParams::from_min_max(-1.0, 1.0, 8);
        let w_qp = QuantParams::symmetric(-1.0, 1.0, 8);
        let out_qp = QuantParams::from_min_max(-2.0, 2.0, 8);
        let xq = QTensor::quantize(&x, x_qp);
        let wq = QTensor::quantize(&w, w_qp);
        let bias = vec![0.1f32, -0.2];
        let got = int_matmul_requant(&xq, &wq, Some(&bias), out_qp).dequantize();

        // Float reference over the *fake-quantized* operands.
        let xf = x.map(|v| x_qp.fake(v));
        let wf = w.map(|v| w_qp.fake(v));
        let mut want = xf.matmul(&wf);
        for r in 0..2 {
            for (c, &bv) in bias.iter().enumerate() {
                let v = want.get(r, c) + bv;
                want.set(r, c, out_qp.fake(v));
            }
        }
        assert!(
            got.max_abs_diff(&want) <= out_qp.scale * 1.01,
            "max diff {} vs scale {}",
            got.max_abs_diff(&want),
            out_qp.scale
        );
    }

    #[test]
    fn qtensor_relu_uses_zero_point() {
        let qp = QuantParams::from_min_max(-1.0, 1.0, 8);
        let m = Matrix::from_vec(1, 3, vec![-0.5, 0.0, 0.5]);
        let mut q = QTensor::quantize(&m, qp);
        q.relu_inplace();
        let back = q.dequantize();
        assert_eq!(back.get(0, 0), 0.0, "negative values clamp to exact 0");
        assert_eq!(back.get(0, 1), 0.0);
        assert!((back.get(0, 2) - 0.5).abs() < qp.scale);
    }

    #[test]
    fn relu_folds_into_the_clip_range() {
        // Clip then ReLU equals one clip to `clip_range(qp, true)`, for the
        // zero point below, inside and above `[qmin, qmax]`.
        for zero_point in [-12, -8, -3, 0, 7, 9] {
            let qp = QuantParams {
                scale: 0.1,
                zero_point,
                qmin: -8,
                qmax: 7,
                bits: 4,
            };
            let (lo, hi) = clip_range(&qp, true);
            for q in -20..=20 {
                let want = q.clamp(qp.qmin, qp.qmax).max(zero_point);
                assert_eq!(q.max(lo).min(hi), want, "q={q}, Z={zero_point}");
            }
        }
    }

    #[test]
    fn saturation_bounds_are_conservative_but_sane() {
        let x_qp = QuantParams::from_min_max(-1.0, 1.0, 8);
        let w_qp = QuantParams::symmetric(-1.0, 1.0, 8);
        // A realistic 8-bit layer sits far below the ceiling …
        let b = matmul_acc_bound(1024, &x_qp, &w_qp, Some(&[10.0]));
        assert!(b < ACC_SAT_LIMIT, "8-bit layer must stay under the ceiling");
        // … but the bound still dominates the true worst case Σ|a||w|.
        assert!(b >= 1024 * 255 * 254);
        // An absurd inner dimension would cross it (analysis in i128, so
        // this cannot itself overflow).
        assert!(matmul_acc_bound(usize::MAX / 2, &x_qp, &w_qp, None) >= ACC_SAT_LIMIT);
    }

    #[test]
    fn quantize_csr_symmetric_preserves_structure() {
        use mixq_sparse::CooEntry;
        let a = CsrMatrix::from_coo(
            2,
            2,
            vec![
                CooEntry {
                    row: 0,
                    col: 1,
                    val: 0.5,
                },
                CooEntry {
                    row: 1,
                    col: 0,
                    val: 1.0,
                },
            ],
        );
        let (q, scale) = quantize_csr_symmetric(&a, 8);
        assert_eq!(q.nnz(), 2);
        assert!(scale > 0.0);
        // The largest value maps to qmax.
        assert_eq!(q.values().iter().copied().max(), Some(127));
    }

    #[test]
    fn engine_codes_reconstruct_the_training_fake_quant() {
        // The engine's codes and the training forward's fake-quantized
        // adjacency share one scale: `code · scale` is the trained value.
        use mixq_sparse::CooEntry;
        let entry = |row, col, val| CooEntry { row, col, val };
        let a = CsrMatrix::from_coo(
            3,
            3,
            vec![entry(0, 1, 0.2), entry(1, 0, 0.7), entry(2, 2, -0.45)],
        );
        for bits in [2, 4, 8, 16] {
            let (q, scale) = quantize_csr_symmetric(&a, bits);
            let fq = crate::quantize_adjacency(&mixq_tensor::SpPair::new(a.clone()), bits);
            let got: Vec<f32> = q.values().iter().map(|&c| c as f32 * scale).collect();
            assert_eq!(got, fq.a.values(), "bits={bits}");
        }
    }
}

// ---- integer GraphSAGE -------------------------------------------------------

/// Quantization parameters of one GraphSAGE layer, exported from a trained
/// fixed-bit net.
#[derive(Debug, Clone)]
pub struct SageLayerSnapshot {
    pub w_root: Matrix,
    pub bias: Option<Vec<f32>>,
    pub w_neigh: Matrix,
    pub w_root_qp: QuantParams,
    pub w_neigh_qp: QuantParams,
    pub agg_qp: QuantParams,
    pub out_qp: QuantParams,
    pub adj_bits: u8,
}

/// Everything needed to run integer-only GraphSAGE inference.
#[derive(Debug, Clone)]
pub struct SageSnapshot {
    pub input_qp: QuantParams,
    pub layers: Vec<SageLayerSnapshot>,
}

struct SageExecLayer {
    wr: QTensor,
    bias: Option<Vec<f32>>,
    wn: QTensor,
    agg_qp: QuantParams,
    out_qp: QuantParams,
    /// Index into [`QuantizedSage::adjs`].
    adj: usize,
    /// The neighbour aggregation's Theorem 1 parameters.
    agg: QmpParams,
    /// Clip range of the branch sum; hidden layers fold the ReLU into it.
    clip: (i32, i32),
}

/// Integer GraphSAGE executor: `y = clip(root + neigh − z_out)` where both
/// branches are requantized straight into the layer's output quantizer, so
/// the add is a plain integer add with one zero-point correction.
///
/// Relative to the fake-quantized training path (which adds in FP32 and
/// quantizes once), each branch rounds separately — a ≤1-LSB difference per
/// branch; prediction agreement is validated in the integration tests.
pub struct QuantizedSage {
    input_qp: QuantParams,
    /// The quantized mean-aggregator adjacency, one copy per code width.
    adjs: Vec<QuantCsr>,
    layers: Vec<SageExecLayer>,
}

impl QuantizedSage {
    /// Prepares integer weights, the quantized mean-aggregator adjacency
    /// and each layer's Theorem 1 parameters.
    ///
    /// # Panics
    ///
    /// If a layer's static accumulator bound reaches 2^62 (see
    /// [`QuantizedGcn::prepare`]).
    pub fn prepare(snapshot: &SageSnapshot, adj_mean: &CsrMatrix) -> Self {
        let mut adjs = Vec::new();
        let mut x_qp = snapshot.input_qp;
        let last = snapshot.layers.len().saturating_sub(1);
        let layers = snapshot
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let adj = shared_adjacency(&mut adjs, adj_mean, l.adj_bits);
                let (qadj, adj_scale) = &adjs[adj];
                let bound =
                    matmul_acc_bound(l.w_root.rows(), &x_qp, &l.w_root_qp, l.bias.as_deref())
                        .max(matmul_acc_bound(
                            l.w_neigh.rows(),
                            &l.agg_qp,
                            &l.w_neigh_qp,
                            None,
                        ))
                        .max(spmm_acc_bound(qadj, &x_qp));
                assert_acc_bound("QuantizedSage::prepare", i, bound);
                let agg = theorem1_params(
                    qadj.rows(),
                    l.w_root.rows(),
                    *adj_scale,
                    &x_qp,
                    &l.agg_qp,
                    clip_range(&l.agg_qp, false),
                );
                x_qp = l.out_qp;
                SageExecLayer {
                    wr: QTensor::quantize(&l.w_root, l.w_root_qp),
                    bias: l.bias.clone(),
                    wn: QTensor::quantize(&l.w_neigh, l.w_neigh_qp),
                    agg_qp: l.agg_qp,
                    out_qp: l.out_qp,
                    adj,
                    agg,
                    clip: clip_range(&l.out_qp, i < last),
                }
            })
            .collect();
        Self {
            input_qp: snapshot.input_qp,
            adjs: adjs.into_iter().map(|(q, _)| q).collect(),
            layers,
        }
    }

    /// Runs integer inference and returns dequantized logits. With
    /// telemetry on, the phases are spans under `qinfer_sage/infer`:
    /// `quantize`, `aggregate` and `matmul` (both branches' GEMMs and their
    /// sum, once per layer) and `dequantize`.
    pub fn infer(&self, features: &Matrix) -> Matrix {
        let _span = mixq_telemetry::span("qinfer_sage/infer");
        let mut x = phase("quantize", || QTensor::quantize(features, self.input_qp));
        for layer in &self.layers {
            // Neighbour mean aggregation (Theorem 1, Z_a = 0).
            let agg = phase("aggregate", || {
                aggregate_theorem1(&self.adjs[layer.adj], &x, &layer.agg, layer.agg_qp)
            });
            x = phase("matmul", || {
                // Both branches requantize directly into the output quantizer.
                let root = int_matmul_requant(&x, &layer.wr, layer.bias.as_deref(), layer.out_qp);
                let neigh = int_matmul_requant(&agg, &layer.wn, None, layer.out_qp);
                let z = layer.out_qp.zero_point as i64;
                let (lo, hi) = (layer.clip.0 as i64, layer.clip.1 as i64);
                let data: Vec<i32> = root
                    .data
                    .iter()
                    .zip(neigh.data.iter())
                    .map(|(&a, &b)| (a as i64 + b as i64 - z).max(lo).min(hi) as i32)
                    .collect();
                QTensor {
                    rows: root.rows,
                    cols: root.cols,
                    data,
                    qp: layer.out_qp,
                }
            });
        }
        phase("dequantize", || x.dequantize())
    }

    /// Per-layer bit-widths of the frozen executor.
    pub fn bit_config(&self) -> Vec<LayerBits> {
        self.layers
            .iter()
            .map(|l| LayerBits {
                weight_bits: l.wr.qp.bits,
                activation_bits: l.out_qp.bits,
                adj_bits: self.adjs[l.adj].bits(),
            })
            .collect()
    }
}

#[cfg(test)]
mod sage_tests {
    use super::*;
    use mixq_tensor::Rng;

    #[test]
    fn integer_sage_layer_matches_float_reference() {
        // One layer, hand-built snapshot, dense reference computed with the
        // fake-quantized operands.
        let mut rng = Rng::seed_from_u64(3);
        let n = 6;
        let (fin, fout) = (4, 3);
        let x = Matrix::from_fn(n, fin, |_, _| rng.normal() * 0.5);
        let mut entries = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && rng.bernoulli(0.4) {
                    entries.push(mixq_sparse::CooEntry {
                        row: i,
                        col: j,
                        val: 1.0,
                    });
                }
            }
        }
        let adj = mixq_sparse::row_normalize(&CsrMatrix::from_coo(n, n, entries));
        let wr = Matrix::from_fn(fin, fout, |_, _| rng.normal() * 0.3);
        let wn = Matrix::from_fn(fin, fout, |_, _| rng.normal() * 0.3);

        let input_qp = QuantParams::from_min_max(-2.0, 2.0, 8);
        let w_qp = QuantParams::from_min_max(-1.0, 1.0, 8);
        let agg_qp = QuantParams::from_min_max(-2.0, 2.0, 8);
        let out_qp = QuantParams::from_min_max(-3.0, 3.0, 8);
        let snap = SageSnapshot {
            input_qp,
            layers: vec![SageLayerSnapshot {
                w_root: wr.clone(),
                bias: None,
                w_neigh: wn.clone(),
                w_root_qp: w_qp,
                w_neigh_qp: w_qp,
                agg_qp,
                out_qp,
                adj_bits: 8,
            }],
        };
        let engine = QuantizedSage::prepare(&snap, &adj);
        let got = engine.infer(&x);

        // FP reference over fake-quantized tensors (quantizing each branch
        // into out_qp as the engine does).
        let xf = x.map(|v| input_qp.fake(v));
        let (qadj, ascale) = quantize_csr_symmetric(&adj, 8);
        let adj_fake = adj.map_values(|r, c, _| {
            // Reconstruct the symmetric-quantized value of edge (r, c).
            let code = qadj
                .row(r)
                .find(|&(cc, _)| cc == c)
                .map(|(_, v)| v)
                .unwrap_or(0);
            code as f32 * ascale
        });
        let agg_f = Matrix::from_vec(n, fin, adj_fake.spmm(xf.data(), fin)).map(|v| agg_qp.fake(v));
        let root = xf.matmul(&wr.map(|v| w_qp.fake(v))).map(|v| out_qp.fake(v));
        let neigh = agg_f
            .matmul(&wn.map(|v| w_qp.fake(v)))
            .map(|v| out_qp.fake(v));
        let want = root.zip(&neigh, |a, b| {
            (a + b).clamp(
                out_qp.dequantize(out_qp.qmin),
                out_qp.dequantize(out_qp.qmax),
            )
        });
        // Each branch can differ by ≤1 LSB from the float reference.
        assert!(
            got.max_abs_diff(&want) <= 2.0 * out_qp.scale + 1e-5,
            "max diff {} vs scale {}",
            got.max_abs_diff(&want),
            out_qp.scale
        );
    }
}
