//! Fully-integer inference engine built on Theorem 1.
//!
//! After quantization-aware training, fake quantizers are removed and the
//! architecture executes on integer codes (Fig. 5(iv)): weights and the
//! adjacency are quantized once, activations flow as `i32` codes, dense
//! products accumulate in `i64` and are requantized with *fixed-point*
//! multipliers (Jacob et al. [30]) — no floating point in the dense hot
//! loop. Sparse aggregation uses [`crate::theorem1::quantized_spmm`].

use mixq_sparse::{CsrMatrix, QuantCsr};
use mixq_tensor::{Matrix, QuantParams};

use crate::qnets::adjacency_qparams;
use crate::theorem1::{quantized_spmm, QmpParams};

// ---- accumulator bound ------------------------------------------------------
//
// Both integer kernels accumulate in `i64`. `prepare` proves per layer that
// no accumulator can overflow: it computes a static worst-case bound (in
// `i128`, so the analysis itself cannot overflow) and asserts that it stays
// under [`ACC_SAT_LIMIT`]. Snapshots exported from trained nets carry
// operands of at most 16 bits (`Slots::qparams` rejects wider ones), so one
// dense product term stays under 2^32 and one aggregation term under 2^33:
// the bound reaches 2^62 only at an inner dimension of at least 2^30 or a
// row with at least 2^29 non-zeros, before the folded bias term.

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
    /// Quantizes a real matrix (element-wise, parallelized over chunks;
    /// bit-identical to the serial map).
    pub fn quantize(m: &Matrix, qp: QuantParams) -> Self {
        let mut data = vec![0i32; m.numel()];
        mixq_parallel::par_map_slice(m.data(), &mut data, |v| qp.quantize(v));
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
/// integer-only-inference recipe).
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
    let (zx, zw) = (x.qp.zero_point as i64, w.qp.zero_point as i64);
    let mut out = vec![0i32; x.rows * w.cols];
    // Output rows are independent: partition them across threads, each with
    // its own accumulator row. Integer arithmetic ⇒ exact at any count.
    mixq_parallel::par_row_chunks_mut(&mut out, x.rows, w.cols, |start, chunk| {
        let mut acc_row = vec![0i64; w.cols];
        for (di, orow) in chunk.chunks_mut(w.cols).enumerate() {
            let i = start + di;
            acc_row.copy_from_slice(&bias_int);
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
                let q = fixed_point_multiply(acc, m0, rshift) + out_qp.zero_point as i64;
                *o = q.clamp(out_qp.qmin as i64, out_qp.qmax as i64) as i32;
            }
        }
    });
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

/// Theorem 1 sparse aggregation shared by both executors: wraps `h`'s codes
/// through [`quantized_spmm`] (with `Z_a = 0` from symmetric adjacency
/// quantization) and returns the result as a [`QTensor`] under `agg_qp`.
fn aggregate_theorem1(
    qadj: &QuantCsr,
    adj_scale: f32,
    h: &QTensor,
    agg_qp: QuantParams,
) -> QTensor {
    let f = h.cols;
    let p = QmpParams::per_tensor(
        qadj.rows(),
        f,
        adj_scale,
        0,
        h.qp.scale,
        h.qp.zero_point,
        agg_qp.scale,
        agg_qp.zero_point,
        agg_qp.qmin,
        agg_qp.qmax,
    );
    let data = quantized_spmm(qadj, &h.data, f, &p);
    QTensor {
        rows: qadj.rows(),
        cols: f,
        data,
        qp: agg_qp,
    }
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
    qadj: QuantCsr,
    adj_scale: f32,
}

/// The integer GCN executor: Fig. 5(iv) for the multi-layer GCN.
pub struct QuantizedGcn {
    input_qp: QuantParams,
    layers: Vec<ExecLayer>,
}

impl QuantizedGcn {
    /// Prepares integer weights and the quantized adjacency from a trained
    /// snapshot and the (normalized) adjacency.
    ///
    /// # Panics
    ///
    /// If a layer's static accumulator bound reaches 2^62, so that its
    /// `i64` accumulators could overflow. Snapshots exported by
    /// `QGcnNet::snapshot` (operands of at most 16 bits) reach it only at
    /// an inner dimension of 2^30 or a row of 2^29 non-zeros.
    pub fn prepare(snapshot: &GcnSnapshot, adj_norm: &CsrMatrix) -> Self {
        let mut x_qp = snapshot.input_qp;
        let layers = snapshot
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let wq = QTensor::quantize(&l.weight, l.w_qp);
                let (qadj, adj_scale) = quantize_csr_symmetric(adj_norm, l.adj_bits);
                let bound = matmul_acc_bound(l.weight.rows(), &x_qp, &l.w_qp, l.bias.as_deref())
                    .max(spmm_acc_bound(&qadj, &l.lin_qp));
                assert_acc_bound("QuantizedGcn::prepare", i, bound);
                x_qp = l.agg_qp;
                ExecLayer {
                    wq,
                    bias: l.bias.clone(),
                    lin_qp: l.lin_qp,
                    agg_qp: l.agg_qp,
                    qadj,
                    adj_scale,
                }
            })
            .collect();
        Self {
            input_qp: snapshot.input_qp,
            layers,
        }
    }

    /// Runs integer inference and returns dequantized logits.
    pub fn infer(&self, features: &Matrix) -> Matrix {
        let _span = mixq_telemetry::span("qinfer_gcn/infer");
        let mut x = QTensor::quantize(features, self.input_qp);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let t0 = mixq_telemetry::kernel_start();
            let h = int_matmul_requant(&x, &layer.wq, layer.bias.as_deref(), layer.lin_qp);
            // Sparse aggregation via Theorem 1 (Z_a = 0 by construction).
            let mut yt = aggregate_theorem1(&layer.qadj, layer.adj_scale, &h, layer.agg_qp);
            if i < last {
                yt.relu_inplace();
            }
            mixq_telemetry::kernel_finish("qinfer.gcn.layer", t0, (yt.rows * yt.cols) as u64);
            x = yt;
        }
        x.dequantize()
    }

    /// Per-layer bit-widths of the frozen executor.
    pub fn bit_config(&self) -> Vec<LayerBits> {
        self.layers
            .iter()
            .map(|l| LayerBits {
                weight_bits: l.wq.qp.bits,
                activation_bits: l.agg_qp.bits,
                adj_bits: l.qadj.bits(),
            })
            .collect()
    }
}

/// Symmetrically quantizes a sparse matrix's values to integer codes,
/// returning the codes and the common scale (`Z = 0`).
/// Codes are at most 16 bits wide.
pub fn quantize_csr_symmetric(a: &CsrMatrix, bits: u8) -> (QuantCsr, f32) {
    let qp = adjacency_qparams(a, bits.min(16));
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
    qadj: QuantCsr,
    adj_scale: f32,
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
    layers: Vec<SageExecLayer>,
}

impl QuantizedSage {
    /// Prepares integer weights and the quantized mean-aggregator adjacency.
    ///
    /// # Panics
    ///
    /// If a layer's static accumulator bound reaches 2^62 (see
    /// [`QuantizedGcn::prepare`]).
    pub fn prepare(snapshot: &SageSnapshot, adj_mean: &CsrMatrix) -> Self {
        let mut x_qp = snapshot.input_qp;
        let layers = snapshot
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let (qadj, adj_scale) = quantize_csr_symmetric(adj_mean, l.adj_bits);
                let bound =
                    matmul_acc_bound(l.w_root.rows(), &x_qp, &l.w_root_qp, l.bias.as_deref())
                        .max(matmul_acc_bound(
                            l.w_neigh.rows(),
                            &l.agg_qp,
                            &l.w_neigh_qp,
                            None,
                        ))
                        .max(spmm_acc_bound(&qadj, &x_qp));
                assert_acc_bound("QuantizedSage::prepare", i, bound);
                x_qp = l.out_qp;
                SageExecLayer {
                    wr: QTensor::quantize(&l.w_root, l.w_root_qp),
                    bias: l.bias.clone(),
                    wn: QTensor::quantize(&l.w_neigh, l.w_neigh_qp),
                    agg_qp: l.agg_qp,
                    out_qp: l.out_qp,
                    qadj,
                    adj_scale,
                }
            })
            .collect();
        Self {
            input_qp: snapshot.input_qp,
            layers,
        }
    }

    /// Runs integer inference and returns dequantized logits.
    pub fn infer(&self, features: &Matrix) -> Matrix {
        let _span = mixq_telemetry::span("qinfer_sage/infer");
        let mut x = QTensor::quantize(features, self.input_qp);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let t0 = mixq_telemetry::kernel_start();
            // Neighbour mean aggregation (Theorem 1, Z_a = 0).
            let agg = aggregate_theorem1(&layer.qadj, layer.adj_scale, &x, layer.agg_qp);

            // Both branches requantize directly into the output quantizer.
            let root = int_matmul_requant(&x, &layer.wr, layer.bias.as_deref(), layer.out_qp);
            let neigh = int_matmul_requant(&agg, &layer.wn, None, layer.out_qp);
            let z = layer.out_qp.zero_point as i64;
            let data: Vec<i32> = root
                .data
                .iter()
                .zip(neigh.data.iter())
                .map(|(&a, &b)| {
                    (a as i64 + b as i64 - z)
                        .clamp(layer.out_qp.qmin as i64, layer.out_qp.qmax as i64)
                        as i32
                })
                .collect();
            let mut y = QTensor {
                rows: root.rows,
                cols: root.cols,
                data,
                qp: layer.out_qp,
            };
            if i < last {
                y.relu_inplace();
            }
            mixq_telemetry::kernel_finish("qinfer.sage.layer", t0, (y.rows * y.cols) as u64);
            x = y;
        }
        x.dequantize()
    }

    /// Per-layer bit-widths of the frozen executor.
    pub fn bit_config(&self) -> Vec<LayerBits> {
        self.layers
            .iter()
            .map(|l| LayerBits {
                weight_bits: l.wr.qp.bits,
                activation_bits: l.out_qp.bits,
                adj_bits: l.qadj.bits(),
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
