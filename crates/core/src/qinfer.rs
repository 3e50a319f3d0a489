//! Fully-integer inference engine built on Theorem 1.
//!
//! After quantization-aware training, fake quantizers are removed and the
//! architecture executes on integer codes (Fig. 5(iv)): weights and the
//! adjacency are quantized once, in `prepare`. Dense products
//! ([`int_matmul_requant`]) accumulate in `i32` when a static bound allows
//! (else `i64`) and are requantized with *fixed-point* multipliers (Jacob
//! et al. \[30\]) — no floating point in the dense hot loop. One private
//! plan per product holds its epilogue, its bias folded at the accumulator
//! scale and its weights' code range, and is the one place that decides
//! whether the product runs on the VNNI arm below: [`int_matmul_requant`]
//! builds one per call, `prepare` one per dense step, so `infer` redoes
//! none of that work. Sparse aggregation uses
//! [`crate::theorem1::quantized_spmm`], one pass per output row.
//!
//! [`QuantizedGcn`] and [`QuantizedSage`] are one executor. A layer has one
//! of two shapes: GCN runs a dense step, then an aggregate step; GraphSAGE
//! runs an aggregate step, then the root and neighbour dense steps and the
//! add-and-clip of their sum. Each step takes and returns the activations
//! in one of two forms and owns the choice between them, planned in
//! `prepare`. `i32` codes take the arms of the public entry points
//! ([`int_matmul_requant`], with its plan built in `prepare`, and
//! [`quantized_spmm`]). A *byte layer* keeps one
//! byte per code instead, `u = q − lo` with `[lo, hi]` the tensor's clip
//! range of at most 256 codes: the input quantization writes bytes, the
//! VNNI dense product reads and writes them, the SIMD row kernel of the
//! aggregation gathers them, Theorem 1's correction writes the next
//! layer's bytes, and GraphSAGE adds its branches' bytes. A step can run on
//! bytes when its clip ranges hold at most 256 codes, the host has the VNNI
//! arms below, and their eligibility and `i32` bounds hold for every code
//! the clip ranges admit (see [`QuantizedGcn::prepare`]); a layer keeps
//! its steps' byte plans only when every step has one, so activations
//! change form only between layers. Both forms give the same codes.
//!
//! On an x86-64 host with AVX-512 VNNI and BW, the `i32` dense product of
//! 8-bit layers runs on `vpdpbusd`, which multiplies four unsigned bytes by
//! four signed bytes and adds the four products to an `i32` lane. It takes
//! a call whose codes of `x` span at most 255 and whose weight codes fit
//! `i8`. `x` is read as `u = x − lo` in `u8` (packed per tile with
//! `lo = min(x)` from `i32` codes; a byte layer's own bytes, with `lo` the
//! low end of their clip range) and the raw weight codes as `i8`: trained
//! weight quantizers are asymmetric, so `w − zw` need not fit a byte. Both
//! zero points fold into each lane's start value instead. With
//! `d = lo − zx` and `k` the inner dimension,
//!
//! `Σ (x − zx)(w − zw) = Σ u·w + d·colsum(w) − zw·(rowsum(u) + k·d)`,
//!
//! so a lane starts at the bias plus its column's terms plus its row's
//! `−zw·rowsum(u)`, and `vpdpbusd` adds `Σ u·w`. Every step wraps mod 2³²
//! (`vpdpbusd` wraps; it does not saturate), so the lane ends at the true
//! sum mod 2³². The `i32` bound that admits the call proves the true sum
//! fits `i32`, so the lane holds it exactly, even where `Σ u·w` alone
//! overflows. The requantization epilogue is the `i32` arms' own fixed-point
//! arithmetic on 16 lanes, so every arm writes the same codes.
//! [`int_matmul_requant_portable`] is the product without this arm.
//!
//! Floating point remains in three places, each kept because it defines
//! the codes the engine must reproduce bit for bit: quantizing the input
//! features (`f32`, as [`QuantParams::quantize`]), the Theorem 1
//! correction of each aggregation (`f64`, the order of
//! [`crate::theorem1::quantized_matmul_dense`]), and dequantizing the
//! logits.

use std::ops::{AddAssign, Mul, Sub};
use std::sync::Arc;

use mixq_sparse::{byte_arm_eligible, CsrMatrix, QuantCsr};
use mixq_tensor::{Matrix, QuantParams};

use crate::qnets::adjacency_qparams;
use crate::theorem1::{quantized_spmm, quantized_spmm_u8, QmpParams};

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
        match F32ToCode::new(qp) {
            Some(c) => mixq_parallel::par_map_slice(m.data(), &mut data, |v| c.code(v)),
            // 32-bit codes: keep the saturating cast.
            None => mixq_parallel::par_map_slice(m.data(), &mut data, |v| qp.quantize(v)),
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

    /// Integer ReLU: real 0 corresponds to the zero-point code. The engines
    /// fold the ReLU into their clip range (`clip_range`); this separate
    /// pass serves callers that rebuild the unfused pipeline, such as the
    /// `pipeline_bench` probe that times the ReLU as a phase of its own.
    pub fn relu_inplace(&mut self) {
        let z = self.qp.zero_point;
        for v in &mut self.data {
            *v = (*v).max(z);
        }
    }
}

/// [`QuantParams::quantize`]'s `f32` arithmetic without its saturating
/// float→int cast, which keeps LLVM from vectorizing the loops that call
/// it: after the clamp every non-NaN value is an integer in `[qmin, qmax]`,
/// and NaN maps to 0 as the cast would map it.
#[derive(Clone, Copy)]
struct F32ToCode(QuantParams);

impl F32ToCode {
    /// `None` when `qmax as f32` rounds up to 2^31 (32-bit codes), which
    /// the unchecked cast could not hold.
    fn new(qp: QuantParams) -> Option<Self> {
        ((qp.qmax as f32) < 2_147_483_648.0).then_some(Self(qp))
    }

    #[inline(always)]
    fn code(self, v: f32) -> i32 {
        let qp = self.0;
        let (lo, hi) = (qp.qmin as f32, qp.qmax as f32);
        let q = (v / qp.scale).round_ties_even() + qp.zero_point as f32;
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
            // SAFETY: `q` is an integer in `[qmin, qmax]`, and `new` admits
            // only `qmax as f32 < 2^31`, so it fits `i32`.
            unsafe { q.to_int_unchecked::<i32>() }
        }
    }
}

/// Alignment of a [`Bytes`] tensor's first code: with 64 columns, each row
/// of the SpMM's gathered activations is one cache line.
const BYTES_ALIGN: usize = 64;

/// 8-bit activation codes of the integer engines, one byte per code: the
/// tensor stores `u = q − lo` for codes `q` of the clip range `[lo, hi]`,
/// which holds at most 256 codes. The engines carry the activations of
/// every byte layer (see [`QuantizedGcn::prepare`]) in this form from the
/// input quantization to the final dequantize: the VNNI dense product
/// reads its rows and stores its requantized codes as bytes, the Theorem 1
/// aggregation takes them as the SIMD row kernel's `u` and its correction
/// writes the next layer's bytes. The first code is 64-byte aligned, and
/// [`BYTES_PAD`] zero bytes follow the last.
struct Bytes {
    rows: usize,
    cols: usize,
    buf: Vec<u8>,
    /// Index of the first code in `buf`.
    first: usize,
    /// The clip range `[lo, hi]` every code lies in.
    range: (i32, i32),
    qp: QuantParams,
}

/// Bytes after the last code: the dense product reads each row in quads
/// of four, so its last quad may run three bytes past the row (against
/// zero weights).
const BYTES_PAD: usize = 3;

impl Bytes {
    /// A `rows × cols` tensor of the codes `range.0` (all bytes zero).
    fn zeroed(rows: usize, cols: usize, range: (i32, i32), qp: QuantParams) -> Self {
        debug_assert!((0..=u8::MAX as i64).contains(&(range.1 as i64 - range.0 as i64)));
        let buf = vec![0u8; rows * cols + BYTES_PAD + BYTES_ALIGN - 1];
        let first = buf.as_ptr().addr().wrapping_neg() % BYTES_ALIGN;
        Self {
            rows,
            cols,
            buf,
            first,
            range,
            qp,
        }
    }

    fn codes(&self) -> &[u8] {
        &self.buf[self.first..self.first + self.rows * self.cols]
    }

    fn codes_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.first..self.first + self.rows * self.cols]
    }

    /// The codes and the [`BYTES_PAD`] bytes after them.
    #[cfg(target_arch = "x86_64")]
    fn padded(&self) -> &[u8] {
        &self.buf[self.first..self.first + self.rows * self.cols + BYTES_PAD]
    }

    /// [`QTensor::quantize`] straight into bytes: the same `f32`
    /// arithmetic, code for code. `range` must hold `[qmin, qmax]` and 0,
    /// the code of NaN.
    fn quantize(m: &Matrix, qp: QuantParams, range: (i32, i32)) -> Self {
        let mut t = Self::zeroed(m.rows(), m.cols(), range, qp);
        let c = F32ToCode::new(qp).expect("`range` holds 0 and `qmax` within 256 codes");
        mixq_parallel::par_map_slice(m.data(), t.codes_mut(), |v| {
            c.code(v).wrapping_sub(range.0) as u8
        });
        t
    }

    /// The bytes of `t`'s codes, every one of which lies in `range`.
    fn pack(t: &QTensor, range: (i32, i32)) -> Self {
        let mut b = Self::zeroed(t.rows, t.cols, range, t.qp);
        debug_assert!(t.data.iter().all(|q| (range.0..=range.1).contains(q)));
        mixq_parallel::par_map_slice(&t.data, b.codes_mut(), |q| q.wrapping_sub(range.0) as u8);
        b
    }

    /// The `i32` codes.
    fn widen(&self) -> QTensor {
        let mut data = vec![0i32; self.rows * self.cols];
        let lo = self.range.0;
        mixq_parallel::par_map_slice(self.codes(), &mut data, |u| u as i32 + lo);
        QTensor {
            rows: self.rows,
            cols: self.cols,
            data,
            qp: self.qp,
        }
    }

    /// [`QTensor::dequantize`] of the codes.
    fn dequantize(&self) -> Matrix {
        let mut data = vec![0f32; self.rows * self.cols];
        let (qp, lo) = (self.qp, self.range.0);
        mixq_parallel::par_map_slice(self.codes(), &mut data, |u| qp.dequantize(u as i32 + lo));
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

/// The activations between two steps of the executor: `i32` codes or, in
/// byte layers, [`Bytes`]. A step reads its input in its own form,
/// converting it in place when the previous layer left the other one.
enum Act {
    Codes(QTensor),
    Bytes(Bytes),
}

impl Act {
    /// The `i32` codes, widening bytes in place.
    fn codes(&mut self) -> &QTensor {
        if let Act::Bytes(b) = self {
            *self = Act::Codes(b.widen());
        }
        let Act::Codes(t) = self else {
            unreachable!("widened above")
        };
        t
    }

    /// The bytes of the clip range `range`, which holds every code, packing
    /// `i32` codes in place.
    fn bytes(&mut self, range: (i32, i32)) -> &Bytes {
        if let Act::Codes(t) = self {
            *self = Act::Bytes(Bytes::pack(t, range));
        }
        let Act::Bytes(b) = self else {
            unreachable!("packed above")
        };
        debug_assert_eq!(b.range, range);
        b
    }

    fn dequantize(&self) -> Matrix {
        match self {
            Act::Codes(t) => t.dequantize(),
            Act::Bytes(b) => b.dequantize(),
        }
    }
}

/// Whether `range` holds at most 256 codes, so each fits one byte.
fn fits_byte((lo, hi): (i32, i32)) -> bool {
    hi as i64 - lo as i64 <= u8::MAX as i64
}

/// The requantized dense product `x · w + bias` into `out_qp`, planned once
/// per weight matrix: [`int_matmul_requant`] builds one per call, the
/// engines one per dense step in `prepare`. It holds all the product takes
/// besides the codes: the fixed-point epilogue, the bias folded at the
/// accumulator scale `Sx·Sw` and the weight side of the `i32` bound.
/// [`GemmPlan::vnni`] is the one test of whether a product runs on the VNNI
/// arm, for `i32` codes and for a byte layer's clip range alike.
struct GemmPlan {
    rq: Requant,
    out_qp: QuantParams,
    /// The inner dimension.
    k: usize,
    /// The zero point of `x`.
    zx: i32,
    /// The folded bias, and the same narrowed to `i32` (exact wherever
    /// [`GemmPlan::fits_i32`] holds).
    bias: Vec<i64>,
    bias_i32: Vec<i32>,
    /// Whether every weight code fits `i8`, `max|w − zw|` and `max|bias|`.
    w_i8: bool,
    wmax: u128,
    bmax: u128,
}

impl GemmPlan {
    /// The plan for `x_qp` codes times `w` plus `bias`, into `out_qp`.
    ///
    /// # Panics
    ///
    /// If `bias` does not hold `w.cols` values, or if [`quantize_multiplier`]
    /// rejects the multiplier `Sx·Sw/So`.
    fn new(x_qp: &QuantParams, w: &QTensor, bias: Option<&[f32]>, out_qp: QuantParams) -> Self {
        let acc_scale = x_qp.scale as f64 * w.qp.scale as f64;
        let (m0, rshift) = quantize_multiplier(acc_scale / out_qp.scale as f64);
        let bias: Vec<i64> = match bias {
            Some(b) => {
                assert_eq!(b.len(), w.cols);
                b.iter()
                    .map(|&v| (v as f64 / acc_scale).round() as i64)
                    .collect()
            }
            None => vec![0; w.cols],
        };
        let wr = code_range(&w.data);
        Self {
            rq: Requant {
                m0: m0 as i64,
                shift: 31 + rshift,
                zo: out_qp.zero_point as i64,
                qmin: out_qp.qmin as i64,
                qmax: out_qp.qmax as i64,
            },
            out_qp,
            k: w.rows,
            zx: x_qp.zero_point,
            bias_i32: bias.iter().map(|&b| b as i32).collect(),
            bmax: bias.iter().map(|b| b.unsigned_abs()).max().unwrap_or(0) as u128,
            bias,
            w_i8: wr.0 >= i8::MIN as i32 && wr.1 <= i8::MAX as i32,
            wmax: max_shifted(w.qp.zero_point, wr),
        }
    }

    /// `true` iff the `i32` arms take every `x` whose codes lie in `xr`:
    /// `shift ≤ 62` (for [`Requant::narrow`]) and
    /// `k·max|x−zx|·max|w−zw| + max|bias|`, a bound on every prefix of
    /// every accumulator and on each zero-point-shifted operand, fits `i32`.
    fn fits_i32(&self, xr: (i32, i32)) -> bool {
        let xmax = max_shifted(self.zx, xr);
        let limit = i32::MAX as u128;
        self.rq.shift <= 62
            && xmax <= limit
            && self.wmax <= limit
            && self.k as u128 * xmax * self.wmax + self.bmax <= limit
    }

    /// `true` iff the VNNI arm takes every `x` whose codes lie in `xr`: the
    /// host has AVX-512 VNNI and BW, `xr` spans at most 255 codes, every
    /// weight code fits `i8`, and [`GemmPlan::fits_i32`] holds. `xr` is the
    /// code range of an `i32` input or a byte layer's clip range.
    fn vnni(&self, xr: (i32, i32)) -> bool {
        #[cfg(target_arch = "x86_64")]
        let host = is_x86_feature_detected!("avx512vnni") && is_x86_feature_detected!("avx512bw");
        #[cfg(not(target_arch = "x86_64"))]
        let host = false;
        host && fits_byte(xr) && self.w_i8 && self.fits_i32(xr)
    }

    /// The product of the `i32` codes `x` by `w`: after one pass for their
    /// code range, the VNNI arm where `simd` holds and [`GemmPlan::vnni`]
    /// admits it, else the `i32` register tile below [`NARROW_MAX_COLS`]
    /// output columns and the `i32` axpy above, else the `i64` axpy.
    fn run_codes(&self, x: &QTensor, w: &QTensor, simd: bool) -> QTensor {
        assert_eq!(x.cols, self.k, "int_matmul: inner dimensions differ");
        let xr = code_range(&x.data);
        let mut out = vec![0i32; x.rows * w.cols];
        if simd && self.vnni(xr) {
            // `vnni` holds on x86-64 hosts only.
            #[cfg(target_arch = "x86_64")]
            self.run_vnni(vnni::Rows::Codes(&x.data), xr, w, 0, &mut out);
        } else if !self.fits_i32(xr) {
            gemm_axpy(x, w, &self.bias, |a| self.rq.wide(a), &mut out);
        } else if w.cols < NARROW_MAX_COLS {
            gemm_i32_narrow(x, w, &self.bias_i32, &self.rq, &mut out);
        } else {
            gemm_axpy(x, w, &self.bias_i32, |a| self.rq.narrow(a), &mut out);
        }
        count_requant(out.len());
        QTensor {
            rows: x.rows,
            cols: w.cols,
            data: out,
            qp: self.out_qp,
        }
    }

    /// The product of the bytes `x` by `w` on the VNNI arm, as bytes of
    /// `[qmin, qmax]` of `out_qp`. `prepare` proved [`GemmPlan::vnni`] over
    /// `x`'s clip range, so it reads no code to choose the arm.
    fn run_bytes(&self, x: &Bytes, w: &QTensor) -> Bytes {
        let qp = self.out_qp;
        let mut out = Bytes::zeroed(x.rows, w.cols, (qp.qmin, qp.qmax), qp);
        count_requant(out.rows * out.cols);
        #[cfg(target_arch = "x86_64")]
        {
            let (rows, off) = (vnni::Rows::Bytes(x.padded()), out.range.0);
            self.run_vnni(rows, x.range, w, off, out.codes_mut());
            out
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            unreachable!("byte layers are planned on x86-64 hosts only")
        }
    }

    /// The VNNI product of the rows `x`, whose codes lie in `xr`, stored as
    /// `code − off` into `out`.
    #[cfg(target_arch = "x86_64")]
    fn run_vnni<O: vnni::Store>(
        &self,
        x: vnni::Rows<'_>,
        xr: (i32, i32),
        w: &QTensor,
        off: i32,
        out: &mut [O],
    ) {
        debug_assert!(self.vnni(xr));
        mixq_telemetry::counter_add("qinfer.requant.vnni_path", 1);
        // SAFETY: `vnni` admitted `xr` only on a host with AVX-512 VNNI and
        // BW, which imply F.
        unsafe { vnni::gemm(x, xr.0, self, w, off, out) };
    }
}

/// `max|v − z|` over the codes `v` of `range` (0 for an empty range): it
/// peaks at an end of the range.
fn max_shifted(z: i32, (lo, hi): (i32, i32)) -> u128 {
    if lo > hi {
        0
    } else {
        lo.abs_diff(z).max(hi.abs_diff(z)) as u128
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
/// `i64` with an `i128` multiply. The arithmetic is exact on every path,
/// so they produce the same codes.
///
/// The `i32` product has three arms. On an x86-64 host with AVX-512 VNNI
/// and BW, when the codes of `x` span at most 255 and every weight code
/// fits `i8`, a `vpdpbusd` kernel takes four inner terms per instruction
/// (see the module doc); the telemetry counter `qinfer.requant.vnni_path`
/// counts its calls. Otherwise outputs of at most 48 columns run a
/// register tile of 4 rows × 16 lanes over zero-padded packed weights, and
/// wider ones axpy-accumulate each output row, skipping inputs at their
/// zero point.
/// [`int_matmul_requant_portable`] is the same product without the SIMD
/// arm.
pub fn int_matmul_requant(
    x: &QTensor,
    w: &QTensor,
    bias: Option<&[f32]>,
    out_qp: QuantParams,
) -> QTensor {
    GemmPlan::new(&x.qp, w, bias, out_qp).run_codes(x, w, true)
}

/// [`int_matmul_requant`] without its SIMD arm, on every host: the
/// reference the SIMD arm is held to bit for bit, in the tests and in
/// `kernel_bench`.
pub fn int_matmul_requant_portable(
    x: &QTensor,
    w: &QTensor,
    bias: Option<&[f32]>,
    out_qp: QuantParams,
) -> QTensor {
    GemmPlan::new(&x.qp, w, bias, out_qp).run_codes(x, w, false)
}

fn count_requant(elems: usize) {
    if mixq_telemetry::enabled() {
        mixq_telemetry::counter_add("qinfer.requant.calls", 1);
        mixq_telemetry::counter_add("qinfer.requant.elems", elems as u64);
    }
}

/// Output widths below this take the register tile of
/// [`gemm_i32_narrow`] in the portable `i32` product; wider ones take the
/// axpy arm, which skips inputs at their zero point. The tile's cost grows
/// with whole 16-lane blocks, the axpy's with columns, so the cutoff sits
/// at a block edge: the tile runs up to 48 columns (3 blocks). On the
/// engine's shapes (8-bit codes, 1 thread, AVX-512 host, medians of 9×20
/// calls, three alternating runs; tile vs axpy, in ms):
///
/// | `x` | columns | tile | axpy |
/// |---|---|---|---|
/// | 1500 × 64, post-ReLU | 7 | 0.109 | 0.30–0.32 |
/// | 1500 × 64, post-ReLU | 32 / 48 | 0.22 / 0.33 | 0.27–0.28 / 0.41–0.42 |
/// | 1500 × 64, post-ReLU | 64 | 0.43–0.45 | 0.38–0.39 |
/// | 8000 × 64, post-ReLU | 12 | 0.63–0.64 | 1.44–1.47 |
/// | 8000 × 64, post-ReLU | 32 / 48 | 1.2–1.6 / 1.9–2.5 | 2.1–2.3 / 2.4–3.7 |
/// | 8000 × 64, post-ReLU | 64 | 2.4–2.5 | 2.18–2.24 |
/// | 1500 × 180, `cora-t1` features | 64 | 1.50–1.58 | 0.41–0.45 |
/// | 8000 × 80, dense | 64 | 2.8–3.6 | 4.5–4.9 |
/// | 1500 × 64, 16-bit weights | 7 / 32 / 64 | 0.109 / 0.22 / 0.43 | 0.30 / 0.27 / 0.38 |
///
/// At 80 to 128 columns the axpy wins on the post-ReLU inputs too.
const NARROW_MAX_COLS: usize = 49;
/// Lane width of [`gemm_i32_narrow`]'s tile: outputs are computed in blocks
/// of this many columns, the weights zero-padded to a whole block.
const NARROW_LANES: usize = 16;
/// Rows of `x` per [`gemm_i32_narrow`] tile: each packed weight row loaded
/// feeds this many output rows.
const NARROW_ROWS: usize = 4;

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

/// `(min, max)` of `codes` in one pass (`(i32::MAX, i32::MIN)` when
/// empty): it decides both the accumulator width and the SIMD arm's
/// eligibility.
fn code_range(codes: &[i32]) -> (i32, i32) {
    codes
        .iter()
        .fold((i32::MAX, i32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// The portable product as one axpy of a weight row per input code off its
/// zero point, in accumulators of `A` that start at `bias` and end in
/// `requant`: `i32` with [`Requant::narrow`] where [`GemmPlan::fits_i32`]
/// holds, else `i64` with [`Requant::wide`]. Either sum is exact.
fn gemm_axpy<A>(
    x: &QTensor,
    w: &QTensor,
    bias: &[A],
    requant: impl Fn(A) -> i32 + Sync,
    out: &mut [i32],
) where
    A: Copy + Send + Sync + From<i32> + Sub<Output = A> + Mul<Output = A> + AddAssign,
{
    let (k, m, zx) = (x.cols, w.cols, x.qp.zero_point);
    let zw = A::from(w.qp.zero_point);
    let wz: Vec<A> = w.data.iter().map(|&v| A::from(v) - zw).collect();
    // Output rows are independent: partition them across threads, each with
    // its own accumulator row. Integer arithmetic ⇒ exact at any count.
    mixq_parallel::par_row_chunks_mut(out, x.rows, m, |start, chunk| {
        let mut acc = bias.to_vec();
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
                    let a = A::from(xr[kk]) - A::from(zx);
                    for (o, &wv) in acc.iter_mut().zip(&wz[kk * m..(kk + 1) * m]) {
                        *o += a * wv;
                    }
                }
            }
            for (o, &a) in orow.iter_mut().zip(&acc) {
                *o = requant(a);
            }
        }
    });
}

/// `i32` product for narrow outputs as a register tile: [`NARROW_ROWS`]
/// rows × [`NARROW_LANES`] columns of accumulators start from the bias and
/// add `(x − zx)·(w − zw)` over the whole inner dimension, each loaded
/// weight row feeding every tile row. The shifted weights are packed once
/// into zero-padded rows of `NARROW_LANES` (block `jb` holds columns
/// `jb·NARROW_LANES..` of every weight row, contiguously); a padded lane
/// stays 0 and is never stored. The sums are exact under the
/// [`GemmPlan::fits_i32`] bound, so their order does not matter.
fn gemm_i32_narrow(x: &QTensor, w: &QTensor, bias: &[i32], rq: &Requant, out: &mut [i32]) {
    let (k, m, zx) = (x.cols, w.cols, x.qp.zero_point);
    if m == 0 {
        return;
    }
    let blocks = m.div_ceil(NARROW_LANES);
    let mut wp = vec![0i32; blocks * k * NARROW_LANES];
    for (kk, wrow) in w.data.chunks_exact(m).enumerate() {
        for (jb, seg) in wrow.chunks(NARROW_LANES).enumerate() {
            let dst = &mut wp[(jb * k + kk) * NARROW_LANES..];
            for (d, &v) in dst.iter_mut().zip(seg) {
                *d = v - w.qp.zero_point;
            }
        }
    }
    let mut bp = vec![0i32; blocks * NARROW_LANES];
    bp[..m].copy_from_slice(bias);
    mixq_parallel::par_row_chunks_mut(out, x.rows, m, |start, chunk| {
        let rows = chunk.len() / m;
        for r0 in (0..rows).step_by(NARROW_ROWS) {
            // A short last tile repeats its last row; the copies are not stored.
            let live = NARROW_ROWS.min(rows - r0);
            let xr: [&[i32]; NARROW_ROWS] = std::array::from_fn(|ii| {
                let g = start + r0 + ii.min(live - 1);
                &x.data[g * k..(g + 1) * k]
            });
            for (jb, bl) in bp.chunks_exact(NARROW_LANES).enumerate() {
                let mut acc = [[0i32; NARROW_LANES]; NARROW_ROWS];
                for accr in &mut acc {
                    accr.copy_from_slice(bl);
                }
                let panel = &wp[jb * k * NARROW_LANES..(jb + 1) * k * NARROW_LANES];
                for (kk, wk) in panel.chunks_exact(NARROW_LANES).enumerate() {
                    let wk: &[i32; NARROW_LANES] = wk.try_into().expect("a packed row");
                    for (accr, xrow) in acc.iter_mut().zip(&xr) {
                        let a = xrow[kk] - zx;
                        for l in 0..NARROW_LANES {
                            accr[l] += a * wk[l];
                        }
                    }
                }
                let j = jb * NARROW_LANES;
                let width = NARROW_LANES.min(m - j);
                for (ii, accr) in acc.iter().take(live).enumerate() {
                    let orow = &mut chunk[(r0 + ii) * m + j..(r0 + ii) * m + j + width];
                    for (o, &a) in orow.iter_mut().zip(accr) {
                        *o = rq.narrow(a);
                    }
                }
            }
        }
    });
}

/// The AVX-512 VNNI arm of [`int_matmul_requant`]'s `i32` product and of the
/// engines' byte layers ([`GemmPlan::run_bytes`]); see the module doc for
/// the arithmetic.
///
/// The weights are packed once per call into byte quads: lane `l` of block
/// `jb` at group `g` holds the `i8` codes `w[4g..4g + 4][16·jb + l]`, zero
/// past the last row and column, stored group-major so that a tile's blocks
/// sit side by side. A tile reads [`ROWS`] rows of `x` as `u = x − lo` in
/// `u8`: `i32` codes are packed per tile (zero-padded to a multiple of
/// four, with `lo = min(x)`), byte codes are read where they lie. One
/// `vpdpbusd` of a row's broadcast quad against a block's weight quads adds
/// four inner terms to 16 output columns; a tile holds up to [`MAX_BLOCKS`]
/// blocks, so 16 accumulators, over the whole inner dimension, then
/// requantizes them in `i64` lanes and stores them as `i32` codes or as
/// bytes.
#[cfg(target_arch = "x86_64")]
mod vnni {
    use std::arch::x86_64::*;

    use super::{GemmPlan, QTensor, Requant};

    /// `i32` lanes per block: output columns per `vpdpbusd`.
    const LANES: usize = 16;
    /// Inner terms per lane per `vpdpbusd`.
    const QUAD: usize = 4;
    /// Bytes of one block's weight quads at one group.
    const PANEL: usize = LANES * QUAD;
    /// Rows of `x` per tile: each loaded weight vector feeds this many rows.
    const ROWS: usize = 4;
    /// Blocks per tile: 4 rows × 4 blocks of accumulators.
    const MAX_BLOCKS: usize = 4;

    /// The rows of `x`, row-major, as codes `x = u + lo`.
    pub(super) enum Rows<'a> {
        /// `i32` codes, packed per tile as `u8`.
        Codes(&'a [i32]),
        /// The bytes `u` themselves, followed by at least `QUAD − 1` bytes
        /// that a row's last quad may read (they meet zero weights).
        Bytes(&'a [u8]),
    }

    /// The code types the product stores: `i32` codes, or bytes (each
    /// `code − off` truncated to its low byte, so its range must fit one).
    pub(super) trait Store: Copy + Default + Send {
        /// Stores the lanes of `codes − off` that `mask` selects to `dst`
        /// onward.
        ///
        /// # Safety
        ///
        /// The host must support AVX-512 F, and each selected lane's
        /// element of `dst` must be writable.
        unsafe fn store(dst: *mut Self, mask: u16, codes: __m512i, off: __m512i);
    }

    impl Store for i32 {
        #[target_feature(enable = "avx512f")]
        unsafe fn store(dst: *mut i32, mask: u16, codes: __m512i, off: __m512i) {
            _mm512_mask_storeu_epi32(dst, mask, _mm512_sub_epi32(codes, off));
        }
    }

    impl Store for u8 {
        #[target_feature(enable = "avx512f")]
        unsafe fn store(dst: *mut u8, mask: u16, codes: __m512i, off: __m512i) {
            _mm512_mask_cvtepi32_storeu_epi8(dst.cast(), mask, _mm512_sub_epi32(codes, off));
        }
    }

    /// The `i32` product `Σ (x−zx)(w−zw) + bias` of `plan`, requantized,
    /// for codes of `x` that [`GemmPlan::vnni`] admits, stored as
    /// `code − off` into `out` (`rows × w.cols`). `x` has `k = w.rows`
    /// columns and codes `u + lo`.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F, BW and VNNI, as [`GemmPlan::vnni`]
    /// checks.
    pub(super) unsafe fn gemm<O: Store>(
        x: Rows<'_>,
        lo: i32,
        plan: &GemmPlan,
        w: &QTensor,
        off: i32,
        out: &mut [O],
    ) {
        let (k, zx, rq) = (plan.k, plan.zx, &plan.rq);
        let m = w.cols;
        if m == 0 {
            return;
        }
        let rows = out.len() / m;
        let k4 = k.div_ceil(QUAD) * QUAD;
        let blocks = m.div_ceil(LANES);
        let mut wq = vec![0u8; k4 / QUAD * blocks * PANEL];
        let mut colsum = vec![0i32; m];
        for (kk, wrow) in w.data.chunks_exact(m).enumerate() {
            let base = kk / QUAD * blocks * PANEL + kk % QUAD;
            for (j, (&v, c)) in wrow.iter().zip(&mut colsum).enumerate() {
                wq[base + j / LANES * PANEL + j % LANES * QUAD] = v as u8;
                *c = c.wrapping_add(v);
            }
        }
        // With `x = u + lo` and `d = lo − zx`, `Σ (x−zx)(w−zw)` is
        // `Σ u·w + d·colsum(w) − zw·(rowsum(u) + k·d)`: the column terms
        // and the bias start every lane, the row term is added per row.
        // All of it wraps mod 2³², as `vpdpbusd` does.
        let (d, zw) = (lo.wrapping_sub(zx), w.qp.zero_point);
        let kd = (k as i32).wrapping_mul(d);
        let mut start = vec![0i32; blocks * LANES];
        for ((s, &b), &c) in start.iter_mut().zip(&plan.bias_i32).zip(&colsum) {
            *s = b
                .wrapping_add(d.wrapping_mul(c))
                .wrapping_sub(zw.wrapping_mul(kd));
        }
        mixq_parallel::par_row_chunks_mut(out, rows, m, |first, chunk| {
            let rows = chunk.len() / m;
            let mut packed = match x {
                Rows::Codes(_) => vec![0u8; ROWS * k4],
                Rows::Bytes(_) => Vec::new(),
            };
            for r0 in (0..rows).step_by(ROWS) {
                // A short last tile repeats its last row; the copies are
                // not stored.
                let live = ROWS.min(rows - r0);
                let g = |ii: usize| first + r0 + ii.min(live - 1);
                let mut sums = [0u32; ROWS];
                match x {
                    Rows::Codes(data) => {
                        for (ii, sum) in sums.iter_mut().enumerate() {
                            let src = &data[g(ii) * k..(g(ii) + 1) * k];
                            for (b, &v) in packed[ii * k4..].iter_mut().zip(src) {
                                *b = v.wrapping_sub(lo) as u8;
                                *sum = sum.wrapping_add(*b as u32);
                            }
                        }
                    }
                    Rows::Bytes(data) => {
                        for (ii, sum) in sums.iter_mut().enumerate() {
                            let src = &data[g(ii) * k..(g(ii) + 1) * k];
                            *sum = src.iter().fold(0u32, |s, &b| s.wrapping_add(b as u32));
                        }
                    }
                }
                let u: [&[u8]; ROWS] = match x {
                    Rows::Codes(_) => std::array::from_fn(|ii| &packed[ii * k4..(ii + 1) * k4]),
                    Rows::Bytes(data) => std::array::from_fn(|ii| &data[g(ii) * k..g(ii) * k + k4]),
                };
                let row_term = sums.map(|s| zw.wrapping_mul(s as i32).wrapping_neg());
                let tile_out = &mut chunk[r0 * m..(r0 + live) * m];
                for cb in (0..blocks).step_by(MAX_BLOCKS) {
                    let t = Tile {
                        u,
                        k4,
                        wq: &wq,
                        blocks,
                        cb,
                        start: &start,
                        row_term: &row_term,
                    };
                    // SAFETY: the caller guarantees every feature the kernel
                    // enables. Each row of `u` holds `k4` bytes, `wq` holds
                    // `k4 / QUAD` groups of `blocks` panels and `start`
                    // `blocks` blocks of lanes; `cb + NB ≤ blocks`, block
                    // `cb + NB − 1` starts below `m`, and `tile_out` holds
                    // `live ≤ ROWS` rows of `m` codes.
                    unsafe {
                        match (blocks - cb).min(MAX_BLOCKS) {
                            1 => t.run::<1, O>(rq, off, tile_out, m, live),
                            2 => t.run::<2, O>(rq, off, tile_out, m, live),
                            3 => t.run::<3, O>(rq, off, tile_out, m, live),
                            _ => t.run::<MAX_BLOCKS, O>(rq, off, tile_out, m, live),
                        }
                    }
                }
            }
        });
    }

    /// One tile's operands: [`ROWS`] rows of `u`, `k4` bytes each, the
    /// weight quads (`blocks` panels per group) from block `cb` on, the
    /// padded column start values and each row's `−zw·rowsum(u)`.
    struct Tile<'a> {
        u: [&'a [u8]; ROWS],
        k4: usize,
        wq: &'a [u8],
        blocks: usize,
        cb: usize,
        start: &'a [i32],
        row_term: &'a [i32; ROWS],
    }

    impl Tile<'_> {
        /// Accumulates blocks `cb .. cb + NB` of the tile's rows over the
        /// whole inner dimension and stores the first `live` rows,
        /// requantized and less `off`, into `out` (rows of `m` codes,
        /// column `16·cb` on).
        ///
        /// # Safety
        ///
        /// The host must support AVX-512 F, BW and VNNI. Each row of `u`
        /// must hold `k4` bytes with `k4` a multiple of 4, `wq` at least
        /// `k4 / 4 · blocks` panels, `start` at least `blocks · 16` lanes,
        /// `cb + NB ≤ blocks` with `16·(cb + NB − 1) < m`, and `out` at
        /// least `live · m` codes with `live ≤ ROWS`.
        #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
        unsafe fn run<const NB: usize, O: Store>(
            &self,
            rq: &Requant,
            off: i32,
            out: &mut [O],
            m: usize,
            live: usize,
        ) {
            debug_assert!(
                self.u.iter().all(|r| r.len() >= self.k4) && self.k4.is_multiple_of(QUAD)
            );
            debug_assert!(self.wq.len() >= self.k4 / QUAD * self.blocks * PANEL);
            debug_assert!(self.cb + NB <= self.blocks && (self.cb + NB - 1) * LANES < m);
            debug_assert!(self.start.len() >= self.blocks * LANES);
            debug_assert!(live <= ROWS && out.len() >= live * m);
            let mut acc = [[_mm512_setzero_si512(); NB]; ROWS];
            for (accr, &t) in acc.iter_mut().zip(self.row_term) {
                let t = _mm512_set1_epi32(t);
                for (b, a) in accr.iter_mut().enumerate() {
                    // SAFETY: lanes `16·(cb + b) ..+ 16` of `start`, in bounds.
                    let s =
                        _mm512_loadu_si512(self.start.as_ptr().add((self.cb + b) * LANES).cast());
                    *a = _mm512_add_epi32(s, t);
                }
            }
            let up = self.u.map(|r| r.as_ptr());
            let mut wp = self.wq.as_ptr().add(self.cb * PANEL);
            for g in 0..self.k4 / QUAD {
                let mut xs = [_mm512_setzero_si512(); ROWS];
                for (x, &p) in xs.iter_mut().zip(&up) {
                    // SAFETY: bytes `4g ..+ 4` of a row of `u`, in bounds.
                    *x = _mm512_set1_epi32(p.add(g * QUAD).cast::<i32>().read_unaligned());
                }
                for b in 0..NB {
                    // SAFETY: panel `g·blocks + cb + b` of `wq`, in bounds.
                    let wv = _mm512_loadu_si512(wp.add(b * PANEL).cast());
                    for (accr, &x) in acc.iter_mut().zip(&xs) {
                        accr[b] = _mm512_dpbusd_epi32(accr[b], x, wv);
                    }
                }
                wp = wp.add(self.blocks * PANEL);
            }
            let e = Epilogue::new(rq);
            let off = _mm512_set1_epi32(off);
            for (r, accr) in acc.iter().enumerate().take(live) {
                for (b, &a) in accr.iter().enumerate() {
                    let j = (self.cb + b) * LANES;
                    let mask = (u32::MAX >> (32 - LANES.min(m - j))) as u16;
                    // SAFETY: the stored lanes are columns `j ..` below `m`
                    // of row `r < live`.
                    O::store(out.as_mut_ptr().add(r * m + j), mask, e.apply(a), off);
                }
            }
        }
    }

    /// [`Requant::narrow`] on 16 lanes: the same `i64` fixed-point product,
    /// rounding shift, zero point and clip, for even and odd lanes apart.
    struct Epilogue {
        m0: __m512i,
        round: __m512i,
        shift: __m512i,
        zo: __m512i,
        qmin: __m512i,
        qmax: __m512i,
    }

    impl Epilogue {
        #[target_feature(enable = "avx512f")]
        fn new(rq: &Requant) -> Self {
            Self {
                m0: _mm512_set1_epi64(rq.m0),
                round: _mm512_set1_epi64(1i64 << (rq.shift - 1)),
                shift: _mm512_set1_epi64(rq.shift as i64),
                zo: _mm512_set1_epi64(rq.zo),
                qmin: _mm512_set1_epi64(rq.qmin),
                qmax: _mm512_set1_epi64(rq.qmax),
            }
        }

        /// The requantized codes of 16 `i32` accumulators.
        #[target_feature(enable = "avx512f")]
        fn apply(&self, acc: __m512i) -> __m512i {
            // `m0 < 2³¹`, so the low-dword product is `acc · m0` in `i64`.
            let even = self.narrow(_mm512_mul_epi32(acc, self.m0));
            let odd = self.narrow(_mm512_mul_epi32(_mm512_srli_epi64::<32>(acc), self.m0));
            _mm512_mask_blend_epi32(0xAAAA, even, _mm512_slli_epi64::<32>(odd))
        }

        /// `clip(((prod + round) >> shift) + zo)` in `i64` lanes.
        #[target_feature(enable = "avx512f")]
        fn narrow(&self, prod: __m512i) -> __m512i {
            let q = _mm512_srav_epi64(_mm512_add_epi64(prod, self.round), self.shift);
            let q = _mm512_max_epi64(_mm512_add_epi64(q, self.zo), self.qmin);
            _mm512_min_epi64(q, self.qmax)
        }
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

/// Runs one phase of an engine's `infer` under the span `name`, nested in
/// the engine's `infer` span. With telemetry off the span costs one relaxed
/// load.
fn phase<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = mixq_telemetry::span(name);
    f()
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

// ---- the executor -------------------------------------------------------------

/// A dense step: the input codes times the integer weights `w`, requantized
/// as `plan` says.
struct Dense {
    w: QTensor,
    plan: GemmPlan,
    /// The clip range of the input codes when the step runs
    /// [`GemmPlan::run_bytes`] on bytes; `None` runs [`GemmPlan::run_codes`]
    /// on `i32` codes.
    bytes: Option<(i32, i32)>,
}

impl Dense {
    fn run(&self, x: &mut Act) -> Act {
        match self.bytes {
            Some(range) => Act::Bytes(self.plan.run_bytes(x.bytes(range), &self.w)),
            None => Act::Codes(self.plan.run_codes(x.codes(), &self.w, true)),
        }
    }
}

/// An aggregate step: Theorem 1 through the quantized adjacency (`Z_a = 0`)
/// with the parameters `p`, whose clip range may fold a ReLU, into `out_qp`.
struct Aggregate {
    adj: Arc<QuantCsr>,
    p: QmpParams,
    out_qp: QuantParams,
    /// The clip range of the input codes when the step runs
    /// [`quantized_spmm_u8`] on bytes; `None` runs [`quantized_spmm`] on
    /// `i32` codes.
    bytes: Option<(i32, i32)>,
}

impl Aggregate {
    fn run(&self, x: &mut Act) -> Act {
        let (adj, p, rows) = (&*self.adj, &self.p, self.adj.rows());
        match self.bytes {
            Some(range) => {
                let h = x.bytes(range);
                let mut y = Bytes::zeroed(rows, h.cols, (p.y_qmin, p.y_qmax), self.out_qp);
                quantized_spmm_u8(adj, h.codes(), h.range, h.cols, p, y.codes_mut());
                Act::Bytes(y)
            }
            None => {
                let h = x.codes();
                Act::Codes(QTensor {
                    rows,
                    cols: h.cols,
                    data: quantized_spmm(adj, &h.data, h.cols, p),
                    qp: self.out_qp,
                })
            }
        }
    }
}

/// SAGE's add step: `clip(r + n − Z)` of the two branch products, both
/// requantized straight into the output quantizer `qp`, so the add is a
/// plain integer add with one zero-point correction. Hidden layers fold the
/// ReLU into `clip`.
struct Add {
    qp: QuantParams,
    clip: (i32, i32),
    /// Whether the step runs on bytes.
    bytes: bool,
}

impl Add {
    fn run(&self, r: &mut Act, n: &mut Act) -> Act {
        let z = self.qp.zero_point as i64;
        let (lo, hi) = (self.clip.0 as i64, self.clip.1 as i64);
        if self.bytes {
            let range = (self.qp.qmin, self.qp.qmax);
            let (r, n) = (r.bytes(range), n.bytes(range));
            let base = r.range.0 as i64 + n.range.0 as i64 - z;
            let mut y = Bytes::zeroed(r.rows, r.cols, self.clip, self.qp);
            for ((o, &a), &b) in y.codes_mut().iter_mut().zip(r.codes()).zip(n.codes()) {
                *o = ((a as i64 + b as i64 + base).max(lo).min(hi) - lo) as u8;
            }
            Act::Bytes(y)
        } else {
            let (r, n) = (r.codes(), n.codes());
            let data = r
                .data
                .iter()
                .zip(&n.data)
                .map(|(&a, &b)| (a as i64 + b as i64 - z).max(lo).min(hi) as i32)
                .collect();
            Act::Codes(QTensor {
                rows: r.rows,
                cols: r.cols,
                data,
                qp: self.qp,
            })
        }
    }
}

/// One layer of the executor, in one of the two shapes of Fig. 5(iv).
/// `prepare` lets a layer run on bytes only when every one of its steps
/// can, so activations change form only between layers.
// A net holds a handful of layers, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Layer {
    /// GCN: the dense step, then the aggregation of its output.
    Gcn(Dense, Aggregate),
    /// GraphSAGE: the aggregation of the input, then the root product of
    /// the input and the neighbour product of the aggregation, added.
    Sage(Aggregate, Dense, Dense, Add),
}

impl Layer {
    /// The clip range of the input codes when the layer runs on bytes.
    fn input_bytes(&self) -> Option<(i32, i32)> {
        match self {
            Layer::Gcn(dense, _) => dense.bytes,
            Layer::Sage(agg, ..) => agg.bytes,
        }
    }

    /// Keeps the byte plans if every step has one and drops them otherwise:
    /// a layer runs wholly on bytes or wholly on `i32` codes.
    fn one_form(&mut self) {
        match self {
            Layer::Gcn(dense, agg) => {
                if dense.bytes.is_none() || agg.bytes.is_none() {
                    (dense.bytes, agg.bytes) = (None, None);
                }
            }
            Layer::Sage(agg, root, neigh, add) => {
                let all = agg.bytes.is_some() && root.bytes.is_some() && neigh.bytes.is_some();
                if !(all && add.bytes) {
                    (agg.bytes, root.bytes, neigh.bytes, add.bytes) = (None, None, None, false);
                }
            }
        }
    }

    /// Runs the layer's steps: the dense steps (for SAGE, both products and
    /// the add) under the phase `matmul`, the aggregation under `aggregate`.
    fn run(&self, x: &mut Act) -> Act {
        match self {
            Layer::Gcn(dense, agg) => {
                let mut h = phase("matmul", || dense.run(x));
                phase("aggregate", || agg.run(&mut h))
            }
            Layer::Sage(agg, root, neigh, add) => {
                let mut a = phase("aggregate", || agg.run(x));
                phase("matmul", || {
                    add.run(&mut root.run(x), &mut neigh.run(&mut a))
                })
            }
        }
    }

    fn bits(&self) -> LayerBits {
        let (w, out_qp, agg) = match self {
            Layer::Gcn(dense, agg) => (&dense.w, agg.out_qp, agg),
            Layer::Sage(agg, root, _, add) => (&root.w, add.qp, agg),
        };
        LayerBits {
            weight_bits: w.qp.bits,
            activation_bits: out_qp.bits,
            adj_bits: agg.adj.bits(),
        }
    }
}

/// A tensor's quantizer and the clip range its codes lie in.
type QRange = (QuantParams, (i32, i32));

/// `prepare`'s per-step work for both layer shapes: weight quantization,
/// one quantized adjacency per code width shared by the layers, the
/// accumulator bound of the layer being planned, and each step's byte plan.
struct Planner<'a> {
    adj: &'a CsrMatrix,
    /// The quantized adjacency and its scale, one copy per code width.
    adjs: Vec<(Arc<QuantCsr>, f32)>,
    /// The largest worst-case accumulator of the layer's steps so far.
    bound: i128,
}

impl Planner<'_> {
    /// The dense step of `x` times `w` (quantized by `w_qp`) plus `bias`,
    /// into `out_qp`. It runs on bytes when `out_qp` holds at most 256
    /// codes and the VNNI arm takes every code of `x`'s range.
    fn dense(
        &mut self,
        x: QRange,
        w: &Matrix,
        w_qp: QuantParams,
        bias: Option<&[f32]>,
        out_qp: QuantParams,
    ) -> Dense {
        self.bound = self
            .bound
            .max(matmul_acc_bound(w.rows(), &x.0, &w_qp, bias));
        let w = QTensor::quantize(w, w_qp);
        let plan = GemmPlan::new(&x.0, &w, bias, out_qp);
        let bytes = (fits_byte((out_qp.qmin, out_qp.qmax)) && plan.vnni(x.1)).then_some(x.1);
        Dense { w, plan, bytes }
    }

    /// The aggregate step of `x`'s `cols` columns through the adjacency
    /// quantized to `bits` (capped at 16, like the codes), into `out_qp`
    /// clipped to `clip`. It runs on bytes when `clip` holds at most 256
    /// codes and the SIMD row kernel takes every code of `x`'s range.
    fn aggregate(&mut self, x: QRange, cols: usize, bits: u8, (out_qp, clip): QRange) -> Aggregate {
        let bits = bits.min(16);
        let (adj, scale) = match self.adjs.iter().find(|(q, _)| q.bits() == bits) {
            Some(shared) => shared.clone(),
            None => {
                let (q, scale) = quantize_csr_symmetric(self.adj, bits);
                self.adjs.push((Arc::new(q), scale));
                self.adjs[self.adjs.len() - 1].clone()
            }
        };
        self.bound = self.bound.max(spmm_acc_bound(&adj, &x.0));
        let p = QmpParams::per_tensor(
            adj.rows(),
            cols,
            scale,
            0,
            x.0.scale,
            x.0.zero_point,
            out_qp.scale,
            out_qp.zero_point,
            clip.0,
            clip.1,
        );
        let bytes = (fits_byte(clip) && byte_arm_eligible(&adj, x.1)).then_some(x.1);
        Aggregate {
            adj,
            p,
            out_qp,
            bytes,
        }
    }
}

/// The integer executor behind [`QuantizedGcn`] and [`QuantizedSage`].
struct Executor {
    input_qp: QuantParams,
    layers: Vec<Layer>,
}

impl Executor {
    /// Plans the layers of `snapshots` in order. `layer` builds one from
    /// its snapshot, its input's quantizer and clip range, and whether it
    /// is hidden (its ReLU folds into its output clip), and returns it with
    /// its output's quantizer and clip range. Panics, naming `engine`, if a
    /// layer's accumulator bound reaches 2^62.
    fn prepare<L>(
        engine: &str,
        input_qp: QuantParams,
        adj: &CsrMatrix,
        snapshots: &[L],
        mut layer: impl FnMut(&mut Planner, &L, QRange, bool) -> (Layer, QRange),
    ) -> Self {
        let mut planner = Planner {
            adj,
            adjs: Vec::new(),
            bound: 0,
        };
        // The input codes lie in `[qmin, qmax]` and at 0, the code that
        // `QTensor::quantize` gives NaN.
        let mut x = (input_qp, (input_qp.qmin.min(0), input_qp.qmax.max(0)));
        let mut layers = Vec::with_capacity(snapshots.len());
        for (i, snapshot) in snapshots.iter().enumerate() {
            planner.bound = 0;
            let (mut planned, out) = layer(&mut planner, snapshot, x, i + 1 < snapshots.len());
            assert_acc_bound(engine, i, planner.bound);
            planned.one_form();
            layers.push(planned);
            x = out;
        }
        Self { input_qp, layers }
    }

    /// Runs integer inference under the span `root` and returns
    /// dequantized logits.
    fn infer(&self, root: &'static str, features: &Matrix) -> Matrix {
        let _span = mixq_telemetry::span(root);
        let first = self.layers.first().and_then(Layer::input_bytes);
        let mut x = phase("quantize", || match first {
            Some(range) => Act::Bytes(Bytes::quantize(features, self.input_qp, range)),
            None => Act::Codes(QTensor::quantize(features, self.input_qp)),
        });
        for layer in &self.layers {
            if layer.input_bytes().is_some() {
                mixq_telemetry::counter_add("qinfer.byte_layers", 1);
            }
            x = layer.run(&mut x);
        }
        phase("dequantize", || x.dequantize())
    }

    fn bit_config(&self) -> Vec<LayerBits> {
        self.layers.iter().map(Layer::bits).collect()
    }
}

/// The integer GCN executor: Fig. 5(iv) for the multi-layer GCN.
pub struct QuantizedGcn(Executor);

impl QuantizedGcn {
    /// Prepares integer weights, the quantized adjacency and each layer's
    /// Theorem 1 parameters from a trained snapshot and the (normalized)
    /// adjacency.
    ///
    /// It also chooses, once per layer, whether the layer runs on bytes
    /// (one byte per activation code; see the module doc): the dense
    /// product on the VNNI arm for every input in the layer's input clip
    /// range (AVX-512 VNNI and BW, weight codes within `i8`, the `i32`
    /// bound proved from the quantizers' `qmin`/`qmax`), the aggregation on
    /// the SIMD row kernel for every code of `lin_qp` (adjacency codes
    /// within `±127`, the `i32` bound), and every activation clip range of
    /// at most 256 codes. The other layers (16-bit parts, other hosts) run
    /// the `i32` path. The codes are the same either way.
    ///
    /// # Panics
    ///
    /// If a layer's static accumulator bound reaches 2^62, so that its
    /// `i64` accumulators could overflow. Snapshots exported by
    /// `QGcnNet::snapshot` (operands of at most 16 bits) reach it only at
    /// an inner dimension of 2^30 or a row of 2^29 non-zeros.
    ///
    /// If [`quantize_multiplier`] rejects a dense product's multiplier
    /// `Sx·Sw/So` (not positive and finite, or too large for the fixed
    /// point), or a bias does not hold one value per output column:
    /// `prepare` plans every dense product, so these panic here, not at the
    /// first `infer`.
    pub fn prepare(snapshot: &GcnSnapshot, adj_norm: &CsrMatrix) -> Self {
        Self(Executor::prepare(
            "QuantizedGcn::prepare",
            snapshot.input_qp,
            adj_norm,
            &snapshot.layers,
            |p, l, x, hidden| {
                let dense = p.dense(x, &l.weight, l.w_qp, l.bias.as_deref(), l.lin_qp);
                let lin = (l.lin_qp, clip_range(&l.lin_qp, false));
                let out = (l.agg_qp, clip_range(&l.agg_qp, hidden));
                let agg = p.aggregate(lin, l.weight.cols(), l.adj_bits, out);
                (Layer::Gcn(dense, agg), out)
            },
        ))
    }

    /// Runs integer inference and returns dequantized logits. With
    /// telemetry on, the phases are spans under `qinfer_gcn/infer`:
    /// `quantize`, `matmul` and `aggregate` (once per layer) and
    /// `dequantize`; the counter `qinfer.byte_layers` counts the layers
    /// that ran on bytes.
    pub fn infer(&self, features: &Matrix) -> Matrix {
        self.0.infer("qinfer_gcn/infer", features)
    }

    /// Per-layer bit-widths of the frozen executor.
    pub fn bit_config(&self) -> Vec<LayerBits> {
        self.0.bit_config()
    }
}

/// Integer GraphSAGE executor: `y = clip(root + neigh − z_out)` where both
/// branches are requantized straight into the layer's output quantizer, so
/// the add is a plain integer add with one zero-point correction.
///
/// Relative to the fake-quantized training path (which adds in FP32 and
/// quantizes once), each branch rounds separately — a ≤1-LSB difference per
/// branch; prediction agreement is validated in the integration tests.
pub struct QuantizedSage(Executor);

impl QuantizedSage {
    /// Prepares integer weights, the quantized mean-aggregator adjacency
    /// and each layer's Theorem 1 parameters, and chooses once per layer
    /// whether it runs on bytes, as [`QuantizedGcn::prepare`] does: both
    /// dense products on the VNNI arm for every admissible input, the
    /// aggregation on the SIMD row kernel for every input code, and every
    /// activation clip range of at most 256 codes.
    ///
    /// # Panics
    ///
    /// If a layer's static accumulator bound reaches 2^62, a dense
    /// product's multiplier is one [`quantize_multiplier`] rejects, or a
    /// bias does not hold one value per output column (see
    /// [`QuantizedGcn::prepare`]).
    pub fn prepare(snapshot: &SageSnapshot, adj_mean: &CsrMatrix) -> Self {
        Self(Executor::prepare(
            "QuantizedSage::prepare",
            snapshot.input_qp,
            adj_mean,
            &snapshot.layers,
            |p, l, x, hidden| {
                let agg_out = (l.agg_qp, clip_range(&l.agg_qp, false));
                let agg = p.aggregate(x, l.w_root.rows(), l.adj_bits, agg_out);
                let root = p.dense(x, &l.w_root, l.w_root_qp, l.bias.as_deref(), l.out_qp);
                let neigh = p.dense(agg_out, &l.w_neigh, l.w_neigh_qp, None, l.out_qp);
                let clip = clip_range(&l.out_qp, hidden);
                let add = Add {
                    qp: l.out_qp,
                    clip,
                    bytes: fits_byte(clip),
                };
                (Layer::Sage(agg, root, neigh, add), (l.out_qp, clip))
            },
        ))
    }

    /// Runs integer inference and returns dequantized logits. With
    /// telemetry on, the phases are spans under `qinfer_sage/infer`:
    /// `quantize`, `aggregate` and `matmul` (both branches' GEMMs and their
    /// sum, once per layer) and `dequantize`; the counter
    /// `qinfer.byte_layers` counts the layers that ran on bytes.
    pub fn infer(&self, features: &Matrix) -> Matrix {
        self.0.infer("qinfer_sage/infer", features)
    }

    /// Per-layer bit-widths of the frozen executor.
    pub fn bit_config(&self) -> Vec<LayerBits> {
        self.0.bit_config()
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
