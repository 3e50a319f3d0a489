//! Integer (quantized) CSR values and the integer sparse × dense product.
//!
//! Quantized message passing (Theorem 1 of the paper) evaluates
//! `Q_a(A) · Q_x(X)` where both operands hold small integers. Adjacency
//! values are stored as `i32` whatever the logical bit-width (2/4/8/16
//! bits), and so are the activations of [`spmm_rows`]; the
//! *numerical* behaviour depends only on the clipping range, which the
//! quantizer enforces. The SIMD arm of [`spmm_rows`] narrows the codes it
//! reads to bytes (adjacency codes to `i8`, activation codes to `u8` after
//! subtracting their minimum) when they fit.
//!
//! [`spmm_rows_u8`] is the byte entry of the same kernel: it takes
//! activations already stored as `u = x − lo` in `u8`, with `lo` the low
//! end of a clip range `[lo, hi]` that the caller proves every code lies in
//! (the integer engine carries its 8-bit activations that way from layer
//! to layer). With the range known, the entry needs no range pass over the
//! codes and no packed copy of them; [`byte_arm_eligible`] says up front
//! whether the SIMD kernel takes a given adjacency and range.
//!
//! Every integer aggregation runs through one row kernel, [`spmm_rows`]: it
//! accumulates one output row at a time, takes the row's code sum in the
//! same loop, and hands the finished row to a caller-supplied epilogue.
//! It has three arms, exact alike, so the choice is invisible numerically:
//!
//! * on an x86-64 host with AVX-512 VNNI, adjacency codes within `±127`
//!   and activation codes that span at most 255, a `vpdpbusd` kernel that
//!   takes four non-zeros per instruction over `u8` activations;
//! * `i32` accumulators when a static bound proves that no prefix of any
//!   row can overflow them;
//! * `i64` accumulators otherwise.
//!
//! [`spmm_rows_portable`] runs only the last two, on every host, and is the
//! reference the SIMD arm is tested against. [`spmm_int`] is the epilogue
//! that widens the row to `i64`; `mixq_core::quantized_spmm` is the one that
//! applies Theorem 1's correction and writes final output codes.

use crate::csr::CsrMatrix;

/// A CSR matrix whose stored values are quantized integers.
///
/// The structure (row pointers / column indices) is shared semantics with
/// [`CsrMatrix`]; only the value type differs. `bits` records the logical
/// bit-width so cost models can account for it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantCsr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<i32>,
    bits: u8,
    /// Largest `|value|`, for the accumulator-width bound of [`spmm_rows`].
    max_abs: u32,
    /// Largest row non-zero count, for the same bound.
    max_row_nnz: usize,
}

impl QuantCsr {
    /// Quantizes the values of `a` with `f`, keeping its sparsity structure
    /// (whose column indices every `CsrMatrix` constructor proved below
    /// `a.cols()`, which [`spmm_rows`] relies on).
    pub fn from_csr(a: &CsrMatrix, bits: u8, mut f: impl FnMut(usize, usize, f32) -> i32) -> Self {
        let mut values = Vec::with_capacity(a.nnz());
        for r in 0..a.rows() {
            for (c, v) in a.row(r) {
                values.push(f(r, c, v));
            }
        }
        let col_idx = a.col_idx().to_vec();
        let row_ptr = a.row_ptr().to_vec();
        Self {
            rows: a.rows(),
            cols: a.cols(),
            max_abs: values.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0),
            max_row_nnz: row_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0),
            row_ptr,
            col_idx,
            values,
            bits,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    pub fn bits(&self) -> u8 {
        self.bits
    }

    pub fn values(&self) -> &[i32] {
        &self.values
    }

    /// Largest `|value|`: with [`QuantCsr::max_row_nnz`], the factor the
    /// accumulator-width bounds take from the adjacency.
    pub fn max_abs(&self) -> u32 {
        self.max_abs
    }

    /// Iterator over `(col, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, i32)> + '_ {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        self.col_idx[s..e]
            .iter()
            .copied()
            .zip(self.values[s..e].iter().copied())
    }

    /// Largest number of non-zeros in any row — the worst-case term count
    /// of one accumulator in [`spmm_rows`], used by the inference engine's
    /// a-priori saturation analysis.
    pub fn max_row_nnz(&self) -> usize {
        self.max_row_nnz
    }

    /// Integer row sums `Σ_c Q_a(A)_{r,c}` (Theorem 1's zero-point
    /// correction factor; [`spmm_rows`] takes them inside its row loop).
    pub fn row_sums_i64(&self) -> Vec<i64> {
        (0..self.rows)
            .map(|r| {
                self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
                    .iter()
                    .map(|&v| v as i64)
                    .sum()
            })
            .collect()
    }

    /// `acc = Σ_c a[r,c] · x[c,:]` over row `r`, returning the row's code
    /// sum `Σ_c a[r,c]`. The caller guarantees that no prefix of the sum
    /// overflows `A` (see [`spmm_fits_i32`]).
    #[inline]
    fn accumulate_row<A>(&self, r: usize, x: &[i32], x_cols: usize, acc: &mut [A]) -> i64
    where
        A: Copy + From<i32> + std::ops::Mul<Output = A> + std::ops::AddAssign,
    {
        acc.fill(A::from(0));
        let mut rowsum = 0i64;
        for i in self.row_ptr[r]..self.row_ptr[r + 1] {
            let c = self.col_idx[i];
            let v = self.values[i];
            rowsum += v as i64;
            let v = A::from(v);
            let xr = &x[c * x_cols..(c + 1) * x_cols];
            for (o, &xv) in acc.iter_mut().zip(xr) {
                *o += v * A::from(xv);
            }
        }
        rowsum
    }
}

/// One finished accumulator row `Σ_c a[r,c] · x[c,:]`, in the width
/// [`spmm_rows`] proved sufficient.
pub enum RowAcc<'a> {
    I32(&'a [i32]),
    I64(&'a [i64]),
}

/// The integer row kernel behind every `Q_a(A) · Q_x(X)`: for each output
/// row `r`, accumulates `Σ_c a[r,c] · x[c,:]` and the code sum
/// `Σ_c a[r,c]` in one pass, then calls `epilogue(r, acc, rowsum, out_row)`
/// to write that row of `out` (`rows × x_cols`, row-major). `x` is
/// row-major with `x_cols` columns.
///
/// When the static per-row bound `max_row_nnz × max|a| × max|x|` fits in
/// `i32` — which every prefix of every row's accumulation then also
/// satisfies — the row accumulates in `i32`; otherwise in `i64` (see
/// [`spmm_rows_portable`]). On an x86-64 host with AVX-512 VNNI, when
/// additionally every `|a| ≤ 127` and `max(x) − min(x) ≤ 255`, the `i32`
/// row comes from a `vpdpbusd` kernel over `u = x − min(x)` packed as `u8`
/// instead: `Σ a·x = Σ a·u + min(x)·Σ a`, evaluated mod 2³², is the true
/// sum, because the bound proves that the true sum fits `i32`. Every arm is
/// exact, so the dispatch is invisible numerically; the telemetry counters
/// `qcsr.spmm.vnni_path` / `qcsr.spmm.i32_path` / `qcsr.spmm.i64_path`
/// record which one ran.
///
/// Output rows are partitioned across the `mixq-parallel` runtime at
/// nnz-balanced boundaries and each row is computed by one call in serial
/// order, so the result is bit-identical at any thread count as long as
/// `epilogue` depends only on its arguments.
pub fn spmm_rows<T: Send + Copy + Default>(
    a: &QuantCsr,
    x: &[i32],
    x_cols: usize,
    out: &mut [T],
    epilogue: impl Fn(usize, RowAcc<'_>, i64, &mut [T]) + Sync,
) {
    check_shapes(a, x.len(), x_cols, out);
    let range = code_range(x);
    #[cfg(target_arch = "x86_64")]
    if vnni::eligible(a, range) {
        mixq_telemetry::counter_add("qcsr.spmm.vnni_path", 1);
        let mut buf = vec![0u8; x.len() + vnni::ALIGN - 1];
        let off = buf.as_ptr().addr().wrapping_neg() % vnni::ALIGN;
        let u = &mut buf[off..off + x.len()];
        mixq_parallel::par_map_slice(x, u, |v| v.wrapping_sub(range.0) as u8);
        vnni::spmm_rows(a, u, range.0, x_cols, out, epilogue);
        return;
    }
    portable_rows(a, x, x_cols, out, epilogue, range);
}

/// [`spmm_rows`] over activations stored as bytes: `u[i]` holds the code
/// `x[i] = u[i] + range.0` (row-major, `x_cols` columns), and the caller
/// guarantees that every code lies in `range`, so `u[i] ≤ range.1 −
/// range.0`. The range stands in for [`spmm_rows`]' pass over the codes:
/// the accumulator bound is proved from it. Where [`byte_arm_eligible`]
/// holds, the bytes go straight to the SIMD kernel (a 64-byte aligned `u`
/// puts each 64-column block of a row in one cache line); elsewhere they
/// are widened to `i32` codes for the portable arms. Every arm is exact, so
/// the result equals [`spmm_rows`] on the codes.
pub fn spmm_rows_u8<T: Send + Copy + Default>(
    a: &QuantCsr,
    u: &[u8],
    range: (i32, i32),
    x_cols: usize,
    out: &mut [T],
    epilogue: impl Fn(usize, RowAcc<'_>, i64, &mut [T]) + Sync,
) {
    check_shapes(a, u.len(), x_cols, out);
    #[cfg(target_arch = "x86_64")]
    if vnni::eligible(a, range) {
        mixq_telemetry::counter_add("qcsr.spmm.vnni_path", 1);
        vnni::spmm_rows(a, u, range.0, x_cols, out, epilogue);
        return;
    }
    let x: Vec<i32> = u.iter().map(|&b| b as i32 + range.0).collect();
    portable_rows(a, &x, x_cols, out, epilogue, code_range(&x));
}

/// Whether [`spmm_rows_u8`] runs its SIMD kernel for adjacency `a` and
/// activation codes in `range`: an x86-64 host with AVX-512 VNNI and BW,
/// every `|a| ≤ 127`, a range of at most 256 codes and the `i32` bound of
/// [`spmm_rows`] proved over the whole range.
pub fn byte_arm_eligible(a: &QuantCsr, range: (i32, i32)) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        vnni::eligible(a, range)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, range);
        false
    }
}

/// [`spmm_rows`] without its SIMD arm: `i32` accumulators when the static
/// bound allows, `i64` otherwise, on every host. The reference the SIMD arm
/// is held to bit for bit, in the tests and in `kernel_bench`.
pub fn spmm_rows_portable<T: Send + Copy + Default>(
    a: &QuantCsr,
    x: &[i32],
    x_cols: usize,
    out: &mut [T],
    epilogue: impl Fn(usize, RowAcc<'_>, i64, &mut [T]) + Sync,
) {
    check_shapes(a, x.len(), x_cols, out);
    portable_rows(a, x, x_cols, out, epilogue, code_range(x));
}

fn check_shapes<T>(a: &QuantCsr, x_len: usize, x_cols: usize, out: &[T]) {
    assert_eq!(
        x_len,
        a.cols * x_cols,
        "spmm_rows: dense operand has wrong size"
    );
    assert_eq!(
        out.len(),
        a.rows * x_cols,
        "spmm_rows: output has wrong size"
    );
}

fn portable_rows<T: Send + Copy + Default>(
    a: &QuantCsr,
    x: &[i32],
    x_cols: usize,
    out: &mut [T],
    epilogue: impl Fn(usize, RowAcc<'_>, i64, &mut [T]) + Sync,
    range: (i32, i32),
) {
    if spmm_fits_i32(a, range) {
        mixq_telemetry::counter_add("qcsr.spmm.i32_path", 1);
        mixq_parallel::par_row_chunks_mut_balanced(
            out,
            a.rows,
            x_cols,
            &a.row_ptr,
            |start, chunk| {
                let mut acc = vec![0i32; x_cols];
                for (dr, orow) in chunk.chunks_mut(x_cols).enumerate() {
                    let rowsum = a.accumulate_row(start + dr, x, x_cols, &mut acc);
                    epilogue(start + dr, RowAcc::I32(&acc), rowsum, orow);
                }
            },
        );
    } else {
        mixq_telemetry::counter_add("qcsr.spmm.i64_path", 1);
        mixq_parallel::par_row_chunks_mut_balanced(
            out,
            a.rows,
            x_cols,
            &a.row_ptr,
            |start, chunk| {
                let mut acc = vec![0i64; x_cols];
                for (dr, orow) in chunk.chunks_mut(x_cols).enumerate() {
                    let rowsum = a.accumulate_row(start + dr, x, x_cols, &mut acc);
                    epilogue(start + dr, RowAcc::I64(&acc), rowsum, orow);
                }
            },
        );
    }
}

/// Integer sparse × dense product `Y = Q_a(A) · Q_x(X)` in `i64`: the
/// [`spmm_rows`] kernel with an epilogue that widens each row.
pub fn spmm_int(a: &QuantCsr, x: &[i32], x_cols: usize) -> Vec<i64> {
    let t0 = mixq_telemetry::kernel_start();
    let mut y = vec![0i64; a.rows * x_cols];
    spmm_rows(a, x, x_cols, &mut y, |_, acc, _, out| match acc {
        RowAcc::I32(acc) => {
            for (o, &v) in out.iter_mut().zip(acc) {
                *o = v as i64;
            }
        }
        RowAcc::I64(acc) => out.copy_from_slice(acc),
    });
    mixq_telemetry::kernel_finish("sparse.spmm_int", t0, (a.nnz() * x_cols) as u64);
    y
}

/// `(min(x), max(x))`, `(0, 0)` for an empty `x`: one pass, which decides
/// both the accumulator width and the SIMD arm's eligibility.
fn code_range(x: &[i32]) -> (i32, i32) {
    if x.is_empty() {
        return (0, 0);
    }
    x.iter()
        .fold((i32::MAX, i32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// `true` iff every intermediate of every row accumulation provably fits in
/// `i32`: each of the ≤ `max_row_nnz` terms is bounded by `max|a|·max|x|`,
/// so every prefix sum is bounded by their product (computed in `i128`, so
/// the check itself cannot overflow). `range` is `x`'s [`code_range`]. This
/// is the same a-priori analysis the inference engine runs against the
/// 2^62 `i64` limit in `qinfer.rs`, here applied at the `i32` boundary.
fn spmm_fits_i32(a: &QuantCsr, (lo, hi): (i32, i32)) -> bool {
    let xmax = lo.unsigned_abs().max(hi.unsigned_abs());
    let bound = a.max_row_nnz as i128 * a.max_abs as i128 * xmax as i128;
    bound <= i32::MAX as i128
}

/// The AVX-512 VNNI arm of [`spmm_rows`] and [`spmm_rows_u8`].
///
/// The activations arrive as `u = x − lo` in `u8` (a quarter of the bytes
/// the portable arms gather): [`spmm_rows`] packs them once per call with
/// `lo = min(x)`, [`spmm_rows_u8`] takes the caller's bytes. A row takes its
/// non-zeros in groups of four: the four neighbours' `u` rows are
/// interleaved into byte quads
/// `[u₀[j], u₁[j], u₂[j], u₃[j]]`, and one `vpdpbusd` against the four
/// codes, narrowed to `i8` and broadcast, adds `Σₖ aₖ·uₖ[j]` to column
/// `j`'s `i32` lane. A short last group is padded with zero codes. Each
/// lane starts at `lo·Σ a`, so it ends at `Σ a·x` mod 2³² — `vpdpbusd`
/// wraps, it does not saturate — which is the exact sum whenever
/// [`spmm_fits_i32`] holds.
///
/// Columns go in blocks of 64: two unpack rounds and four `vpdpbusd` per
/// group, then a 4×4 transpose of 128-bit blocks at the row end. The last
/// block of a row may be partial: its loads and stores are masked to the
/// row, so the kernel touches no byte outside the neighbours' rows.
#[cfg(target_arch = "x86_64")]
mod vnni {
    use std::arch::x86_64::*;

    use super::{spmm_fits_i32, QuantCsr, RowAcc};

    /// Alignment of the packed activations in bytes: with `f` a multiple of
    /// 64, each 64-column block of a row is then one cache line.
    pub(super) const ALIGN: usize = 64;

    /// Whether this host and these inputs can take the arm: AVX-512
    /// VNNI/BW, every `|a| ≤ 127`, activation codes in `range` spanning at
    /// most 255, and the `i32` bound over `range`.
    pub(super) fn eligible(a: &QuantCsr, range: (i32, i32)) -> bool {
        a.max_abs <= i8::MAX as u32
            && range.1 as i64 - range.0 as i64 <= u8::MAX as i64
            && spmm_fits_i32(a, range)
            && is_x86_feature_detected!("avx512vnni")
            && is_x86_feature_detected!("avx512bw")
    }

    /// The row loop over the VNNI row kernel, for inputs that are
    /// [`eligible`]: `u` holds the codes `x − lo`, `a.cols × x_cols` of them
    /// (the callers' `check_shapes`).
    pub(super) fn spmm_rows<T: Send + Copy + Default>(
        a: &QuantCsr,
        u: &[u8],
        lo: i32,
        x_cols: usize,
        out: &mut [T],
        epilogue: impl Fn(usize, RowAcc<'_>, i64, &mut [T]) + Sync,
    ) {
        mixq_parallel::par_row_chunks_mut_balanced(
            out,
            a.rows,
            x_cols,
            &a.row_ptr,
            |start, chunk| {
                let mut acc = vec![0i32; x_cols];
                for (dr, orow) in chunk.chunks_mut(x_cols).enumerate() {
                    let r = start + dr;
                    let (s, e) = (a.row_ptr[r], a.row_ptr[r + 1]);
                    let codes = &a.values[s..e];
                    let rowsum: i64 = codes.iter().map(|&v| v as i64).sum();
                    let init = (rowsum as i32).wrapping_mul(lo);
                    // SAFETY: `eligible` detected every feature the kernel
                    // enables; `u` holds `a.cols × x_cols` codes
                    // (`check_shapes`), the `CsrMatrix` it was built from
                    // proved every column index below `a.cols`, and `acc`
                    // holds `x_cols` lanes.
                    unsafe { accumulate_row(&a.col_idx[s..e], codes, u, x_cols, init, &mut acc) };
                    epilogue(r, RowAcc::I32(&acc), rowsum, orow);
                }
            },
        );
    }

    /// The group of four non-zeros at `i` of a row: column indices and the
    /// codes as one little-endian dword (byte `k` pairs with neighbour `k`'s
    /// byte). A short last group repeats its first neighbour under zero
    /// codes.
    #[inline(always)]
    fn group(cols: &[usize], codes: &[i32], i: usize) -> ([usize; 4], i32) {
        if let (Some(c), Some(w)) = (cols.get(i..i + 4), codes.get(i..i + 4)) {
            let w = [w[0], w[1], w[2], w[3]].map(|v| v as u8);
            return ([c[0], c[1], c[2], c[3]], i32::from_le_bytes(w));
        }
        let (mut c, mut w) = ([cols[i]; 4], [0u8; 4]);
        for k in 0..cols.len() - i {
            c[k] = cols[i + k];
            w[k] = codes[i + k] as u8;
        }
        (c, i32::from_le_bytes(w))
    }

    /// Writes `init + Σᵢ codes[i]·u[cols[i]·f + j]` (mod 2³²) to `acc[j]`
    /// for `j < f`.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F, BW and VNNI. Every
    /// `cols[i]·f + f` must be at most `u.len()`, `codes` must be as long
    /// as `cols`, and `acc` must hold at least `f` lanes.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn accumulate_row(
        cols: &[usize],
        codes: &[i32],
        u: &[u8],
        f: usize,
        init: i32,
        acc: &mut [i32],
    ) {
        debug_assert!(codes.len() == cols.len() && acc.len() >= f);
        let base = u.as_ptr();
        let out = acc.as_mut_ptr();
        let mut b = 0;
        while b < f {
            // Bit `j` set iff column `b + j` is in the row: the masked loads
            // and stores below touch no byte or lane past it.
            let m = u64::MAX >> 64usize.saturating_sub(f - b);
            // SAFETY: the loaded bytes are `cols[k]·f + b + j` for `b + j <
            // f`, in bounds by the contract.
            let load = |c: usize| _mm512_maskz_loadu_epi8(m, base.add(c * f + b).cast());
            let mut q = [_mm512_set1_epi32(init); 4];
            let mut i = 0;
            while i < cols.len() {
                let (c, w) = group(cols, codes, i);
                let (r0, r1, r2, r3) = (load(c[0]), load(c[1]), load(c[2]), load(c[3]));
                // Within each 128-bit lane `L`: `q[k]` gets the quads of
                // columns `16L + 4k .. 16L + 4k + 4`.
                let (l01, h01) = (_mm512_unpacklo_epi8(r0, r1), _mm512_unpackhi_epi8(r0, r1));
                let (l23, h23) = (_mm512_unpacklo_epi8(r2, r3), _mm512_unpackhi_epi8(r2, r3));
                let w = _mm512_set1_epi32(w);
                q[0] = _mm512_dpbusd_epi32(q[0], _mm512_unpacklo_epi16(l01, l23), w);
                q[1] = _mm512_dpbusd_epi32(q[1], _mm512_unpackhi_epi16(l01, l23), w);
                q[2] = _mm512_dpbusd_epi32(q[2], _mm512_unpacklo_epi16(h01, h23), w);
                q[3] = _mm512_dpbusd_epi32(q[3], _mm512_unpackhi_epi16(h01, h23), w);
                i += 4;
            }
            // Columns `16L .. 16L + 16` are lane `L` of q[0], q[1], q[2],
            // q[3]: a 4×4 transpose of 128-bit blocks.
            let t0 = _mm512_shuffle_i32x4::<0x44>(q[0], q[1]);
            let t1 = _mm512_shuffle_i32x4::<0x44>(q[2], q[3]);
            let t2 = _mm512_shuffle_i32x4::<0xEE>(q[0], q[1]);
            let t3 = _mm512_shuffle_i32x4::<0xEE>(q[2], q[3]);
            // SAFETY: the stored lanes are `b + j` for `b + j < f ≤ acc.len()`.
            let o = out.add(b);
            _mm512_mask_storeu_epi32(o, m as u16, _mm512_shuffle_i32x4::<0x88>(t0, t1));
            _mm512_mask_storeu_epi32(
                o.add(16),
                (m >> 16) as u16,
                _mm512_shuffle_i32x4::<0xDD>(t0, t1),
            );
            _mm512_mask_storeu_epi32(
                o.add(32),
                (m >> 32) as u16,
                _mm512_shuffle_i32x4::<0x88>(t2, t3),
            );
            _mm512_mask_storeu_epi32(
                o.add(48),
                (m >> 48) as u16,
                _mm512_shuffle_i32x4::<0xDD>(t2, t3),
            );
            b += 64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooEntry;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_coo(
            2,
            3,
            vec![
                CooEntry {
                    row: 0,
                    col: 0,
                    val: 1.0,
                },
                CooEntry {
                    row: 0,
                    col: 2,
                    val: -2.0,
                },
                CooEntry {
                    row: 1,
                    col: 1,
                    val: 3.0,
                },
            ],
        )
    }

    #[test]
    fn quantizes_with_structure_preserved() {
        let q = QuantCsr::from_csr(&sample(), 8, |_, _, v| v as i32);
        assert_eq!(q.nnz(), 3);
        assert_eq!(q.bits(), 8);
        let row0: Vec<_> = q.row(0).collect();
        assert_eq!(row0, vec![(0, 1), (2, -2)]);
    }

    #[test]
    fn integer_spmm_matches_manual() {
        let q = QuantCsr::from_csr(&sample(), 8, |_, _, v| v as i32);
        // X (3×2) integer
        let x = vec![1, 2, 3, 4, 5, 6];
        let y = spmm_int(&q, &x, 2);
        // row0 = 1*[1,2] + (-2)*[5,6] = [-9, -10]; row1 = 3*[3,4] = [9,12]
        assert_eq!(y, vec![-9, -10, 9, 12]);
    }

    #[test]
    fn row_sums_match() {
        let q = QuantCsr::from_csr(&sample(), 4, |_, _, v| v as i32);
        assert_eq!(q.row_sums_i64(), vec![-1, 3]);
        assert_eq!(q.max_row_nnz(), 2);
    }

    /// A column index past `cols` must panic before any row kernel reads the
    /// activations, whichever arm the inputs would take (here 8-bit codes
    /// at a width of 64, which the SIMD arm accepts): `CsrMatrix::from_parts`
    /// catches it, in every build.
    #[test]
    #[should_panic(expected = "column index")]
    fn out_of_range_column_panics_before_the_kernel() {
        let a = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 1 << 20], vec![1.0, 2.0]);
        let q = QuantCsr::from_csr(&a, 8, |_, _, v| v as i32);
        spmm_int(&q, &[1; 2 * 64], 64);
    }

    #[test]
    fn i32_fast_path_boundary_is_exact() {
        // One row of `nnz` entries, all equal to `v`, against an all-`xv`
        // dense operand: the static bound is exactly nnz·|v|·|xv|. Probe the
        // i32 ceiling from both sides; results must be exact either way.
        let build = |nnz: usize, v: f32| {
            let entries: Vec<CooEntry> = (0..nnz)
                .map(|c| CooEntry {
                    row: 0,
                    col: c,
                    val: v,
                })
                .collect();
            let a = CsrMatrix::from_coo(1, nnz, entries);
            QuantCsr::from_csr(&a, 16, |_, _, v| v as i32)
        };
        // 2 · 32767 · 32767 = 2147352578 ≤ i32::MAX → narrow path.
        let q = build(2, 32767.0);
        assert!(spmm_fits_i32(&q, code_range(&[32767, 32767])));
        assert_eq!(spmm_int(&q, &[32767, 32767], 1), vec![2 * 32767 * 32767]);
        // 3 terms overflow i32 (3221028867 > i32::MAX) → wide path, exact.
        let q = build(3, 32767.0);
        assert!(!spmm_fits_i32(&q, code_range(&[32767, 32767, 32767])));
        assert_eq!(
            spmm_int(&q, &[32767, 32767, 32767], 1),
            vec![3 * 32767 * 32767]
        );
        // Negative extremes count by magnitude: i32::MIN valued entries must
        // not trick the |·| analysis into the narrow path.
        let entries = vec![CooEntry {
            row: 0,
            col: 0,
            val: 0.0,
        }];
        let a = CsrMatrix::from_coo(1, 1, entries);
        let q = QuantCsr::from_csr(&a, 32, |_, _, _| i32::MIN);
        assert!(!spmm_fits_i32(&q, code_range(&[2])));
        assert_eq!(spmm_int(&q, &[2], 1), vec![2 * i32::MIN as i64]);
    }

    #[test]
    fn accumulates_without_overflow_in_i64() {
        // 1000 entries of 127 * 127 stays exact in i64.
        let entries: Vec<CooEntry> = (0..1000)
            .map(|c| CooEntry {
                row: 0,
                col: c,
                val: 127.0,
            })
            .collect();
        let a = CsrMatrix::from_coo(1, 1000, entries);
        let q = QuantCsr::from_csr(&a, 8, |_, _, v| v as i32);
        let x = vec![127i32; 1000];
        let y = spmm_int(&q, &x, 1);
        assert_eq!(y[0], 1000 * 127 * 127);
    }
}
