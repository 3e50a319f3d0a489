//! Integer (quantized) CSR values and the integer sparse × dense product.
//!
//! Quantized message passing (Theorem 1 of the paper) evaluates
//! `Q_a(A) · Q_x(X)` where both operands hold small integers. Values are
//! stored as `i32` regardless of the logical bit-width (2/4/8/16 bits) —
//! hardware would pack them, but the *numerical* behaviour only depends on
//! the clipping range, which the quantizer enforces.
//!
//! Every integer aggregation runs through one row kernel, [`spmm_rows`]: it
//! accumulates one output row at a time, takes the row's code sum in the
//! same loop, and hands the finished row to a caller-supplied epilogue.
//! The row accumulates in `i32` when a static bound proves that no prefix
//! of any row can overflow it, and in `i64` otherwise — exact either way.
//! [`spmm_int`] is the epilogue that widens the row to `i64`;
//! `mixq_core::quantized_spmm` is the one that applies Theorem 1's
//! correction and writes final output codes.

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
    /// Quantizes the values of `a` with `f`, keeping its sparsity structure.
    pub fn from_csr(a: &CsrMatrix, bits: u8, mut f: impl FnMut(usize, usize, f32) -> i32) -> Self {
        let mut values = Vec::with_capacity(a.nnz());
        for r in 0..a.rows() {
            for (c, v) in a.row(r) {
                values.push(f(r, c, v));
            }
        }
        let row_ptr = a.row_ptr().to_vec();
        Self {
            rows: a.rows(),
            cols: a.cols(),
            max_abs: values.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0),
            max_row_nnz: row_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0),
            row_ptr,
            col_idx: a.col_idx().to_vec(),
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
/// satisfies — the row accumulates in `i32` (twice the SIMD lanes);
/// otherwise in `i64`. Both are exact, so the dispatch is invisible
/// numerically; the telemetry counters `qcsr.spmm.i32_path` /
/// `qcsr.spmm.i64_path` record which one ran.
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
    assert_eq!(
        x.len(),
        a.cols * x_cols,
        "spmm_rows: dense operand has wrong size"
    );
    assert_eq!(
        out.len(),
        a.rows * x_cols,
        "spmm_rows: output has wrong size"
    );
    if spmm_fits_i32(a, x) {
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

/// `true` iff every intermediate of every row accumulation provably fits in
/// `i32`: each of the ≤ `max_row_nnz` terms is bounded by `max|a|·max|x|`,
/// so every prefix sum is bounded by their product (computed in `i128`, so
/// the check itself cannot overflow). This is the same a-priori analysis the
/// inference engine runs against the 2^62 `i64` limit in `qinfer.rs`, here
/// applied at the `i32` boundary.
fn spmm_fits_i32(a: &QuantCsr, x: &[i32]) -> bool {
    let xmax = x.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
    let bound = a.max_row_nnz as i128 * a.max_abs as i128 * xmax as i128;
    bound <= i32::MAX as i128
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
        assert!(spmm_fits_i32(&q, &[32767, 32767]));
        assert_eq!(spmm_int(&q, &[32767, 32767], 1), vec![2 * 32767 * 32767]);
        // 3 terms overflow i32 (3221028867 > i32::MAX) → wide path, exact.
        let q = build(3, 32767.0);
        assert!(!spmm_fits_i32(&q, &[32767, 32767, 32767]));
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
        assert!(!spmm_fits_i32(&q, &[2]));
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
