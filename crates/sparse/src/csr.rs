//! Compressed sparse row matrices over `f32`.
//!
//! The SpMM kernel partitions output rows across the scoped-thread runtime
//! in `mixq-parallel`; each thread owns a disjoint row range of `y` and the
//! per-row accumulation order is unchanged, so results are bit-identical to
//! the serial kernel at any thread count. On an x86-64 host with AVX-512 F
//! the rows run on a register-blocked arm that keeps the same order of
//! operations per element, so it is bit-identical to the portable loop
//! ([`CsrMatrix::spmm_into_portable`]) as well.

use mixq_parallel::{par_row_chunks_mut, par_row_chunks_mut_balanced};

/// One coordinate-format entry `(row, col, value)` used to build a CSR matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CooEntry {
    pub row: usize,
    pub col: usize,
    pub val: f32,
}

/// A sparse matrix in compressed sparse row format.
///
/// ```
/// use mixq_sparse::{CooEntry, CsrMatrix};
/// let a = CsrMatrix::from_coo(2, 2, vec![
///     CooEntry { row: 0, col: 1, val: 2.0 },
///     CooEntry { row: 1, col: 0, val: 1.0 },
/// ]);
/// // Y = A · X with X = [[1],[3]] (row-major, 1 column)
/// assert_eq!(a.spmm(&[1.0, 3.0], 1), vec![6.0, 1.0]);
/// ```
///
/// Invariants (checked by [`CsrMatrix::check_invariants`] and enforced by all
/// constructors):
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[rows] == col_idx.len() == values.len()`;
/// * `row_ptr` is non-decreasing;
/// * within each row, column indices are strictly increasing (no duplicates)
///   and `< cols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from COO entries. Entries may be unsorted;
    /// duplicates at the same `(row, col)` are summed.
    pub fn from_coo(rows: usize, cols: usize, mut entries: Vec<CooEntry>) -> Self {
        for e in &entries {
            assert!(e.row < rows, "row {} out of bounds ({} rows)", e.row, rows);
            assert!(e.col < cols, "col {} out of bounds ({} cols)", e.col, cols);
        }
        entries.sort_unstable_by_key(|e| (e.row, e.col));

        let mut col_idx: Vec<usize> = Vec::with_capacity(entries.len());
        let mut values: Vec<f32> = Vec::with_capacity(entries.len());
        let mut coords: Vec<(usize, usize)> = Vec::with_capacity(entries.len());
        for e in entries {
            if coords.last() == Some(&(e.row, e.col)) {
                // Merge duplicate coordinates by summing their values.
                *values.last_mut().unwrap() += e.val;
            } else {
                coords.push((e.row, e.col));
                col_idx.push(e.col);
                values.push(e.val);
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _) in &coords {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let m = Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        };
        m.check_invariants_on_build();
        m
    }

    /// Builds directly from raw CSR parts, validating the invariants: the
    /// full `O(nnz)` scan in debug builds; in release builds the `O(rows)`
    /// structural checks and one pass over the column indices (call
    /// [`CsrMatrix::check_invariants`] for an explicit full validation of
    /// untrusted data).
    ///
    /// # Panics
    ///
    /// If the parts break a structural invariant, and, in every build, if a
    /// column index is not below `cols`: the SpMM kernel reads `x` rows
    /// through raw pointers and relies on that bound.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f32>,
    ) -> Self {
        let m = Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        };
        m.check_invariants_on_build();
        m
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Panics if any CSR structural invariant is violated. `O(nnz)` — runs
    /// on every constructor call in debug builds; in release builds the
    /// constructors only do the `O(rows)` checks of
    /// [`CsrMatrix::check_invariants_cheap`] and the column bounds (the
    /// full scan made `transpose` and every `from_coo` in training loops
    /// quadratic-feeling on large graphs). Call this directly to validate
    /// untrusted data.
    pub fn check_invariants(&self) {
        self.check_invariants_cheap();
        self.check_column_bounds();
        for r in 0..self.rows {
            let cols = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "columns not strictly increasing in row {r}");
            }
        }
    }

    /// Panics unless every column index is below `cols`: one pass over
    /// `col_idx`, run by every constructor in every build, because the SIMD
    /// arm of the SpMM gathers `x` rows through raw pointers.
    fn check_column_bounds(&self) {
        let max = self.col_idx.iter().fold(0, |m, &c| m.max(c));
        assert!(
            self.col_idx.is_empty() || max < self.cols,
            "column index {max} out of bounds for {} columns",
            self.cols
        );
    }

    /// The `O(rows)` subset of the invariants: array lengths, first/last
    /// row pointers, and row-pointer monotonicity. Cheap enough to run on
    /// every constructor call even in release builds.
    pub fn check_invariants_cheap(&self) {
        assert_eq!(self.row_ptr.len(), self.rows + 1, "row_ptr length");
        assert_eq!(self.row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(
            *self.row_ptr.last().unwrap(),
            self.col_idx.len(),
            "row_ptr must end at nnz"
        );
        assert_eq!(
            self.col_idx.len(),
            self.values.len(),
            "col/val length mismatch"
        );
        for r in 0..self.rows {
            assert!(
                self.row_ptr[r] <= self.row_ptr[r + 1],
                "row_ptr not monotone"
            );
        }
    }

    /// Constructor-time validation: full scan in debug, cheap checks and
    /// the column bounds in release.
    fn check_invariants_on_build(&self) {
        if cfg!(debug_assertions) {
            self.check_invariants();
        } else {
            self.check_invariants_cheap();
            self.check_column_bounds();
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structural) non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterator over `(col, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        self.col_idx[s..e]
            .iter()
            .copied()
            .zip(self.values[s..e].iter().copied())
    }

    /// Value at `(r, c)`, or 0 if structurally zero. Binary-searches the row.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        match self.col_idx[s..e].binary_search(&c) {
            Ok(i) => self.values[s + i],
            Err(_) => 0.0,
        }
    }

    /// Transposed copy (CSR of `Aᵀ`), `O(nnz + rows + cols)`.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 1..=self.cols {
            counts[i] += counts[i - 1];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        let mut next = counts;
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let slot = next[c];
                col_idx[slot] = r;
                values[slot] = v;
                next[c] += 1;
            }
        }
        CsrMatrix::from_parts(self.cols, self.rows, row_ptr, col_idx, values)
    }

    /// In-degree of each column when the matrix is interpreted as
    /// edge `row -> col` (number of structural non-zeros per column).
    pub fn col_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.cols];
        for &c in &self.col_idx {
            d[c] += 1;
        }
        d
    }

    /// Number of structural non-zeros per row.
    pub fn row_degrees(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| self.row_ptr[r + 1] - self.row_ptr[r])
            .collect()
    }

    /// Weighted row sums `A · 1`.
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| {
                self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
                    .iter()
                    .sum()
            })
            .collect()
    }

    /// Sparse × dense product `Y = A · X`.
    ///
    /// `x` is row-major with `x_cols` columns and `self.cols()` rows; the
    /// result has `self.rows()` rows and `x_cols` columns. Panics on
    /// dimension mismatch.
    pub fn spmm(&self, x: &[f32], x_cols: usize) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.cols * x_cols,
            "spmm: dense operand has wrong size"
        );
        let mut y = vec![0f32; self.rows * x_cols];
        self.spmm_into(x, x_cols, &mut y);
        y
    }

    /// Like [`CsrMatrix::spmm`] but writes into a caller-provided buffer.
    /// Output rows are partitioned across threads at **nnz-balanced**
    /// boundaries (disjoint `y` slices, serial per-row accumulation order ⇒
    /// bit-identical to serial and to any other row partition). Power-law
    /// graphs pack most edges into a few hub rows, so equal-row chunks leave
    /// one thread doing nearly all the work; balancing on `row_ptr` keeps
    /// per-chunk nnz within one row's weight of even.
    ///
    /// On an x86-64 host with AVX-512 F the rows run on a register-blocked
    /// arm (counted by `sparse.spmm_f32.avx512_path`): each output row is
    /// built in 64-column panels of up to four `zmm` accumulators, masked to
    /// the row at its last panel, and stored once. Each element still starts
    /// at `+0.0` and adds `v · x` for the row's non-zeros in stored order,
    /// unfused, so every bit equals [`CsrMatrix::spmm_into_portable`]'s.
    pub fn spmm_into(&self, x: &[f32], x_cols: usize, y: &mut [f32]) {
        self.spmm_balanced(x, x_cols, y, avx512_arm());
    }

    /// [`CsrMatrix::spmm_into`] without its SIMD arm, on every host: the
    /// reference the arm is held to bit for bit, in the tests and in
    /// `kernel_bench`.
    pub fn spmm_into_portable(&self, x: &[f32], x_cols: usize, y: &mut [f32]) {
        self.spmm_balanced(x, x_cols, y, false);
    }

    fn spmm_balanced(&self, x: &[f32], x_cols: usize, y: &mut [f32], simd: bool) {
        assert_eq!(x.len(), self.cols * x_cols);
        assert_eq!(y.len(), self.rows * x_cols);
        let t0 = mixq_telemetry::kernel_start();
        par_row_chunks_mut_balanced(y, self.rows, x_cols, &self.row_ptr, |start, chunk| {
            self.spmm_rows(x, x_cols, start, chunk, simd);
        });
        mixq_telemetry::kernel_finish("sparse.spmm_f32", t0, (self.nnz() * x_cols) as u64);
    }

    /// [`CsrMatrix::spmm_into`] under the legacy equal-row-count schedule.
    /// Kept public for benchmarks and the partition-law property suite,
    /// which assert the balanced schedule is bit-identical (and faster on
    /// degree-skewed graphs); not intended for production call sites.
    pub fn spmm_into_row_chunked(&self, x: &[f32], x_cols: usize, y: &mut [f32]) {
        assert_eq!(x.len(), self.cols * x_cols);
        assert_eq!(y.len(), self.rows * x_cols);
        let simd = avx512_arm();
        let t0 = mixq_telemetry::kernel_start();
        par_row_chunks_mut(y, self.rows, x_cols, |start, chunk| {
            self.spmm_rows(x, x_cols, start, chunk, simd);
        });
        mixq_telemetry::kernel_finish("sparse.spmm_f32", t0, (self.nnz() * x_cols) as u64);
    }

    /// Serial SpMM body over the output rows starting at `start`, on the
    /// SIMD arm when `simd` (which only `avx512_arm` sets); shared by
    /// both schedules so their per-row accumulation order is identical by
    /// construction.
    fn spmm_rows(&self, x: &[f32], x_cols: usize, start: usize, chunk: &mut [f32], simd: bool) {
        if simd {
            // SAFETY: `simd` comes from `avx512_arm`, so the host has
            // AVX-512 F; the callers checked `x.len() == cols · x_cols`,
            // every constructor proved each column index below `cols`, and
            // `chunk` holds whole output rows from `start` on.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx512::spmm_rows(self, x, x_cols, start, chunk);
                return;
            }
        }
        for (dr, out) in chunk.chunks_mut(x_cols).enumerate() {
            let r = start + dr;
            out.fill(0.0);
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[i];
                let v = self.values[i];
                let xr = &x[c * x_cols..(c + 1) * x_cols];
                for (o, &xv) in out.iter_mut().zip(xr.iter()) {
                    *o += v * xv;
                }
            }
        }
    }

    /// Dense copy of the matrix (row-major), for tests and small examples.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut d = vec![0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                d[r * self.cols + c] = v;
            }
        }
        d
    }

    /// Returns a copy with each stored value transformed by `f(row, col, val)`.
    pub fn map_values(&self, mut f: impl FnMut(usize, usize, f32) -> f32) -> CsrMatrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                out.values[i] = f(r, self.col_idx[i], self.values[i]);
            }
        }
        out
    }
}

/// Whether the SpMM takes its SIMD arm: on an x86-64 host with AVX-512 F,
/// detected at run time. Counts each call that does.
fn avx512_arm() -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") {
        mixq_telemetry::counter_add("sparse.spmm_f32.avx512_path", 1);
        return true;
    }
    false
}

/// The AVX-512 arm of the f32 SpMM.
///
/// An output row is built in panels of 64 columns, each a run of
/// [`panel`] over up to four 16-lane accumulators held in registers for the
/// whole row: every accumulator starts at `+0.0` and adds `v · x` for each
/// non-zero in stored order ([`mul_add`]), then is stored once. That is the
/// portable loop's `*o += v * xv` per element, in the same order, unfused
/// and with the same operand order, so each lane rounds exactly as the
/// portable loop does (±0, infinities and NaN payloads included). The last
/// panel's loads and stores are masked to the row, so the kernel reads no
/// lane outside `x`'s rows and writes none outside `y`'s.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::CsrMatrix;

    /// Lanes per accumulator.
    const LANES: usize = 16;
    /// Columns per panel: four accumulators.
    const PANEL: usize = 4 * LANES;

    /// The portable row loop of `CsrMatrix::spmm_rows` on the SIMD arm:
    /// writes rows `start..` of `a · x` (`f` columns) into `chunk`.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F, `x` must hold `a.cols() · f`
    /// values, and every column index of `a` must be below `a.cols()`.
    /// `chunk` must hold whole rows of `f` values, at most up to
    /// `a.rows()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn spmm_rows(
        a: &CsrMatrix,
        x: &[f32],
        f: usize,
        start: usize,
        chunk: &mut [f32],
    ) {
        debug_assert!(x.len() == a.cols * f);
        if f == 0 {
            return;
        }
        let rows = chunk.len() / f;
        let (xp, yp) = (x.as_ptr(), chunk.as_mut_ptr());
        for dr in 0..rows {
            let r = start + dr;
            let (s, e) = (a.row_ptr[r], a.row_ptr[r + 1]);
            let (cols, vals) = (&a.col_idx[s..e], &a.values[s..e]);
            let mut b = 0;
            while b < f {
                let width = PANEL.min(f - b);
                let out = yp.add(dr * f + b);
                let xb = xp.add(b);
                match width.div_ceil(LANES) {
                    1 => panel::<1>(cols, vals, xb, f, width, out),
                    2 => panel::<2>(cols, vals, xb, f, width, out),
                    3 => panel::<3>(cols, vals, xb, f, width, out),
                    _ => panel::<4>(cols, vals, xb, f, width, out),
                }
                b += PANEL;
            }
        }
    }

    /// `v · x + acc`, rounded twice, as `vmulps t, v, x` then
    /// `vaddps acc, t, acc`: the operand order the portable loop's
    /// `*o += v * xv` compiles to (`spmm_f32_arm.rs` checks it), pinned
    /// because the compiler may swap the operands of an intrinsic, and when
    /// both operands of an x86 `add` or `mul` are NaN the result carries
    /// the first one's payload.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn mul_add(v: __m512, x: __m512, mut acc: __m512) -> __m512 {
        // SAFETY: register-only AVX-512 F arithmetic, which the caller
        // guarantees the host supports.
        std::arch::asm!(
            "vmulps {t}, {v}, {x}",
            "vaddps {acc}, {t}, {acc}",
            v = in(zmm_reg) v,
            x = in(zmm_reg) x,
            acc = inout(zmm_reg) acc,
            t = out(zmm_reg) _,
            options(pure, nomem, nostack),
        );
        acc
    }

    /// `out[j] = Σᵢ vals[i] · x[cols[i]·f + j]` for `j < width`, in `N`
    /// accumulators (`16·(N − 1) < width ≤ 16·N`).
    ///
    /// # Safety
    ///
    /// AVX-512 F; `x.add(cols[i]·f + j)` readable and `out.add(j)`
    /// writable for every `j < width`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn panel<const N: usize>(
        cols: &[usize],
        vals: &[f32],
        x: *const f32,
        f: usize,
        width: usize,
        out: *mut f32,
    ) {
        // Lane `j` of accumulator `k` is live iff `16k + j < width`.
        let masks: [__mmask16; N] = std::array::from_fn(|k| {
            let live = width.saturating_sub(k * LANES).min(LANES);
            ((1u32 << live) - 1) as __mmask16
        });
        let mut acc = [_mm512_setzero_ps(); N];
        for (&c, &v) in cols.iter().zip(vals) {
            let v = _mm512_set1_ps(v);
            let row = x.add(c * f);
            for k in 0..N {
                // SAFETY: the live lanes are `x[c·f + 16k + j]` with
                // `16k + j < width`, readable by the contract.
                let xv = _mm512_maskz_loadu_ps(masks[k], row.add(k * LANES));
                acc[k] = mul_add(v, xv, acc[k]);
            }
        }
        for k in 0..N {
            // SAFETY: the stored lanes are `out[16k + j]` with
            // `16k + j < width`, writable by the contract.
            _mm512_mask_storeu_ps(out.add(k * LANES), masks[k], acc[k]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_coo(
            3,
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
                    val: 2.0,
                },
                CooEntry {
                    row: 2,
                    col: 0,
                    val: 3.0,
                },
                CooEntry {
                    row: 2,
                    col: 1,
                    val: 4.0,
                },
            ],
        )
    }

    #[test]
    fn builds_from_unsorted_coo() {
        let m = CsrMatrix::from_coo(
            2,
            2,
            vec![
                CooEntry {
                    row: 1,
                    col: 1,
                    val: 4.0,
                },
                CooEntry {
                    row: 0,
                    col: 0,
                    val: 1.0,
                },
            ],
        );
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn sums_duplicate_coordinates() {
        let m = CsrMatrix::from_coo(
            1,
            1,
            vec![
                CooEntry {
                    row: 0,
                    col: 0,
                    val: 1.5,
                },
                CooEntry {
                    row: 0,
                    col: 0,
                    val: 2.5,
                },
            ],
        );
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn handles_empty_rows() {
        let m = sample();
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row_degrees(), vec![2, 0, 2]);
    }

    #[test]
    fn spmm_matches_dense_product() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3×2
        let y = m.spmm(&x, 2);
        // row0 = 1*[1,2] + 2*[5,6] = [11, 14]
        // row1 = [0, 0]
        // row2 = 3*[1,2] + 4*[3,4] = [15, 22]
        assert_eq!(y, vec![11.0, 14.0, 0.0, 0.0, 15.0, 22.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 2), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let id = CsrMatrix::identity(4);
        let x: Vec<f32> = (0..12).map(|i| i as f32).collect();
        assert_eq!(id.spmm(&x, 3), x);
    }

    #[test]
    fn degrees_and_sums() {
        let m = sample();
        assert_eq!(m.col_degrees(), vec![2, 1, 1]);
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_entries() {
        CsrMatrix::from_coo(
            1,
            1,
            vec![CooEntry {
                row: 0,
                col: 5,
                val: 1.0,
            }],
        );
    }

    /// A column index past `cols` must panic in `from_parts`, in release
    /// builds too, before the SpMM's SIMD arm could gather through it.
    fn spmm_with_out_of_range_column(f: usize) {
        let a = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 1 << 20], vec![1.0, 2.0]);
        a.spmm(&vec![1.0; 2 * f], f);
    }

    #[test]
    #[should_panic(expected = "column index 1048576 out of bounds")]
    fn out_of_range_column_panics_before_the_kernel_f12() {
        spmm_with_out_of_range_column(12);
    }

    #[test]
    #[should_panic(expected = "column index 1048576 out of bounds")]
    fn out_of_range_column_panics_before_the_kernel_f64() {
        spmm_with_out_of_range_column(64);
    }

    #[test]
    fn map_values_preserves_structure() {
        let m = sample().map_values(|_, _, v| v * 2.0);
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.nnz(), 4);
    }
}
