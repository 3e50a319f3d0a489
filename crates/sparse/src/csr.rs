//! Compressed sparse row matrices over `f32`.
//!
//! The SpMM kernel partitions output rows across the scoped-thread runtime
//! in `mixq-parallel`; each thread owns a disjoint row range of `y` and the
//! per-row accumulation order is unchanged, so results are bit-identical to
//! the serial kernel at any thread count.

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

    /// Builds directly from raw CSR parts, validating all invariants (the
    /// full `O(nnz)` scan in debug builds, the `O(rows)` structural checks
    /// in release — call [`CsrMatrix::check_invariants`] for an explicit
    /// full validation of untrusted data).
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
    /// [`CsrMatrix::check_invariants_cheap`] (the full scan made `transpose`
    /// and every `from_coo` in training loops quadratic-feeling on large
    /// graphs). Call this directly to validate untrusted data.
    pub fn check_invariants(&self) {
        self.check_invariants_cheap();
        for r in 0..self.rows {
            let cols = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "columns not strictly increasing in row {r}");
            }
            if let Some(&c) = cols.last() {
                assert!(c < self.cols, "column index out of bounds");
            }
        }
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

    /// Constructor-time validation: full scan in debug, cheap checks in
    /// release.
    fn check_invariants_on_build(&self) {
        if cfg!(debug_assertions) {
            self.check_invariants();
        } else {
            self.check_invariants_cheap();
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
    pub fn spmm_into(&self, x: &[f32], x_cols: usize, y: &mut [f32]) {
        assert_eq!(x.len(), self.cols * x_cols);
        assert_eq!(y.len(), self.rows * x_cols);
        let t0 = mixq_telemetry::kernel_start();
        par_row_chunks_mut_balanced(y, self.rows, x_cols, &self.row_ptr, |start, chunk| {
            self.spmm_rows(x, x_cols, start, chunk);
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
        let t0 = mixq_telemetry::kernel_start();
        par_row_chunks_mut(y, self.rows, x_cols, |start, chunk| {
            self.spmm_rows(x, x_cols, start, chunk);
        });
        mixq_telemetry::kernel_finish("sparse.spmm_f32", t0, (self.nnz() * x_cols) as u64);
    }

    /// Serial SpMM body over the output rows starting at `start`; shared by
    /// both schedules so their per-row accumulation order is identical by
    /// construction.
    fn spmm_rows(&self, x: &[f32], x_cols: usize, start: usize, chunk: &mut [f32]) {
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

    #[test]
    fn map_values_preserves_structure() {
        let m = sample().map_values(|_, _, v| v * 2.0);
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.nnz(), 4);
    }
}
