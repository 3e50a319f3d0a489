//! Dense row-major `f32` matrices and the BLAS-free kernels used by the
//! autograd engine.
//!
//! The matmul kernels partition their *output* rows across the scoped-thread
//! runtime in `mixq-parallel`: each thread writes a disjoint row range and
//! the per-element accumulation order equals the serial loop, so results are
//! bit-identical at any thread count (`MIXQ_THREADS` /
//! [`mixq_parallel::set_num_threads`]). Small outputs stay on the serial
//! path.

use crate::pool;
use mixq_parallel::{par_map_slice, par_row_chunks_mut, par_zip_slice};

/// Output-tile height of the register-tiled GEMM micro-kernels: each tile
/// keeps `TILE_M × TILE_N` accumulators in registers across the whole
/// k-reduction, so every loaded `B` vector is reused `TILE_M` times (the
/// naive kernel reloads all of `B` once per output row).
const TILE_M: usize = 4;
/// Output-tile width, chosen at compile time from the target's SIMD width:
/// the per-`k` overhead of a tile row (zero test + broadcast of one `A`
/// element) is amortized over `TILE_N` lanes, so the tile must widen with
/// the vector unit or the naive axpy kernel — whose inner loop is one long
/// contiguous stream — wins on wide targets. `TILE_M × TILE_N` accumulators
/// must also still fit the architectural register file (8 × 512-bit on
/// AVX-512, 8 × 256-bit on AVX2, 8 × 128-bit baseline). Tile width changes
/// never change results: each output element's k-reduction stays in full
/// serial order regardless of how many elements are carried per pass.
const TILE_N: usize = if cfg!(target_feature = "avx512f") {
    64
} else if cfg!(target_feature = "avx") {
    16
} else {
    8
};
/// Lane width of the narrow register tile that covers the columns after
/// the last full `TILE_N` block (one AVX-512 vector; `TILE_N` itself on
/// narrower targets). Those columns are packed once per call into
/// zero-padded rows of this width, so a classifier output of 7 or 12
/// columns still runs `TILE_M` rows of full vectors across the reduction.
const TILE_NARROW: usize = if TILE_N < 16 { TILE_N } else { 16 };
/// Shapes below this many multiply-accumulates dispatch to the unblocked
/// kernels: tiling overhead (remainder handling, accumulator spills) only
/// pays off once the operands outgrow L1.
const TILE_MIN_MACS: usize = 1 << 13;
/// Square block edge for the cache-blocked transpose: a 32×32 f32 tile is
/// 4 KiB on each side of the copy, so both the strided reads and the
/// contiguous writes stay within L1 while a tile is live.
const TRANSPOSE_BLOCK: usize = 32;

/// A dense row-major matrix of `f32`.
///
/// This is the only dense tensor type in the workspace: GNN training state
/// is naturally 2-D (nodes × features, features × features), and scalars are
/// represented as `1×1` matrices.
///
/// ```
/// use mixq_tensor::Matrix;
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
/// assert_eq!(a.matmul(&b).data(), &[2.0, 1.0, 4.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Like [`Matrix::zeros`] but draws the backing buffer from the
    /// thread-local [`pool`]; bit-identical semantics (the buffer is
    /// zero-filled). Hot-path temporaries that are later [`recycled`]
    /// (`Matrix::recycle`) should use this so steady-state epochs reuse
    /// warm memory instead of allocating.
    ///
    /// [`recycled`]: Matrix::recycle
    pub fn zeros_pooled(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: pool::take_zeroed(rows * cols),
        }
    }

    /// A pooled matrix with unspecified (but initialized) contents, for
    /// kernels that overwrite every element before reading any.
    pub(crate) fn scratch_pooled(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: pool::take_scratch(rows * cols),
        }
    }

    /// A pooled copy of `self` (same data, buffer drawn from the pool).
    pub fn clone_pooled(&self) -> Self {
        let mut data = pool::take_scratch(self.data.len());
        data.copy_from_slice(&self.data);
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns this matrix's buffer to the thread-local [`pool`] for reuse.
    /// Dropping instead is always correct — recycling is an optimization,
    /// not an obligation.
    pub fn recycle(self) {
        pool::give(self.data);
    }

    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    pub fn filled(rows: usize, cols: usize, v: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// A `1×1` matrix holding a single scalar.
    pub fn scalar(v: f32) -> Self {
        Self {
            rows: 1,
            cols: 1,
            data: vec![v],
        }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn numel(&self) -> usize {
        self.data.len()
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// The value of a `1×1` matrix.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a 1×1 matrix");
        self.data[0]
    }

    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `C = A · B`.
    ///
    /// Large shapes run the register-tiled micro-kernel (output tiles of 4
    /// rows × one SIMD-width block of columns, with unrolled accumulators
    /// kept in registers across the whole k-loop, and a 16-lane tile for the
    /// columns left over); small shapes dispatch to the unblocked ikj
    /// kernel, as do products whose leftover columns of `B` hold inf or
    /// NaN. Both keep each output element's k-reduction in full serial
    /// order — and replicate the `a == 0` skip — so the result is
    /// **bit-identical** across kernels and across thread counts (output
    /// rows are partitioned into disjoint chunks either way).
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "matmul: inner dimensions differ");
        let t0 = mixq_telemetry::kernel_start();
        let c = self.matmul_dispatch::<true>(b);
        let macs = (self.rows * self.cols * b.cols) as u64;
        mixq_telemetry::kernel_finish("tensor.matmul", t0, macs);
        c
    }

    /// `A · B` on the tiled or unblocked kernel by shape. `SKIP_ZEROS`
    /// selects whether a zero `a` skips its products: the skip is invisible
    /// for finite `B` (the accumulator starts at `+0.0`, so adding a `±0`
    /// product never changes it) but drops `0 · ±inf = NaN` terms, so the
    /// serial-k dot-product form ([`Matrix::matmul_a_bt`]) compiles it out.
    fn matmul_dispatch<const SKIP_ZEROS: bool>(&self, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros_pooled(self.rows, b.cols);
        let tiled = self.rows * self.cols * b.cols >= TILE_MIN_MACS;
        let narrow = NarrowPanels::pack(b, tiled, SKIP_ZEROS);
        par_row_chunks_mut(
            &mut c.data,
            self.rows,
            b.cols,
            |start, chunk| match &narrow {
                Some(narrow) => self.matmul_chunk_tiled::<SKIP_ZEROS>(b, narrow, start, chunk),
                None => self.matmul_chunk::<SKIP_ZEROS>(b, start, chunk),
            },
        );
        NarrowPanels::give(narrow);
        c
    }

    /// [`Matrix::matmul`] forced through the unblocked ikj kernel (the
    /// inner loop is contiguous over both `B` and `C` so it
    /// auto-vectorizes). Public so benchmarks and the tiled-vs-naive
    /// bit-identity fuzz suite can compare kernels; production code should
    /// call [`Matrix::matmul`], which dispatches by shape.
    pub fn matmul_unblocked(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "matmul: inner dimensions differ");
        let t0 = mixq_telemetry::kernel_start();
        let mut c = Matrix::zeros_pooled(self.rows, b.cols);
        par_row_chunks_mut(&mut c.data, self.rows, b.cols, |start, chunk| {
            self.matmul_chunk::<true>(b, start, chunk);
        });
        let macs = (self.rows * self.cols * b.cols) as u64;
        mixq_telemetry::kernel_finish("tensor.matmul", t0, macs);
        c
    }

    /// Unblocked ikj kernel over one chunk of output rows.
    fn matmul_chunk<const SKIP_ZEROS: bool>(&self, b: &Matrix, start: usize, chunk: &mut [f32]) {
        for (di, crow) in chunk.chunks_mut(b.cols).enumerate() {
            let i = start + di;
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if SKIP_ZEROS && a == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.cols..(k + 1) * b.cols];
                for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv += a * bv;
                }
            }
        }
    }

    /// Register-tiled kernel over one chunk of output rows: `TILE_M` rows ×
    /// `TILE_N` columns of `C` accumulate in a register tile while `k` runs
    /// its full serial range, so each `B` vector load feeds `TILE_M` rows.
    /// The columns after the last full `TILE_N` block run the same tile
    /// `TILE_NARROW` lanes wide over `B`'s packed panels; leftover rows fall
    /// back to the unblocked loop. Every path applies the same per-element
    /// accumulation order, so the whole kernel is bit-identical to
    /// [`Matrix::matmul_chunk`].
    fn matmul_chunk_tiled<const SKIP_ZEROS: bool>(
        &self,
        b: &Matrix,
        narrow: &NarrowPanels,
        start: usize,
        chunk: &mut [f32],
    ) {
        let n = b.cols;
        let kdim = self.cols;
        let rows = chunk.len() / n;
        let full_rows = rows - rows % TILE_M;
        for i0 in (0..full_rows).step_by(TILE_M) {
            let arows: [&[f32]; TILE_M] = std::array::from_fn(|ii| {
                let g = start + i0 + ii;
                &self.data[g * kdim..(g + 1) * kdim]
            });
            let mut j = 0;
            while j + TILE_N <= n {
                let mut acc = [[0f32; TILE_N]; TILE_M];
                for k in 0..kdim {
                    let bk = &b.data[k * n + j..k * n + j + TILE_N];
                    for (accr, arow) in acc.iter_mut().zip(&arows) {
                        let a = arow[k];
                        if SKIP_ZEROS && a == 0.0 {
                            continue;
                        }
                        for (av, &bv) in accr.iter_mut().zip(bk) {
                            *av += a * bv;
                        }
                    }
                }
                for (ii, accr) in acc.iter().enumerate() {
                    let o = (i0 + ii) * n + j;
                    chunk[o..o + TILE_N].copy_from_slice(accr);
                }
                j += TILE_N;
            }
            narrow.run(kdim, |k, ii| arows[ii][k], chunk, n, i0);
        }
        if full_rows < rows {
            self.matmul_chunk::<SKIP_ZEROS>(b, start + full_rows, &mut chunk[full_rows * n..]);
        }
    }

    /// `C = Aᵀ · B` without materializing the transpose. Output rows (the
    /// `k` index over `A`'s columns) are partitioned across threads; within
    /// each output element the reduction over `i` runs in serial order (with
    /// the `a == 0` skip), so the result is bit-identical to the
    /// single-threaded unblocked kernel. Large shapes run the register-tiled
    /// micro-kernel, small shapes (and inf or NaN in `B`'s columns after
    /// the last full tile) the unblocked loop.
    pub fn matmul_at_b(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.rows, b.rows, "matmul_at_b: row counts differ");
        let t0 = mixq_telemetry::kernel_start();
        let mut c = Matrix::zeros_pooled(self.cols, b.cols);
        let macs = self.rows * self.cols * b.cols;
        let narrow = NarrowPanels::pack(b, macs >= TILE_MIN_MACS, true);
        par_row_chunks_mut(
            &mut c.data,
            self.cols,
            b.cols,
            |start, chunk| match &narrow {
                Some(narrow) => self.matmul_at_b_chunk_tiled(b, narrow, start, chunk),
                None => self.matmul_at_b_chunk(b, start, chunk),
            },
        );
        NarrowPanels::give(narrow);
        mixq_telemetry::kernel_finish("tensor.matmul_at_b", t0, macs as u64);
        c
    }

    /// [`Matrix::matmul_at_b`] forced through the unblocked kernel, for
    /// benchmarks and bit-identity suites.
    pub fn matmul_at_b_unblocked(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.rows, b.rows, "matmul_at_b: row counts differ");
        let t0 = mixq_telemetry::kernel_start();
        let mut c = Matrix::zeros_pooled(self.cols, b.cols);
        par_row_chunks_mut(&mut c.data, self.cols, b.cols, |start, chunk| {
            self.matmul_at_b_chunk(b, start, chunk);
        });
        let macs = (self.rows * self.cols * b.cols) as u64;
        mixq_telemetry::kernel_finish("tensor.matmul_at_b", t0, macs);
        c
    }

    /// Unblocked `AᵀB` kernel over one chunk of output rows.
    fn matmul_at_b_chunk(&self, b: &Matrix, start: usize, chunk: &mut [f32]) {
        let k_hi = start + chunk.len() / b.cols;
        for i in 0..self.rows {
            let brow = &b.data[i * b.cols..(i + 1) * b.cols];
            for k in start..k_hi {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let crow = &mut chunk[(k - start) * b.cols..(k - start + 1) * b.cols];
                for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv += a * bv;
                }
            }
        }
    }

    /// Register-tiled `AᵀB` kernel: a `TILE_M × TILE_N` tile of `C`
    /// accumulates in registers while the reduction index `i` runs its full
    /// serial range; the `TILE_M` `A` loads per step are contiguous
    /// (`A[i, k0..k0+TILE_M]`). The columns after the last full `TILE_N`
    /// block run the same tile `TILE_NARROW` lanes wide over `B`'s packed
    /// panels. Per-element `i` order and the `a == 0` skip match the
    /// unblocked kernel exactly, so results are bit-identical.
    fn matmul_at_b_chunk_tiled(
        &self,
        b: &Matrix,
        narrow: &NarrowPanels,
        start: usize,
        chunk: &mut [f32],
    ) {
        let n = b.cols;
        let m = self.rows;
        let kdim = self.cols;
        let rows = chunk.len() / n;
        let full_rows = rows - rows % TILE_M;
        for k0 in (0..full_rows).step_by(TILE_M) {
            let gk = start + k0;
            let mut j = 0;
            while j + TILE_N <= n {
                let mut acc = [[0f32; TILE_N]; TILE_M];
                for i in 0..m {
                    let av = &self.data[i * kdim + gk..i * kdim + gk + TILE_M];
                    let bk = &b.data[i * n + j..i * n + j + TILE_N];
                    for (accr, &a) in acc.iter_mut().zip(av) {
                        if a == 0.0 {
                            continue;
                        }
                        for (o, &bv) in accr.iter_mut().zip(bk) {
                            *o += a * bv;
                        }
                    }
                }
                for (kk, accr) in acc.iter().enumerate() {
                    let o = (k0 + kk) * n + j;
                    chunk[o..o + TILE_N].copy_from_slice(accr);
                }
                j += TILE_N;
            }
            let a_at = |i: usize, kk: usize| self.data[i * kdim + gk + kk];
            narrow.run(m, a_at, chunk, n, k0);
        }
        if full_rows < rows {
            self.matmul_at_b_chunk(b, start + full_rows, &mut chunk[full_rows * n..]);
        }
    }

    /// `C = A · Bᵀ`, every element the dot product of an `A` row and a `B`
    /// row summed from `+0.0` in serial `k` order.
    ///
    /// `B` (in training, a weight: small) is transposed once, and the
    /// product runs on [`Matrix::matmul`]'s register-tiled kernel with the
    /// `a == 0` skip compiled out. Each output element then adds exactly
    /// the products of [`Matrix::matmul_a_bt_unblocked`] in the same order,
    /// `0 · ±inf = NaN` included, so the result is bit-identical to that
    /// reference at any thread count.
    pub fn matmul_a_bt(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.cols, "matmul_a_bt: col counts differ");
        let t0 = mixq_telemetry::kernel_start();
        let bt = b.transpose();
        let c = self.matmul_dispatch::<false>(&bt);
        bt.recycle();
        let macs = (self.rows * self.cols * b.rows) as u64;
        mixq_telemetry::kernel_finish("tensor.matmul_a_bt", t0, macs);
        c
    }

    /// The reference form of [`Matrix::matmul_a_bt`]: one independent dot
    /// product per output element, for benchmarks and bit-identity suites.
    pub fn matmul_a_bt_unblocked(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.cols, "matmul_a_bt: col counts differ");
        let t0 = mixq_telemetry::kernel_start();
        let mut c = Matrix::zeros_pooled(self.rows, b.rows);
        par_row_chunks_mut(&mut c.data, self.rows, b.rows, |start, chunk| {
            for (di, crow) in chunk.chunks_mut(b.rows).enumerate() {
                let arow = &self.data[(start + di) * self.cols..(start + di + 1) * self.cols];
                for (j, cv) in crow.iter_mut().enumerate() {
                    let brow = &b.data[j * b.cols..(j + 1) * b.cols];
                    let mut acc = 0f32;
                    for (&av, &bv) in arow.iter().zip(brow.iter()) {
                        acc += av * bv;
                    }
                    *cv = acc;
                }
            }
        });
        let macs = (self.rows * self.cols * b.rows) as u64;
        mixq_telemetry::kernel_finish("tensor.matmul_a_bt", t0, macs);
        c
    }

    /// Cache-blocked, parallel transpose. Output rows (= input columns) are
    /// partitioned across threads; within a chunk the copy walks 32×32
    /// tiles so both the strided reads and the contiguous writes stay
    /// cache-resident. Pure data movement — the result is trivially
    /// identical to the naive double loop.
    pub fn transpose(&self) -> Matrix {
        let t0 = mixq_telemetry::kernel_start();
        let mut t = Matrix::scratch_pooled(self.cols, self.rows);
        let (rows, cols) = (self.rows, self.cols);
        par_row_chunks_mut(&mut t.data, cols, rows, |start, chunk| {
            let out_rows = chunk.len() / rows;
            for r0 in (0..rows).step_by(TRANSPOSE_BLOCK) {
                let r1 = (r0 + TRANSPOSE_BLOCK).min(rows);
                for c0 in (0..out_rows).step_by(TRANSPOSE_BLOCK) {
                    let c1 = (c0 + TRANSPOSE_BLOCK).min(out_rows);
                    for c in c0..c1 {
                        for r in r0..r1 {
                            chunk[c * rows + r] = self.data[r * cols + start + c];
                        }
                    }
                }
            }
        });
        mixq_telemetry::kernel_finish("tensor.transpose", t0, self.numel() as u64);
        t
    }

    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    pub fn scale_assign(&mut self, c: f32) {
        for v in &mut self.data {
            *v *= c;
        }
    }

    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Like [`Matrix::map`] but parallelized over contiguous chunks for
    /// large matrices. Requires `f: Sync` (pure element-wise kernels such as
    /// quantize/dequantize); results are bit-identical to `map`.
    pub fn par_map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut data = pool::take_scratch(self.data.len());
        par_map_slice(&self.data, &mut data, f);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Like [`Matrix::zip`] but parallelized over contiguous chunks for
    /// large matrices; bit-identical to `zip`.
    pub fn par_zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "par_zip: shape mismatch");
        let mut data = pool::take_scratch(self.data.len());
        par_zip_slice(&self.data, &other.data, &mut data, f);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise binary combination; shapes must match.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of each column as a `1×cols` matrix.
    pub fn col_sums(&self) -> Matrix {
        let mut s = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                s.data[c] += self.data[r * self.cols + c];
            }
        }
        s
    }

    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Frobenius inner product `Σ_{ij} A_{ij} B_{ij}`.
    pub fn dot(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "dot: shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// `true` iff any element is NaN or infinite. Divergence detection runs
    /// this on every gradient buffer each epoch, so it short-circuits.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Max absolute element-wise difference, for approximate comparisons.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// `B`'s columns after its last full `TILE_N` block, packed once per call
/// (outside the thread split) for the narrow register tile.
struct NarrowPanels {
    /// Block `jb` of `TILE_NARROW` columns holds, for each row `r` of `B`,
    /// the lanes `B[r, j0 + jb·TILE_NARROW ..]` as one contiguous row,
    /// zero-padded past `B`'s last column. Empty when `TILE_N` divides
    /// `B`'s width. Drawn from the [`pool`].
    lanes: Vec<f32>,
}

impl NarrowPanels {
    /// Packs `B`'s leftover columns for the tiled kernel, or returns `None`
    /// when the product should run the unblocked kernel instead: when not
    /// `tiled`, or when `skip` (the `a == 0` skip) is asked for and a
    /// leftover value of `B` is not finite. [`narrow_tile`] adds a zero
    /// `a`'s products, which is exact only against finite lanes, and inf
    /// or NaN in `B` means a diverged step whose speed does not matter.
    fn pack(b: &Matrix, tiled: bool, skip: bool) -> Option<Self> {
        if !tiled {
            return None;
        }
        let j0 = b.cols - b.cols % TILE_N;
        if j0 == b.cols {
            return Some(Self { lanes: Vec::new() });
        }
        let mut lanes =
            pool::take_zeroed((b.cols - j0).div_ceil(TILE_NARROW) * b.rows * TILE_NARROW);
        let mut finite = true;
        for (r, brow) in b.data.chunks_exact(b.cols).enumerate() {
            for (jb, src) in brow[j0..].chunks(TILE_NARROW).enumerate() {
                let o = (jb * b.rows + r) * TILE_NARROW;
                lanes[o..o + src.len()].copy_from_slice(src);
                finite &= src.iter().all(|v| v.is_finite());
            }
        }
        if skip && !finite {
            pool::give(lanes);
            return None;
        }
        Some(Self { lanes })
    }

    /// Returns the packed lanes to the [`pool`].
    fn give(panels: Option<Self>) {
        if let Some(p) = panels {
            pool::give(p.lanes);
        }
    }

    /// Computes and stores `C[i0..i0 + TILE_M, j0..n]` of a chunk of `C`
    /// (row length `n`), where `j0` is the first column after the last full
    /// `TILE_N` block: one [`narrow_tile`] per packed panel over `steps`
    /// reduction steps, `a_at(s, ii)` giving tile row `ii`'s `a` at step
    /// `s`. Only the lanes left of `C`'s last column are stored. Kept out
    /// of line so the wide tile's register allocation does not see it.
    #[inline(never)]
    fn run(
        &self,
        steps: usize,
        a_at: impl Fn(usize, usize) -> f32,
        chunk: &mut [f32],
        n: usize,
        i0: usize,
    ) {
        let mut j = n - n % TILE_N;
        for panel in self.lanes.chunks_exact(steps * TILE_NARROW) {
            let acc = narrow_tile(panel, &a_at);
            let w = TILE_NARROW.min(n - j);
            for (ii, accr) in acc.iter().enumerate() {
                let o = (i0 + ii) * n + j;
                chunk[o..o + w].copy_from_slice(&accr[..w]);
            }
            j += TILE_NARROW;
        }
    }
}

/// A `TILE_M × TILE_NARROW` register tile accumulated from `+0.0` over a
/// packed panel in serial order: step `s` adds `a_at(s, ii) · b[l]` to
/// `acc[ii][l]`, where `b` is the panel's row `s`. A zero `a` adds its
/// products too. Against a finite panel that is the unblocked kernels'
/// `a == 0` skip: the products are `±0`, and adding `±0` leaves an
/// accumulator that starts at `+0.0` as it is (it never becomes `-0.0`).
/// The tile has no branch and no select, because a per-row branch on
/// post-ReLU activations (about half zeros) mispredicts.
#[inline(always)]
fn narrow_tile(panel: &[f32], a_at: impl Fn(usize, usize) -> f32) -> [[f32; TILE_NARROW]; TILE_M] {
    let mut acc = [[0f32; TILE_NARROW]; TILE_M];
    for (s, b) in panel.chunks_exact(TILE_NARROW).enumerate() {
        let b: &[f32; TILE_NARROW] = b.try_into().expect("a packed row");
        for (ii, accr) in acc.iter_mut().enumerate() {
            let a = a_at(s, ii);
            for l in 0..TILE_NARROW {
                accr[l] += a * b[l];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_non_finite_detects_nan_and_inf() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.0, 3.5]);
        assert!(!m.has_non_finite());
        m.data_mut()[3] = f32::NAN;
        assert!(m.has_non_finite());
        m.data_mut()[3] = f32::NEG_INFINITY;
        assert!(m.has_non_finite());
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transposed_variants_agree() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 5, |r, c| (r + c) as f32 * 0.25);
        let via_explicit = a.transpose().matmul(&b);
        assert!(a.matmul_at_b(&b).max_abs_diff(&via_explicit) < 1e-6);

        let c = Matrix::from_fn(6, 3, |r, c| (r as f32 - c as f32) * 0.1);
        let via_explicit = a.matmul(&c.transpose());
        assert!(a.matmul_a_bt(&c).max_abs_diff(&via_explicit) < 1e-6);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
        // Shapes that straddle TRANSPOSE_BLOCK exercise the tile remainders.
        let b = Matrix::from_fn(45, 71, |r, c| (r as f32 - 0.5) * (c as f32 + 0.25));
        let naive = Matrix::from_fn(71, 45, |r, c| b.get(c, r));
        assert_eq!(b.transpose(), naive);
        assert_eq!(b.transpose().transpose(), b);
    }

    #[test]
    fn tiled_kernels_match_unblocked_bitwise() {
        // Big enough to cross TILE_MIN_MACS with awkward (non-multiple-of-
        // tile) dimensions on every axis, seasoned with exact zeros so the
        // a == 0 skip fires inside tiles.
        let a = Matrix::from_fn(37, 29, |r, c| {
            if (r + c) % 7 == 0 {
                0.0
            } else {
                ((r * 31 + c * 17) % 13) as f32 * 0.37 - 2.0
            }
        });
        let b = Matrix::from_fn(29, 21, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.21 - 1.0);
        let (t, u) = (a.matmul(&b), a.matmul_unblocked(&b));
        assert_eq!(t.data(), u.data(), "matmul tiled vs unblocked");

        let b2 = Matrix::from_fn(37, 21, |r, c| ((r + 2 * c) % 9) as f32 * 0.11 - 0.4);
        let (t, u) = (a.matmul_at_b(&b2), a.matmul_at_b_unblocked(&b2));
        assert_eq!(t.data(), u.data(), "matmul_at_b tiled vs unblocked");

        let b3 = Matrix::from_fn(23, 29, |r, c| ((3 * r + c) % 8) as f32 * 0.19 - 0.7);
        let (t, u) = (a.matmul_a_bt(&b3), a.matmul_a_bt_unblocked(&b3));
        assert_eq!(t.data(), u.data(), "matmul_a_bt tiled vs unblocked");
    }

    #[test]
    fn pooled_matmul_reuses_clean_buffers() {
        // A recycled dirty buffer must not leak stale values into a later
        // product: zeros_pooled re-zeroes on reuse.
        let a = Matrix::from_fn(16, 16, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(16, 16, |r, c| (r as f32) - (c as f32));
        let first = a.matmul(&b);
        let expect = first.clone();
        first.recycle();
        let again = a.matmul(&b);
        assert_eq!(again, expect);
        let pooled_clone = again.clone_pooled();
        assert_eq!(pooled_clone, expect);
        pooled_clone.recycle();
    }

    #[test]
    fn col_sums_and_reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.col_sums().data(), &[4.0, 6.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.dot(&a), 30.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scalar_helpers() {
        let s = Matrix::scalar(3.5);
        assert_eq!(s.item(), 3.5);
        assert_eq!(s.shape(), (1, 1));
    }
}
