//! Dependency-free parallel runtime for the MixQ-GNN compute kernels.
//!
//! Every hot kernel in the workspace (dense matmul, f32 SpMM, integer SpMM,
//! quantize/dequantize/fake-quant element-wise maps) is parallelized by
//! partitioning the **output** into disjoint contiguous row ranges and
//! handing each range to one `std::thread::scope` thread. Because each
//! thread owns its output slice exclusively and the per-row accumulation
//! order is exactly the serial order, results are **bit-identical** to the
//! serial kernels at any thread count — seeded experiments stay
//! reproducible no matter how the work is split.
//!
//! The thread count is process-wide:
//!
//! * `MIXQ_THREADS` environment variable (read once, on first use);
//! * [`set_num_threads`] overrides it at runtime;
//! * the default is [`std::thread::available_parallelism`].
//!
//! Small inputs fall back to the serial path: row-partitioned kernels when
//! the row count is below the tunable [`parallel_row_threshold`],
//! element-wise kernels below a fixed element threshold. Spawning a scoped
//! thread costs tens of microseconds, so parallelism only pays off once a
//! kernel does comparable work per range.
//!
//! Worker panics are **contained**: each chunk runs under `catch_unwind`,
//! and any chunk whose worker panicked is zeroed and re-run serially on the
//! caller's thread after the scope joins (counted in the
//! `parallel.worker_panics` telemetry counter). Kernels route through this
//! runtime with freshly zero-initialized output buffers and either overwrite
//! or accumulate into them, so zero-and-retry reproduces the unfaulted
//! result bit-identically. A panic that recurs on the serial retry is a
//! genuine kernel bug and propagates.
//!
//! This lives in its own crate (rather than `mixq-tensor`) because
//! `mixq-sparse` sits *below* `mixq-tensor` in the dependency graph and its
//! SpMM kernels need the same runtime; `mixq-tensor` re-exports this crate
//! as `mixq_tensor::parallel`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the configurable thread count; a guard against
/// `MIXQ_THREADS=1000000` typos, far above any sensible setting.
pub const MAX_THREADS: usize = 256;

/// Default minimum number of rows before a row-partitioned kernel spawns
/// threads (tunable via [`set_parallel_row_threshold`]).
pub const DEFAULT_ROW_THRESHOLD: usize = 32;

/// Minimum number of elements before an element-wise kernel spawns threads.
/// Element-wise work is a few ns per element, so anything below this is
/// cheaper than one thread spawn.
pub const ELEMENTWISE_THRESHOLD: usize = 1 << 14;

/// 0 means "not initialized yet" — the first reader resolves the default.
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);
static ROW_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_ROW_THRESHOLD);

fn resolve_default_threads() -> usize {
    if let Ok(s) = std::env::var("MIXQ_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
        // Invalid values fall through to the hardware default rather than
        // silently serializing a production deployment.
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// The process-wide thread count used by all parallel kernels.
///
/// Resolution order: [`set_num_threads`] override, then the `MIXQ_THREADS`
/// environment variable, then [`std::thread::available_parallelism`].
pub fn num_threads() -> usize {
    let n = NUM_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let d = resolve_default_threads();
    // Benign race: concurrent first readers compute the same value.
    NUM_THREADS.store(d, Ordering::Relaxed);
    d
}

/// Sets the process-wide thread count (clamped to `1..=MAX_THREADS`).
/// `set_num_threads(1)` makes every kernel run serially.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Rows below this threshold run serially in row-partitioned kernels.
pub fn parallel_row_threshold() -> usize {
    ROW_THRESHOLD.load(Ordering::Relaxed)
}

/// Tunes the serial-fallback row threshold (0 parallelizes everything —
/// useful in tests that must exercise the threaded path on tiny inputs).
pub fn set_parallel_row_threshold(rows: usize) {
    ROW_THRESHOLD.store(rows, Ordering::Relaxed);
}

/// Partitions `rows` into `pieces` contiguous ranges whose sizes differ by
/// at most one row, returning the range boundaries (length `pieces + 1`).
fn range_bounds(rows: usize, pieces: usize) -> Vec<usize> {
    (0..=pieces).map(|i| rows * i / pieces).collect()
}

/// Partitions the rows described by a CSR-style prefix-sum array into
/// `pieces` contiguous ranges of approximately equal *weight* (non-zeros),
/// returning the row boundaries (length `pieces + 1`, `bounds[0] == 0`,
/// `bounds[pieces] == rows`, non-decreasing).
///
/// `row_ptr` must have `rows + 1` monotone entries (a CSR `row_ptr` works
/// verbatim). Boundary `i` is the first row whose prefix weight reaches
/// `i/pieces` of the total, so every chunk carries at most
/// `ceil(total/pieces) + max_row_weight` non-zeros — a hub row can only
/// overshoot its chunk by itself, never serialize unrelated rows behind it.
/// An all-zero matrix degrades to the equal-row split.
pub fn nnz_balanced_bounds(row_ptr: &[usize], pieces: usize) -> Vec<usize> {
    assert!(
        !row_ptr.is_empty(),
        "nnz_balanced_bounds: row_ptr must hold rows+1 prefix sums"
    );
    assert!(pieces >= 1, "nnz_balanced_bounds: pieces must be >= 1");
    let rows = row_ptr.len() - 1;
    let base = row_ptr[0];
    let total = row_ptr[rows] - base;
    if total == 0 {
        return range_bounds(rows, pieces);
    }
    let mut bounds = Vec::with_capacity(pieces + 1);
    bounds.push(0usize);
    for i in 1..pieces {
        // u128 sidesteps overflow of total × i on huge graphs.
        let target = base + ((total as u128 * i as u128) / pieces as u128) as usize;
        let b = row_ptr.partition_point(|&v| v < target);
        bounds.push(b.max(*bounds.last().unwrap()).min(rows));
    }
    bounds.push(rows);
    bounds
}

/// `true` iff a caught panic payload came from [`mixq_faultinject`] (its
/// injected panics embed [`mixq_faultinject::PANIC_MARKER`] in the message).
fn payload_is_injected(payload: &(dyn std::any::Any + Send)) -> bool {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return s.contains(mixq_faultinject::PANIC_MARKER);
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.contains(mixq_faultinject::PANIC_MARKER);
    }
    false
}

/// Runs `f(row_start, chunk)` over disjoint row ranges of a row-major
/// `rows × width` output buffer, in parallel when the input is large enough.
///
/// `out.len()` must equal `rows * width`. Each invocation receives the
/// starting row index of its range and the exclusive `&mut` sub-slice
/// covering exactly that range, so writes are race-free by construction and
/// `f` observes the same per-row state as the serial loop — the parallel
/// result is bit-identical to `f(0, out)`.
///
/// If a worker panics, its chunk is reset to `T::default()` and re-run
/// serially after the scope joins (see the module docs); hence the
/// `Copy + Default` bound, which every numeric output type satisfies.
pub fn par_row_chunks_mut<T: Send + Copy + Default>(
    out: &mut [T],
    rows: usize,
    width: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert_eq!(
        out.len(),
        rows * width,
        "output buffer must be rows × width"
    );
    // Zero rows or zero width means zero output elements: nothing to
    // compute, and skipping `f` here lets callers use `chunks_mut(width)`
    // without a per-caller `.max(1)` guard against zero-width rows.
    if out.is_empty() {
        return;
    }
    let t = num_threads().min(rows);
    if t <= 1 || rows < parallel_row_threshold().max(2) {
        if mixq_telemetry::enabled() {
            mixq_telemetry::counter_add("parallel.serial_calls", 1);
        }
        f(0, out);
        return;
    }
    run_bounded(out, width, range_bounds(rows, t), f);
}

/// Like [`par_row_chunks_mut`] but splits rows at **nnz-balanced**
/// boundaries derived from `row_ptr` (a `rows + 1` prefix-sum array, e.g. a
/// CSR `row_ptr`) instead of equal row counts. Power-law graphs concentrate
/// most non-zeros in a few hub rows; an equal-row split hands one thread all
/// the hubs and serializes the kernel on that chunk, while this split keeps
/// per-chunk work within one row's weight of even (see
/// [`nnz_balanced_bounds`]).
///
/// Chunks are still disjoint contiguous row ranges and per-row work runs in
/// serial order, so results remain bit-identical to the serial kernel and to
/// the equal-row schedule at any thread count.
pub fn par_row_chunks_mut_balanced<T: Send + Copy + Default>(
    out: &mut [T],
    rows: usize,
    width: usize,
    row_ptr: &[usize],
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert_eq!(
        out.len(),
        rows * width,
        "output buffer must be rows × width"
    );
    assert_eq!(
        row_ptr.len(),
        rows + 1,
        "row_ptr must be a rows+1 prefix-sum array"
    );
    if out.is_empty() {
        return;
    }
    let t = num_threads().min(rows);
    if t <= 1 || rows < parallel_row_threshold().max(2) {
        if mixq_telemetry::enabled() {
            mixq_telemetry::counter_add("parallel.serial_calls", 1);
        }
        f(0, out);
        return;
    }
    if mixq_telemetry::enabled() {
        mixq_telemetry::counter_add("parallel.balanced_calls", 1);
    }
    let mut bounds = nnz_balanced_bounds(row_ptr, t);
    // A dominant hub row can swallow several targets, leaving empty ranges;
    // collapse them rather than spawning idle workers.
    bounds.dedup();
    if bounds.len() <= 2 {
        // One chunk carries everything: parallelism cannot help this shape.
        f(0, out);
        return;
    }
    run_bounded(out, width, bounds, f);
}

/// Shared parallel core: runs `f` over the row ranges given by `bounds`
/// (monotone, `bounds[0] == 0`, last entry = row count), one scoped thread
/// per range, with panic containment and utilization telemetry.
fn run_bounded<T: Send + Copy + Default>(
    out: &mut [T],
    width: usize,
    bounds: Vec<usize>,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let telemetry = mixq_telemetry::enabled();
    let t = bounds.len() - 1;
    if telemetry {
        mixq_telemetry::counter_add("parallel.par_calls", 1);
        mixq_telemetry::counter_add("parallel.threads_used", t as u64);
    }
    let faults = mixq_faultinject::enabled();
    // Per-thread utilization: sum of per-chunk busy time over wall × threads.
    // Only measured when telemetry is on; otherwise the closure wrapper is a
    // single never-taken branch per chunk.
    let busy_ns = std::sync::atomic::AtomicU64::new(0);
    let run = |start: usize, chunk: &mut [T]| {
        if faults && mixq_faultinject::should_fire(mixq_faultinject::FaultKind::WorkerPanic, None) {
            mixq_faultinject::injected_panic("par_row_chunks_mut");
        }
        if telemetry {
            let t0 = std::time::Instant::now();
            f(start, chunk);
            busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        } else {
            f(start, chunk);
        }
    };
    // Chunks whose worker panicked: (start row, row count, injected?).
    // They are zeroed and re-run serially after the scope joins.
    let panicked: std::sync::Mutex<Vec<(usize, usize, bool)>> = std::sync::Mutex::new(Vec::new());
    let guarded = |start: usize, nrows: usize, chunk: &mut [T]| {
        // The closure only writes through the exclusive chunk borrow, and a
        // panicked chunk is wholly reset before retry, so no broken
        // invariant can escape the unwind boundary.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(start, chunk)));
        if let Err(payload) = r {
            let injected = payload_is_injected(payload.as_ref());
            panicked.lock().unwrap().push((start, nrows, injected));
        }
    };
    let wall = std::time::Instant::now();
    let rows = bounds[t];
    std::thread::scope(|s| {
        let mut rest = &mut *out;
        // Spawn the first t−1 ranges and run the last one on this thread;
        // the scope joins everything before returning.
        for w in bounds.windows(2).take(t - 1) {
            let (chunk, tail) = rest.split_at_mut((w[1] - w[0]) * width);
            rest = tail;
            let (start, nrows) = (w[0], w[1] - w[0]);
            let guarded = &guarded;
            s.spawn(move || guarded(start, nrows, chunk));
        }
        guarded(bounds[t - 1], rows - bounds[t - 1], rest);
    });
    let panicked = panicked.into_inner().unwrap();
    if !panicked.is_empty() {
        mixq_telemetry::counter_add("parallel.worker_panics", panicked.len() as u64);
        for (start, nrows, injected) in panicked {
            let chunk = &mut out[start * width..(start + nrows) * width];
            chunk.fill(T::default());
            // A second panic here is a genuine kernel bug: let it propagate.
            run(start, chunk);
            if injected {
                mixq_faultinject::mark_recovered();
            }
        }
    }
    if telemetry {
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let busy = busy_ns.into_inner();
        let ideal = wall_ns.saturating_mul(t as u64);
        mixq_telemetry::counter_add("parallel.busy_ns", busy);
        mixq_telemetry::counter_add("parallel.ideal_ns", ideal);
        if ideal > 0 {
            mixq_telemetry::gauge_set("parallel.last_utilization", busy as f64 / ideal as f64);
        }
    }
}

/// Element-wise `dst[i] = f(src[i])`, parallelized over contiguous chunks
/// when there are at least [`ELEMENTWISE_THRESHOLD`] elements. Bit-identical
/// to the serial map (each element is computed independently).
pub fn par_map_slice<T: Copy + Sync, U: Send + Copy + Default>(
    src: &[T],
    dst: &mut [U],
    f: impl Fn(T) -> U + Sync,
) {
    par_map_chunks(src, dst, |s, d| {
        for (o, &v) in d.iter_mut().zip(s) {
            *o = f(v);
        }
    });
}

/// Like [`par_map_slice`], but `f` receives each pair of matching chunks
/// `(src, dst)` whole, so a kernel can hoist a loop-invariant choice out of
/// its element loop.
pub fn par_map_chunks<T: Sync, U: Send + Copy + Default>(
    src: &[T],
    dst: &mut [U],
    f: impl Fn(&[T], &mut [U]) + Sync,
) {
    assert_eq!(src.len(), dst.len(), "par_map_chunks: length mismatch");
    if src.len() < ELEMENTWISE_THRESHOLD || num_threads() <= 1 {
        f(src, dst);
        return;
    }
    let len = src.len();
    par_row_chunks_mut(dst, len, 1, |start, chunk| {
        f(&src[start..start + chunk.len()], chunk)
    });
}

/// Element-wise `dst[i] = f(a[i], b[i])` over two sources, parallelized like
/// [`par_map_slice`].
pub fn par_zip_slice<A: Copy + Sync, B: Copy + Sync, U: Send + Copy + Default>(
    a: &[A],
    b: &[B],
    dst: &mut [U],
    f: impl Fn(A, B) -> U + Sync,
) {
    assert_eq!(a.len(), dst.len(), "par_zip_slice: length mismatch");
    assert_eq!(b.len(), dst.len(), "par_zip_slice: length mismatch");
    let apply = |start: usize, chunk: &mut [U]| {
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = f(a[start + i], b[start + i]);
        }
    };
    if a.len() < ELEMENTWISE_THRESHOLD || num_threads() <= 1 {
        apply(0, dst);
        return;
    }
    let len = a.len();
    par_row_chunks_mut(dst, len, 1, apply);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_cover_rows_evenly() {
        let b = range_bounds(10, 4);
        assert_eq!(b, vec![0, 2, 5, 7, 10]);
        assert_eq!(range_bounds(3, 8), vec![0, 0, 0, 1, 1, 1, 2, 2, 3]);
    }

    #[test]
    fn nnz_bounds_isolate_hub_rows() {
        // Row 0 is a hub with 100 nnz; rows 1..=4 hold 1 nnz each. An
        // equal-row split at 2 pieces would put the hub plus a light row in
        // one chunk; the balanced split cuts right after the hub.
        let row_ptr = vec![0, 100, 101, 102, 103, 104];
        assert_eq!(nnz_balanced_bounds(&row_ptr, 2), vec![0, 1, 5]);
        // Every chunk carries ≤ ceil(total/pieces) + max_row nnz.
        for pieces in 1..=8 {
            let b = nnz_balanced_bounds(&row_ptr, pieces);
            assert_eq!(b.len(), pieces + 1);
            assert_eq!((b[0], b[pieces]), (0, 5));
            let limit = 104usize.div_ceil(pieces) + 100;
            for w in b.windows(2) {
                assert!(w[0] <= w[1], "bounds must be monotone");
                assert!(row_ptr[w[1]] - row_ptr[w[0]] <= limit);
            }
        }
        // All-empty rows degrade to the equal-row split; a single piece
        // spans everything.
        assert_eq!(nnz_balanced_bounds(&[0, 0, 0, 0], 2), vec![0, 1, 3]);
        assert_eq!(nnz_balanced_bounds(&[0, 3, 7], 1), vec![0, 2]);
        // rows == 0 (row_ptr of length 1) is well-defined.
        assert_eq!(nnz_balanced_bounds(&[0], 3), vec![0, 0, 0, 0]);
    }

    /// Thread-count / threshold knobs are process-wide, so everything that
    /// mutates them lives in one test to avoid cross-test races.
    #[test]
    fn runtime_partitions_match_serial() {
        let saved = (num_threads(), parallel_row_threshold());

        // Every row is touched exactly once, with the right start offset.
        for threads in [1usize, 2, 3, 8] {
            set_num_threads(threads);
            set_parallel_row_threshold(0);
            let (rows, width) = (13, 3);
            let mut out = vec![0u32; rows * width];
            par_row_chunks_mut(&mut out, rows, width, |start, chunk| {
                for (i, row) in chunk.chunks_mut(width).enumerate() {
                    for v in row.iter_mut() {
                        *v += (start + i) as u32 + 1;
                    }
                }
            });
            let want: Vec<u32> = (0..rows)
                .flat_map(|r| std::iter::repeat_n(r as u32 + 1, width))
                .collect();
            assert_eq!(out, want, "threads={threads}");
        }

        // Below the row threshold the kernel must not spawn: a closure that
        // records thread ids sees only the caller's.
        set_num_threads(8);
        set_parallel_row_threshold(64);
        let main_id = std::thread::current().id();
        let mut out = vec![0u8; 8];
        par_row_chunks_mut(&mut out, 8, 1, |_, _| {
            assert_eq!(
                std::thread::current().id(),
                main_id,
                "small input must stay serial"
            );
        });

        // Element-wise maps agree with their serial form above the
        // element threshold.
        set_parallel_row_threshold(0);
        let src: Vec<i64> = (0..(ELEMENTWISE_THRESHOLD as i64 + 17)).collect();
        let mut dst = vec![0i64; src.len()];
        par_map_slice(&src, &mut dst, |v| v * 3 - 1);
        assert!(dst.iter().zip(&src).all(|(&d, &s)| d == s * 3 - 1));
        let mut dst2 = vec![0i64; src.len()];
        par_zip_slice(&src, &dst, &mut dst2, |a, b| a + b);
        assert!(dst2
            .iter()
            .zip(src.iter().zip(&dst))
            .all(|(&o, (&a, &b))| o == a + b));

        // Worker-panic containment (the faultinject gate is process-global,
        // so this lives in the same test). The hook swap silences the
        // expected panic backtraces from worker threads.
        set_num_threads(4);
        set_parallel_row_threshold(0);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        mixq_faultinject::set_spec("worker_panic@2").unwrap();
        let (rows, width) = (64, 3);
        let mut out = vec![0i64; rows * width];
        par_row_chunks_mut(&mut out, rows, width, |start, chunk| {
            for (i, row) in chunk.chunks_mut(width).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v += ((start + i) * width + j) as i64;
                }
            }
        });
        let want: Vec<i64> = (0..(rows * width) as i64).collect();
        assert_eq!(out, want, "panicked chunk must be retried bit-identically");
        assert_eq!(mixq_faultinject::injected_count(), 1);
        assert_eq!(mixq_faultinject::recovered_count(), 1);
        mixq_faultinject::clear();

        // A deterministic (non-injected) panic recurs on the serial retry
        // and must propagate — containment only absorbs transient faults.
        let mut out = vec![0u32; 64];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_row_chunks_mut(&mut out, 64, 1, |start, _chunk| {
                if start == 0 {
                    panic!("genuine kernel bug");
                }
            });
        }));
        assert!(result.is_err(), "deterministic panic must propagate");
        std::panic::set_hook(hook);

        // Empty and degenerate shapes stay well-defined, and the zero-width
        // guard is centralized here: `f` is never invoked with an empty
        // output, so callers may call `chunks_mut(width)` unconditionally.
        let mut empty: Vec<f32> = Vec::new();
        par_row_chunks_mut(&mut empty, 0, 4, |_, _| {});
        par_row_chunks_mut(&mut empty, 4, 0, |_, _| panic!("width 0 must skip f"));
        par_row_chunks_mut_balanced(&mut empty, 4, 0, &[0, 1, 2, 3, 4], |_, _| {
            panic!("width 0 must skip f")
        });
        let mut one = vec![1.0f32; 5];
        par_row_chunks_mut(&mut one, 1, 5, |start, chunk| {
            assert_eq!((start, chunk.len()), (0, 5));
        });

        // The nnz-balanced runner visits every row exactly once with the
        // right start offsets, for skewed and uniform weights alike.
        set_num_threads(4);
        set_parallel_row_threshold(0);
        let rows = 13;
        let mut row_ptr = vec![0usize];
        for r in 0..rows {
            let w = if r == 2 { 500 } else { r % 3 };
            row_ptr.push(row_ptr[r] + w);
        }
        for threads in [1usize, 2, 4, 8] {
            set_num_threads(threads);
            let width = 3;
            let mut out = vec![0u32; rows * width];
            par_row_chunks_mut_balanced(&mut out, rows, width, &row_ptr, |start, chunk| {
                for (i, row) in chunk.chunks_mut(width).enumerate() {
                    for v in row.iter_mut() {
                        *v += (start + i) as u32 + 1;
                    }
                }
            });
            let want: Vec<u32> = (0..rows)
                .flat_map(|r| std::iter::repeat_n(r as u32 + 1, width))
                .collect();
            assert_eq!(out, want, "balanced threads={threads}");
        }

        // Telemetry (also process-wide, so it lives in this same test):
        // a parallel call records busy/ideal time, a serial call does not.
        mixq_telemetry::set_enabled(true);
        mixq_telemetry::reset();
        set_num_threads(4);
        set_parallel_row_threshold(0);
        let mut out = vec![0u64; 64];
        par_row_chunks_mut(&mut out, 64, 1, |start, chunk| {
            chunk[0] = start as u64;
        });
        set_parallel_row_threshold(1000);
        par_row_chunks_mut(&mut out, 64, 1, |_, _| {});
        let rep = mixq_telemetry::snapshot();
        let counter = |n: &str| {
            rep.counters
                .iter()
                .find(|(k, _)| k == n)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        assert_eq!(counter("parallel.par_calls"), 1);
        assert_eq!(counter("parallel.serial_calls"), 1);
        assert_eq!(counter("parallel.threads_used"), 4);
        assert!(counter("parallel.ideal_ns") >= counter("parallel.busy_ns") / 4);
        mixq_telemetry::reset();
        mixq_telemetry::set_enabled(false);

        set_num_threads(saved.0);
        set_parallel_row_threshold(saved.1);
    }

    #[test]
    fn set_num_threads_clamps() {
        // Read-only observation of the clamp logic via a scratch value;
        // restore immediately so other tests see a sane count.
        let saved = num_threads();
        set_num_threads(0);
        assert_eq!(num_threads(), 1);
        set_num_threads(1_000_000);
        assert_eq!(num_threads(), MAX_THREADS);
        set_num_threads(saved);
    }
}
