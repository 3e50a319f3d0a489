//! Thread-confined buffer pool for `f32` kernel temporaries.
//!
//! Training allocates the same handful of matrix shapes every epoch —
//! forward activations, gradient accumulators, matmul outputs — and each
//! fresh `Vec` pays for pages the previous epoch just returned to the
//! allocator. The pool keeps freed buffers on per-thread size-class free
//! lists so steady-state epochs recycle warm memory instead:
//! [`Tape`](crate::Tape) forward/backward temporaries come from
//! [`take_zeroed`]/[`take_scratch`] and go back via
//! [`Tape::recycle`](crate::Tape::recycle) at the end of each epoch.
//!
//! Design constraints:
//!
//! * **Thread-confined.** Kernel *outputs* are always allocated on the
//!   caller's thread (the parallel runtime hands workers slices of an
//!   already-allocated buffer), so a `thread_local!` free list needs no
//!   locks and cannot leak buffers across training threads.
//! * **Size classes.** Buffers live in power-of-two capacity classes:
//!   [`take_zeroed`]`(len)` draws from the class that covers `len`
//!   (ceil log2) and allocates a miss at the full class capacity. [`give`]
//!   pools only buffers whose capacity is a power of two — the ones the
//!   pool allocated — and files each under exactly its own class, the one
//!   its length was taken from. An exact-capacity `Vec` (from
//!   `Matrix::map`, `zip` or `from_vec`) is dropped instead: filed one
//!   class down, no request of its own length could ever draw it, and such
//!   buffers would fill the byte budget with memory nobody asks for.
//!   A power-of-two `Vec` built elsewhere (a `1×1` scalar, a 64-wide bias
//!   row) is dropped too: [`give`] pools a buffer only against one of its
//!   class that [`take_zeroed`]/[`take_scratch`] lent and has not had back,
//!   so the pool never holds more buffers of a class than it lent. Training
//!   returns a few such buffers per epoch that no request draws again;
//!   kept, they would grow a process's memory with every epoch it ran.
//! * **Bounded.** Each thread retains at most [`MAX_HELD_BYTES`]; beyond
//!   that, returned buffers are dropped (counted in `pool.drop_bytes`).
//! * **Observable.** Telemetry counters `pool.hit_bytes` / `pool.miss_bytes`
//!   (and hit/miss call counts) make the steady-state hit rate a CI
//!   assertion rather than a hope; [`thread_stats`] exposes the same
//!   numbers unconditionally for tests.
//!
//! Reuse is numerically invisible: [`take_zeroed`] zero-fills (kernels that
//! accumulate see exactly the state a fresh `vec![0.0; n]` gives), and
//! [`take_scratch`] is reserved for kernels that overwrite every element.

use std::cell::RefCell;

/// Buffers with capacity above this never enter the pool (2^26 f32 =
/// 256 MiB); they would monopolize the byte budget for a shape that large
/// workloads allocate once, not per epoch.
const MAX_CLASS: usize = 26;

/// Per-thread retention cap in bytes. Past it, [`give`] drops instead of
/// pooling — a leak guard, not a performance knob: one GNN training run
/// touches a few dozen MB of temporaries.
pub const MAX_HELD_BYTES: usize = 128 << 20;

/// Per-thread hit/miss accounting, mirrored into telemetry when enabled.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub hit_bytes: u64,
    pub miss_bytes: u64,
}

struct Pool {
    /// `free[c]` holds buffers whose capacity is exactly `1 << c`.
    free: Vec<Vec<Vec<f32>>>,
    /// `lent[c]` counts the class-`c` buffers handed out and not yet given
    /// back.
    lent: Vec<usize>,
    held_bytes: usize,
    stats: PoolStats,
}

impl Pool {
    fn new() -> Self {
        Self {
            free: (0..=MAX_CLASS).map(|_| Vec::new()).collect(),
            lent: vec![0; MAX_CLASS + 1],
            held_bytes: 0,
            stats: PoolStats::default(),
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::new());
}

/// Smallest class whose buffers can hold `len` elements (ceil log2).
fn class_for_len(len: usize) -> usize {
    len.next_power_of_two().trailing_zeros() as usize
}

fn take(len: usize, zero: bool) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let class = class_for_len(len);
    let hit = if class <= MAX_CLASS {
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            p.lent[class] += 1;
            let buf = p.free[class].pop();
            if let Some(b) = &buf {
                p.held_bytes -= b.capacity() * 4;
                p.stats.hits += 1;
                p.stats.hit_bytes += (len * 4) as u64;
            }
            buf
        })
    } else {
        None
    };
    match hit {
        Some(mut b) => {
            mixq_telemetry::counter_add("pool.hits", 1);
            mixq_telemetry::counter_add("pool.hit_bytes", (len * 4) as u64);
            if zero {
                b.clear();
                b.resize(len, 0.0);
            } else if b.len() >= len {
                // Scratch reuse: stale-but-initialized contents are fine,
                // the caller overwrites every element.
                b.truncate(len);
            } else {
                b.resize(len, 0.0);
            }
            b
        }
        None => {
            POOL.with(|p| {
                let s = &mut p.borrow_mut().stats;
                s.misses += 1;
                s.miss_bytes += (len * 4) as u64;
            });
            mixq_telemetry::counter_add("pool.misses", 1);
            mixq_telemetry::counter_add("pool.miss_bytes", (len * 4) as u64);
            // Allocate at full class size so the buffer re-enters the same
            // class it will be requested from.
            let mut v = Vec::with_capacity(1 << class.min(MAX_CLASS));
            v.resize(len, 0.0);
            v
        }
    }
}

/// A zero-filled buffer of exactly `len` elements, recycled when possible.
/// Bit-identical to `vec![0.0; len]` from the caller's perspective.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    take(len, true)
}

/// A buffer of exactly `len` elements with **unspecified (but initialized)
/// contents**, recycled when possible. Only for kernels that overwrite every
/// element before any read.
pub fn take_scratch(len: usize) -> Vec<f32> {
    take(len, false)
}

/// Returns a buffer to the calling thread's pool. It is dropped instead if
/// the pool did not lend it (its capacity is not a power of two, or no
/// buffer of its class is out), if it is above the largest class, or if the
/// retention cap is reached.
pub fn give(buf: Vec<f32>) {
    let cap_bytes = buf.capacity() * 4;
    if !buf.capacity().is_power_of_two() {
        return;
    }
    let class = buf.capacity().trailing_zeros() as usize;
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if class > MAX_CLASS || p.lent[class] == 0 {
            return; // not lent by the pool: drop `buf`
        }
        p.lent[class] -= 1;
        if p.held_bytes + cap_bytes > MAX_HELD_BYTES {
            mixq_telemetry::counter_add("pool.drop_bytes", cap_bytes as u64);
            return; // drop `buf`
        }
        p.held_bytes += cap_bytes;
        p.free[class].push(buf);
    });
}

/// Snapshot of this thread's hit/miss counters (independent of telemetry).
pub fn thread_stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Drops every pooled buffer on this thread and zeroes its counters.
/// Tests use this for isolation; production code never needs it.
pub fn clear_thread_pool() {
    POOL.with(|p| *p.borrow_mut() = Pool::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_hits_and_zeroes() {
        clear_thread_pool();
        let mut a = take_zeroed(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&v| v == 0.0));
        assert_eq!(thread_stats().misses, 1);
        a.iter_mut().for_each(|v| *v = 7.0);
        give(a);

        // Same class (2^7 covers 100 and 120): reuse, re-zeroed.
        let b = take_zeroed(120);
        assert_eq!(b.len(), 120);
        assert!(b.iter().all(|&v| v == 0.0), "reused buffer must be zeroed");
        let s = thread_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.hit_bytes, 120 * 4);
        give(b);

        // Scratch reuse keeps stale contents but the exact requested length.
        let mut c = take_scratch(90);
        assert_eq!(c.len(), 90);
        assert_eq!(thread_stats().hits, 2);
        c.fill(1.0);
        give(c);

        // A larger class misses even with smaller buffers pooled.
        let d = take_zeroed(1000);
        assert_eq!(d.len(), 1000);
        assert_eq!(thread_stats().misses, 2);

        // Zero-length takes never touch the pool.
        assert!(take_zeroed(0).is_empty());
        assert_eq!(thread_stats().misses, 2);
        clear_thread_pool();
    }

    #[test]
    fn class_math() {
        assert_eq!(class_for_len(1), 0);
        assert_eq!(class_for_len(2), 1);
        assert_eq!(class_for_len(3), 2);
        assert_eq!(class_for_len(1024), 10);
        assert_eq!(class_for_len(1025), 11);
    }

    #[test]
    fn exact_capacity_buffers_are_not_retained() {
        // Regression: a 100-element exact-capacity Vec used to be filed
        // under class 6, where no request for 100 elements (class 7) could
        // find it; the pool filled with such buffers and stopped hitting.
        clear_thread_pool();
        give(vec![1.0; 100]);
        give(Vec::with_capacity(1535));
        assert_eq!(POOL.with(|p| p.borrow().held_bytes), 0);
        // Regression: a power-of-two buffer the pool never lent (a 64-wide
        // bias row, a 1×1 scalar) used to be retained, so each training
        // epoch added a few buffers no request drew again.
        give(vec![1.0; 64]);
        give(vec![1.0; 1]);
        assert_eq!(POOL.with(|p| p.borrow().held_bytes), 0);
        let _ = take_zeroed(100);
        assert_eq!(thread_stats().misses, 1);

        // A buffer the pool allocated comes back to the class it was taken
        // from, and the next request of the same length hits it.
        give(take_scratch(100));
        assert_eq!(POOL.with(|p| p.borrow().held_bytes), 128 * 4);
        let _ = take_scratch(100);
        assert_eq!(thread_stats().hits, 1);
        clear_thread_pool();
    }

    #[test]
    fn retention_cap_drops_excess() {
        clear_thread_pool();
        // Fill the pool up to the cap with large buffers, then one more.
        // The buffers count as lent (as if taken) without first touching
        // their pages through `take`.
        let class_bytes = (1usize << 20) * 4;
        let n_fit = MAX_HELD_BYTES / class_bytes;
        POOL.with(|p| p.borrow_mut().lent[20] = n_fit + 3);
        for _ in 0..n_fit + 3 {
            give(Vec::with_capacity(1 << 20));
        }
        let held = POOL.with(|p| p.borrow().held_bytes);
        assert!(held <= MAX_HELD_BYTES);
        assert!(held + class_bytes > MAX_HELD_BYTES, "the pool filled up");
        clear_thread_pool();
    }
}
