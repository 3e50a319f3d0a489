//! The AVX-512 VNNI arm of `spmm_rows` against the portable arms
//! (`spmm_rows_portable`), bit for bit: every accumulator row, row sum and
//! accumulator width, over every tail and padding case of a row's groups of
//! four, column widths around the 64-column block, the eligibility edges, and
//! a row at the `i32` bound.
//!
//! Which arm ran is read from the `qcsr.spmm.*_path` telemetry counters. On
//! a host without the instructions every case must take a portable arm.
//!
//! Everything lives in one `#[test]`, because telemetry is process-global.

use std::sync::Mutex;

use mixq_sparse::{spmm_rows, spmm_rows_portable, CooEntry, CsrMatrix, QuantCsr, RowAcc};

/// Minimal SplitMix64 for test-case generation.
struct Sm(u64);

impl Sm {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    fn code(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi as i64 - lo as i64 + 1) as usize) as i32
    }
}

fn vnni_host() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512vnni") && is_x86_feature_detected!("avx512bw")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// What a row kernel handed its epilogue: every row's accumulators widened
/// to `i64`, its row sum and whether it came as `i32`.
#[derive(Debug, PartialEq)]
struct Rows {
    acc: Vec<i64>,
    rowsums: Vec<i64>,
    narrow: Vec<bool>,
}

/// A row-kernel epilogue over `i64` output rows.
type Epilogue<'a> = dyn Fn(usize, RowAcc<'_>, i64, &mut [i64]) + Sync + 'a;

type Kernel = fn(&QuantCsr, &[i32], usize, &mut [i64], &Epilogue<'_>);

fn collect(kernel: Kernel, a: &QuantCsr, x: &[i32], f: usize) -> Rows {
    let meta = Mutex::new(vec![(0i64, false); a.rows()]);
    let mut acc = vec![0i64; a.rows() * f];
    kernel(a, x, f, &mut acc, &|r, row, rowsum, out| {
        let narrow = match row {
            RowAcc::I32(v) => {
                for (o, &v) in out.iter_mut().zip(v) {
                    *o = v as i64;
                }
                true
            }
            RowAcc::I64(v) => {
                out.copy_from_slice(v);
                false
            }
        };
        meta.lock().unwrap()[r] = (rowsum, narrow);
    });
    let (rowsums, narrow) = meta.into_inner().unwrap().into_iter().unzip();
    Rows {
        acc,
        rowsums,
        narrow,
    }
}

fn dispatching(a: &QuantCsr, x: &[i32], f: usize, out: &mut [i64], e: &Epilogue<'_>) {
    spmm_rows(a, x, f, out, e);
}

fn portable(a: &QuantCsr, x: &[i32], f: usize, out: &mut [i64], e: &Epilogue<'_>) {
    spmm_rows_portable(a, x, f, out, e);
}

/// The `qcsr.spmm.*_path` counter `spmm_rows` bumped on `(a, x, f)`.
fn arm_of(a: &QuantCsr, x: &[i32], f: usize) -> &'static str {
    mixq_telemetry::reset();
    collect(dispatching, a, x, f);
    let rep = mixq_telemetry::snapshot();
    let fired: Vec<&'static str> = ["vnni", "i32", "i64"]
        .into_iter()
        .filter(|arm| {
            rep.counters
                .iter()
                .any(|(k, v)| *k == format!("qcsr.spmm.{arm}_path") && *v > 0)
        })
        .collect();
    assert_eq!(fired.len(), 1, "exactly one arm per call, got {fired:?}");
    fired[0]
}

/// Runs both kernels on `(a, x, f)`, asserts that they agree on every
/// accumulator, row sum and width, and that `spmm_rows` took `want` (or,
/// on a host without the instructions, the portable `i32` arm instead of
/// `vnni`).
fn check(a: &QuantCsr, x: &[i32], f: usize, want: &str, what: &str) {
    let want = if want == "vnni" && !vnni_host() {
        "i32"
    } else {
        want
    };
    assert_eq!(arm_of(a, x, f), want, "{what}: wrong arm");
    assert_eq!(
        collect(dispatching, a, x, f),
        collect(portable, a, x, f),
        "{what}: arms diverged"
    );
}

/// A matrix whose rows have the given non-zero counts over `cols`
/// columns, at distinct random columns, with codes from `code`.
fn with_rows(
    s: &mut Sm,
    lens: &[usize],
    cols: usize,
    mut code: impl FnMut(&mut Sm) -> i32,
) -> QuantCsr {
    let mut entries = Vec::new();
    for (r, &len) in lens.iter().enumerate() {
        let mut picked = vec![false; cols];
        let mut left = len;
        while left > 0 {
            let c = s.below(cols);
            if !picked[c] {
                picked[c] = true;
                left -= 1;
                entries.push(CooEntry {
                    row: r,
                    col: c,
                    val: code(s) as f32,
                });
            }
        }
    }
    let csr = CsrMatrix::from_coo(lens.len(), cols, entries);
    QuantCsr::from_csr(&csr, 8, |_, _, v| v as i32)
}

/// Activation codes in `lo..=hi`, with both ends present.
fn activations(s: &mut Sm, n: usize, lo: i32, hi: i32) -> Vec<i32> {
    let mut x: Vec<i32> = (0..n).map(|_| s.code(lo, hi)).collect();
    if n >= 2 {
        x[0] = lo;
        x[n - 1] = hi;
    }
    x
}

#[test]
fn vnni_arm_is_bit_identical_to_the_portable_arms() {
    mixq_telemetry::set_enabled(true);
    let mut s = Sm(0x5EED);
    // Row lengths 0–5 and 9 (every tail and padding case of a group of
    // four) and two hub rows.
    let lens = [0usize, 1, 2, 3, 4, 5, 9, 0, 300, 7, 160];
    let cols = 320;
    let a = with_rows(&mut s, &lens, cols, |s| s.code(-127, 127));
    let widths = [1usize, 7, 12, 15, 16, 17, 47, 48, 63, 64, 65, 128];

    for f in widths {
        // Spans of exactly 255 take the arm, below and above zero.
        for (lo, hi) in [(-128, 127), (3, 258), (-300, -45)] {
            let x = activations(&mut s, cols * f, lo, hi);
            check(&a, &x, f, "vnni", &format!("f={f}, x in [{lo}, {hi}]"));
        }
        // A span of 256 falls back.
        let x = activations(&mut s, cols * f, -128, 128);
        check(&a, &x, f, "i32", &format!("f={f}, span 256"));
    }

    // Adjacency codes at ±127 take the arm; a 128 (either sign) does not.
    let extremes = with_rows(&mut s, &lens, cols, |s| {
        if s.below(2) == 0 {
            127
        } else {
            -127
        }
    });
    for f in [12, 64] {
        let x = activations(&mut s, cols * f, -128, 127);
        check(&extremes, &x, f, "vnni", &format!("f={f}, codes ±127"));
        for wide in [128, -128] {
            let a = with_rows(&mut s, &lens, cols, |s| {
                if s.below(50) == 0 {
                    wide
                } else {
                    s.code(-127, 127)
                }
            });
            check(&a, &x, f, "i32", &format!("f={f}, a code of {wide}"));
        }
    }

    // A row at the `i32` bound: d codes of 127 against activations in
    // [-128, 127] give the bound d·127·128, which fits `i32` up to
    // d = 132104. Its all-127 row sums to d·127·127 in `i32`, while the
    // kernel's `Σ a·(x − min x)` reaches d·127·255 and wraps; the wrapped
    // sum plus `min(x)·Σ a` is exact. One more non-zero takes `i64`.
    for (d, want) in [(132_104usize, "vnni"), (132_105, "i64")] {
        let entries: Vec<CooEntry> = (0..d)
            .map(|c| CooEntry {
                row: 0,
                col: c,
                val: 127.0,
            })
            .chain([CooEntry {
                row: 1,
                col: d,
                val: -127.0,
            }])
            .collect();
        let a = QuantCsr::from_csr(&CsrMatrix::from_coo(2, d + 1, entries), 8, |_, _, v| {
            v as i32
        });
        for f in [1usize, 3] {
            let mut x = vec![127i32; (d + 1) * f];
            x[d * f] = -128;
            check(
                &a,
                &x,
                f,
                want,
                &format!("row of {d} at the i32 bound, f={f}"),
            );
            let got = collect(dispatching, &a, &x, f);
            assert_eq!(got.acc[0], d as i64 * 127 * 127, "d={d}");
        }
    }
    mixq_telemetry::set_enabled(false);
}
