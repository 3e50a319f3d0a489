//! The AVX-512 arm of the f32 SpMM (`CsrMatrix::spmm_into`) against the
//! portable loop (`CsrMatrix::spmm_into_portable`), bit for bit: column
//! widths around every 16-lane accumulator and 64-column panel edge, on
//! generated graphs with isolated rows and (through the transpose) hub rows,
//! on empty matrices, with IEEE specials in both the adjacency values and
//! the dense operand, at 1, 2 and 4 threads.
//!
//! Which arm ran is read from the `sparse.spmm_f32.avx512_path` counter. On
//! a host without AVX-512 F both calls run the portable loop.
//!
//! Everything lives in one `#[test]`, because telemetry, the thread count
//! and the serial-fallback threshold are process-wide.

use mixq_parallel::{set_num_threads, set_parallel_row_threshold};
use mixq_proptest::{graph, usize_in, Config, Gen, GraphConfig, RandomGraph, F32_SPECIALS};
use mixq_sparse::CsrMatrix;

/// Widths 0–17 (every partial first accumulator), then both sides of each
/// accumulator and panel edge up to three panels.
const WIDTHS: [usize; 34] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64,
    65, 79, 80, 81, 127, 128, 129, 200,
];

/// A NaN whose sign and payload differ from both `f32::NAN` and the
/// default NaN that invalid operations (`inf − inf`, `0 · inf`) return, so
/// that NaNs meeting NaNs show which operand's payload each kernel keeps.
const OTHER_NAN: f32 = f32::from_bits(0xFFC0_1234);

/// Minimal SplitMix64 for the dense operands and the seasoning.
struct Sm(u64);

impl Sm {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// One in eight draws is an IEEE special (±0, NaN, ±inf, the smallest
    /// normal, a subnormal, ±MAX, or [`OTHER_NAN`]); the rest are uniform in
    /// `[-4, 4)`.
    fn seasoned(&mut self) -> f32 {
        let r = self.next();
        if r.is_multiple_of(8) {
            let i = (r >> 8) as usize % (F32_SPECIALS.len() + 1);
            F32_SPECIALS.get(i).copied().unwrap_or(OTHER_NAN)
        } else {
            ((r >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0
        }
    }
}

fn avx512_host() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Both kernels on `a · x` at every width and thread count, bit for bit.
fn check(a: &CsrMatrix, s: &mut Sm, what: &str) {
    for f in WIDTHS {
        let x: Vec<f32> = (0..a.cols() * f).map(|_| s.seasoned()).collect();
        set_num_threads(1);
        let mut want = vec![f32::NAN; a.rows() * f];
        a.spmm_into_portable(&x, f, &mut want);
        for t in [1usize, 2, 4] {
            set_num_threads(t);
            let mut got = vec![f32::NAN; a.rows() * f];
            a.spmm_into(&x, f, &mut got);
            let diff = bits(&got)
                .iter()
                .zip(bits(&want))
                .position(|(g, w)| *g != w);
            assert!(
                diff.is_none(),
                "{what}: {}×{} (nnz {}), f={f}, {t} threads: arms diverged at {:?}: {:#x} vs {:#x}",
                a.rows(),
                a.cols(),
                a.nnz(),
                diff,
                diff.map_or(0, |i| got[i].to_bits()),
                diff.map_or(0, |i| want[i].to_bits()),
            );
        }
    }
    set_num_threads(1);
}

/// Hub-skewed graphs with isolated nodes and self-loops, with a seed for
/// the seasoning.
fn cases() -> Gen<(RandomGraph, usize)> {
    let cfg = GraphConfig {
        min_nodes: 1,
        max_nodes: 48,
        max_degree: 16,
        degree_alpha: 3.0,
        isolated_frac: 0.3,
        self_loops: true,
        val_lo: -2.0,
        val_hi: 2.0,
    };
    graph(cfg).zip(&usize_in(0, 1 << 20))
}

#[test]
fn avx512_arm_is_bit_identical_to_the_portable_loop() {
    mixq_telemetry::set_enabled(true);
    mixq_telemetry::reset();
    set_parallel_row_threshold(0);

    let mut s = Sm(0x5EED);
    for (rows, cols) in [(0, 0), (0, 7), (7, 0), (9, 9)] {
        let empty = CsrMatrix::from_parts(rows, cols, vec![0; rows + 1], vec![], vec![]);
        check(&empty, &mut s, "no non-zeros");
    }

    Config::new("spmm_f32_arm")
        .cases(48)
        .run(&cases(), |(g, seed)| {
            let mut s = Sm(*seed as u64);
            // Rows are source nodes (isolated ones empty); the transpose's
            // rows are destinations, where the skew piles edges onto hubs.
            let a = g.to_csr().map_values(|_, _, v| {
                if s.next().is_multiple_of(8) {
                    s.seasoned()
                } else {
                    v
                }
            });
            check(&a, &mut s, "graph");
            check(&a.transpose(), &mut s, "transposed graph");
        });

    let rep = mixq_telemetry::snapshot();
    let took = rep
        .counters
        .iter()
        .find(|(k, _)| k == "sparse.spmm_f32.avx512_path")
        .map_or(0, |&(_, v)| v);
    if avx512_host() {
        assert!(took > 0, "the AVX-512 arm never ran on an avx512f host");
    } else {
        assert_eq!(took, 0, "the AVX-512 arm ran on a host without avx512f");
    }
    mixq_telemetry::set_enabled(false);
}
