//! Property tests: the parallel SpMM kernels are bit-identical to the
//! serial kernels for random shapes at 1–8 threads, including matrices
//! with empty rows, a single row, and zero columns; and the fused
//! Theorem-1 aggregation (`quantized_spmm` over [`spmm_rows`]) equals the
//! two-pass form it replaced at 1, 2 and 4 threads, on the SIMD arm of the
//! row kernel (where the host has it) and on the portable arms.
//!
//! Everything lives in one `#[test]` because the thread count and the
//! serial-fallback threshold are process-wide knobs; separate tests would
//! race on them.

use std::sync::atomic::{AtomicU32, Ordering};

use mixq_core::{quantized_spmm, quantized_spmm_portable, QmpParams};
use mixq_parallel::{set_num_threads, set_parallel_row_threshold};
use mixq_proptest::{graph, usize_in, Config, Gen, GraphConfig};
use mixq_sparse::{spmm_int, spmm_rows, CooEntry, CsrMatrix, QuantCsr};

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
}

/// Random CSR with deliberately skewed structure: some rows dense-ish,
/// many rows empty (degree skew is the regime Degree-Quant identifies as
/// the SpMM bottleneck).
fn random_csr(s: &mut Sm, rows: usize, cols: usize) -> CsrMatrix {
    let mut entries = Vec::new();
    for r in 0..rows {
        // ~half the rows stay empty; the rest get up to `cols` entries.
        if s.below(2) == 0 {
            continue;
        }
        let deg = 1 + s.below(cols);
        for _ in 0..deg {
            entries.push(CooEntry {
                row: r,
                col: s.below(cols),
                val: (s.below(17) as i32 - 8) as f32 * 0.25,
            });
        }
    }
    CsrMatrix::from_coo(rows, cols, entries)
}

#[test]
fn parallel_spmm_bit_identical_to_serial() {
    // Force the threaded path even for tiny shapes.
    set_parallel_row_threshold(0);

    let shapes = [
        (1usize, 5usize),
        (2, 2),
        (7, 3),
        (16, 16),
        (33, 8),
        (64, 40),
    ];
    for (case, &(rows, cols)) in shapes.iter().enumerate() {
        let mut s = Sm(0xC0FFEE + case as u64);
        let a = random_csr(&mut s, rows, cols);
        for fdim in [1usize, 3, 8] {
            let x: Vec<f32> = (0..cols * fdim)
                .map(|_| (s.below(41) as i32 - 20) as f32 * 0.125)
                .collect();
            let xi: Vec<i32> = (0..cols * fdim)
                .map(|_| s.below(255) as i32 - 127)
                .collect();
            let q = QuantCsr::from_csr(&a, 8, |_, _, v| (v * 4.0) as i32);

            set_num_threads(1);
            let y_serial = a.spmm(&x, fdim);
            let yi_serial = spmm_int(&q, &xi, fdim);

            for threads in 2..=8usize {
                set_num_threads(threads);
                let y_par = a.spmm(&x, fdim);
                // f32 bit-identity, not approximate equality.
                assert!(
                    y_serial
                        .iter()
                        .zip(&y_par)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "f32 spmm diverged: shape {rows}×{cols}, fdim {fdim}, {threads} threads"
                );
                let yi_par = spmm_int(&q, &xi, fdim);
                assert_eq!(
                    yi_serial, yi_par,
                    "int spmm diverged: shape {rows}×{cols}, fdim {fdim}, {threads} threads"
                );
            }
        }
    }

    // Degenerate cases: empty matrix, single empty row, zero feature dim.
    set_num_threads(8);
    let empty = CsrMatrix::from_coo(4, 4, Vec::new());
    assert!(empty.spmm(&[1.0; 8], 2).iter().all(|&v| v == 0.0));
    let one_row = CsrMatrix::from_coo(
        1,
        3,
        vec![CooEntry {
            row: 0,
            col: 1,
            val: 2.0,
        }],
    );
    assert_eq!(one_row.spmm(&[1.0, 3.0, 5.0], 1), vec![6.0]);
    let q = QuantCsr::from_csr(&one_row, 8, |_, _, v| v as i32);
    assert_eq!(spmm_int(&q, &[0i32; 0], 0), Vec::<i64>::new());

    // Codes of at most 8 bits take the SIMD arm where the host has it; the
    // counters show that the fused checks ran on every arm (unless a
    // proptest override shrank the case set).
    mixq_telemetry::set_enabled(true);
    mixq_telemetry::reset();
    fused_theorem1_matches_two_pass_at_1_2_4_threads();
    let rep = mixq_telemetry::snapshot();
    mixq_telemetry::set_enabled(false);
    let fired = |arm: &str| {
        rep.counters
            .iter()
            .any(|(k, v)| *k == format!("qcsr.spmm.{arm}_path") && *v > 0)
    };
    if std::env::var("MIXQ_PT_CASES").is_err() && std::env::var("MIXQ_PT_SEED").is_err() {
        assert!(fired("i32") && fired("i64"), "a portable arm never ran");
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512vnni") && is_x86_feature_detected!("avx512bw") {
            assert!(fired("vnni"), "no fused case took the SIMD arm");
        }
    }

    // Restore defaults for any later test in this binary.
    set_num_threads(1);
    set_parallel_row_threshold(mixq_parallel::DEFAULT_ROW_THRESHOLD);
}

/// The sparse Theorem-1 form before fusion, kept test-local so that it
/// shares no code with the kernel under test: the integer product in `i64`,
/// the row sums as a separate pass, then the `f64` correction per element.
fn two_pass(qa: &QuantCsr, qx: &[i32], f: usize, p: &QmpParams) -> Vec<i32> {
    let mut out = vec![0i32; qa.rows() * f];
    for i in 0..qa.rows() {
        let mut prod = vec![0i64; f];
        let mut row_sum = 0i64;
        for (c, v) in qa.row(i) {
            row_sum += v as i64;
            for (j, acc) in prod.iter_mut().enumerate() {
                *acc += v as i64 * qx[c * f + j] as i64;
            }
        }
        for j in 0..f {
            let corrected = prod[j] - p.zx[j] as i64 * row_sum;
            let real = p.sa[i] as f64 * p.sx[j] as f64 * corrected as f64 / p.sy[j] as f64;
            let q = real.round_ties_even() as i64 + p.zy[j] as i64;
            out[i * f + j] = q.clamp(p.y_qmin as i64, p.y_qmax as i64) as i32;
        }
    }
    out
}

/// Hub-heavy graphs with isolated nodes, code widths {2, 4, 8, 16} for the
/// adjacency and the activations (16 × 16 on a hub row takes the `i64`
/// accumulators), activation zero points at `qmin` or `qmax`, and 16-bit
/// cases with every code at its largest magnitude.
fn fused_theorem1_matches_two_pass_at_1_2_4_threads() {
    let cfg = GraphConfig {
        min_nodes: 1,
        max_nodes: 80,
        max_degree: 16,
        degree_alpha: 3.0,
        isolated_frac: 0.3,
        self_loops: true,
        val_lo: -1.0,
        val_hi: 1.0,
    };
    let width = Gen::one_of(vec![2u8, 4, 8, 16]);
    // Every narrow width, and the SIMD arm's 64-column block with the
    // edges of its partial last block.
    let cols = Gen::one_of(
        (1usize..=12)
            .chain([15, 16, 17, 47, 48, 63, 64, 65])
            .collect(),
    );
    let gen = graph(cfg)
        .zip(&cols)
        .zip(&width.zip(&width))
        .zip(&usize_in(0, 1 << 20));
    Config::new("parallel_theorem1")
        .cases(64)
        .run(&gen, |&(((ref g, f), (ab, xb)), seed)| {
            let n = g.nodes;
            let mut s = Sm(seed as u64);
            // One seed in three puts every 16-bit code at its largest
            // magnitude, so a row of three or more edges reaches the bound
            // that moves it to `i64` accumulators.
            let extreme = seed % 3 == 0;
            let (ab, xb) = if extreme { (16, 16) } else { (ab, xb) };
            let amax = (1i32 << (ab - 1)) - 1;
            let qa = QuantCsr::from_csr(&g.to_csr(), ab, |_, _, v| {
                if extreme {
                    amax
                } else {
                    ((v * amax as f32).round_ties_even() as i32).clamp(-amax, amax)
                }
            });
            let (xqmin, xqmax) = (-(1i32 << (xb - 1)), (1i32 << (xb - 1)) - 1);
            let span = (xqmax - xqmin + 1) as usize;
            let qx: Vec<i32> = (0..n * f)
                .map(|_| if extreme { xqmin } else { xqmin + s.below(span) as i32 })
                .collect();
            let zx = if seed % 2 == 0 { xqmin } else { xqmax };
            let unit = |s: &mut Sm| (1 + s.below(1000)) as f32 / 1000.0;
            let p = QmpParams {
                sa: (0..n).map(|_| unit(&mut s)).collect(),
                za: vec![0; n],
                sx: (0..f).map(|_| unit(&mut s)).collect(),
                zx: vec![zx; f],
                sy: (0..f)
                    .map(|_| unit(&mut s) * amax as f32 * xqmax as f32 / 127.0)
                    .collect(),
                zy: (0..f).map(|_| s.below(21) as i32 - 10).collect(),
                y_qmin: -128,
                y_qmax: 127,
            };
            set_num_threads(1);
            let want = two_pass(&qa, &qx, f, &p);
            for threads in [1, 2, 4] {
                set_num_threads(threads);
                assert_eq!(
                    quantized_spmm(&qa, &qx, f, &p),
                    want,
                    "fused Theorem-1 diverged at {threads} threads (nodes={n}, f={f}, bits a{ab} x{xb})"
                );
                assert_eq!(
                    quantized_spmm_portable(&qa, &qx, f, &p),
                    want,
                    "portable Theorem-1 diverged at {threads} threads (nodes={n}, f={f}, bits a{ab} x{xb})"
                );
            }
            // The row kernel hands every row to the epilogue exactly once,
            // whatever the partition.
            let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            spmm_rows(&qa, &qx, f, &mut vec![0i64; n * f], |r, _, _, _| {
                seen[r].fetch_add(1, Ordering::Relaxed);
            });
            assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        });
}
