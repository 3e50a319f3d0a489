//! Property tests: the register-tiled GEMM kernels are bit-identical to
//! the unblocked kernels over generated shapes — including dimensions that
//! are not multiples of the tile (every row/column remainder path), shapes
//! straddling the tiled-dispatch threshold, seeded exact zeros (the
//! `a == 0` skip must fire identically in both kernels), and IEEE special
//! values that make any reordering or masked-multiply shortcut visible.
//!
//! One `#[test]`: the thread count and serial-fallback threshold are
//! process-wide knobs, and parallel dispatch is part of what is compared.

use mixq_proptest::{f32_in, usize_in, Config, Gen};
use mixq_tensor::{set_num_threads, Matrix, Rng};

#[derive(Clone, Debug)]
struct GemmCase {
    m: usize,
    k: usize,
    n: usize,
    /// Per-mille rate of exact-zero entries seeded into `A`.
    zero_permille: usize,
    seed: u64,
    /// Whether ±0.0 / ±inf / NaN are sprinkled into both operands.
    specials: bool,
}

fn gemm_case() -> Gen<GemmCase> {
    // 1..=68 straddles both the tile edges (4 and the widest TILE_N) and,
    // together with k, the TILE_MIN_MACS dispatch threshold.
    usize_in(1, 68)
        .zip(&usize_in(1, 48))
        .zip(&usize_in(1, 68))
        .zip(&usize_in(0, 400))
        .zip(&f32_in(0.0, 1.0))
        .map(|&((((m, k), n), zero_permille), sp)| GemmCase {
            m,
            k,
            n,
            zero_permille,
            seed: (m * 73 + k * 31 + n) as u64,
            specials: sp > 0.7,
        })
}

/// Deterministic operand with seeded zeros and (optionally) IEEE specials.
fn operand(rows: usize, cols: usize, c: &GemmCase, salt: u64) -> Matrix {
    let mut rng = Rng::seed_from_u64(c.seed ^ salt);
    let specials = [-0.0f32, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    Matrix::from_fn(rows, cols, |_, _| {
        let draw = rng.gen_range(1000);
        if draw < c.zero_permille {
            0.0
        } else if c.specials && draw >= 995 {
            specials[rng.gen_range(specials.len())]
        } else {
            rng.normal()
        }
    })
}

/// NaN-aware bitwise comparison: all NaN payloads count as equal (the two
/// kernels may legitimately produce differently-signed NaNs only if they
/// multiplied different operands — which would also differ elsewhere — so
/// collapsing NaNs keeps the check strict without asserting payload bits
/// the IEEE standard leaves open).
fn bits(m: &Matrix) -> Vec<u32> {
    m.data()
        .iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

/// `matmul_a_bt` runs `matmul`'s tiled kernel on a transposed `B` with the
/// `a == 0` skip compiled out. Zeros of `A` facing ±inf or NaN in `B` must
/// still produce the reference's NaN, on output widths that straddle every
/// tile edge.
fn matmul_a_bt_keeps_zero_times_inf_on_tile_edges() {
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        for n in [
            1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129,
        ] {
            let (m, k) = (37, 40);
            let a = Matrix::from_fn(m, k, |r, c| {
                if (r + 2 * c) % 5 == 0 {
                    0.0
                } else {
                    ((r * 7 + c * 3) % 11) as f32 * 0.3 - 1.5
                }
            });
            let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
            let b = Matrix::from_fn(n, k, |r, c| {
                if (r + c) % 9 == 0 {
                    specials[(r + c) % 3]
                } else {
                    ((r * 5 + c) % 13) as f32 * 0.17 - 1.0
                }
            });
            let (got, want) = (a.matmul_a_bt(&b), a.matmul_a_bt_unblocked(&b));
            assert_eq!(bits(&got), bits(&want), "n={n} t={threads}");
            assert!(want.data().iter().any(|v| v.is_nan()), "n={n}: no NaN");
        }
    }
    set_num_threads(1);
}

#[test]
fn fuzz_tiled_kernels_bit_identical_to_unblocked() {
    Config::new("tiled_fuzz").cases(160).run(&gemm_case(), |c| {
        let ctx = format!(
            "m={} k={} n={} zeros={}‰ specials={}",
            c.m, c.k, c.n, c.zero_permille, c.specials
        );
        let a = operand(c.m, c.k, c, 0xA);
        let b = operand(c.k, c.n, c, 0xB);
        let at = operand(c.k, c.m, c, 0xAA); // for AᵀB: (k×m)ᵀ · (k×n)
        let bt = operand(c.n, c.k, c, 0xBB); // for ABᵀ: (m×k) · (n×k)ᵀ

        for threads in [1usize, 4] {
            set_num_threads(threads);
            assert_eq!(
                bits(&a.matmul(&b)),
                bits(&a.matmul_unblocked(&b)),
                "{ctx} t={threads}: matmul diverged"
            );
            assert_eq!(
                bits(&at.matmul_at_b(&b)),
                bits(&at.matmul_at_b_unblocked(&b)),
                "{ctx} t={threads}: matmul_at_b diverged"
            );
            assert_eq!(
                bits(&a.matmul_a_bt(&bt)),
                bits(&a.matmul_a_bt_unblocked(&bt)),
                "{ctx} t={threads}: matmul_a_bt diverged"
            );
        }
        set_num_threads(1);
    });
    matmul_a_bt_keeps_zero_times_inf_on_tile_edges();
}
