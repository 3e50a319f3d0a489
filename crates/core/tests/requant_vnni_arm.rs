//! The AVX-512 VNNI arm of `int_matmul_requant` against the same product
//! without it (`int_matmul_requant_portable`), bit for bit: inner
//! dimensions around the 4-term quad, output widths around the 16-lane
//! block and the 4-block tile, row counts that are not a multiple of the
//! 4-row tile (also split across threads), zero points at both ends of
//! their range, the eligibility edges of the activation span and the weight
//! codes, and a product at the `i32` bound whose `Σ u·w` wraps.
//!
//! Which arm ran is read from the `qinfer.requant.vnni_path` telemetry
//! counter. On a host without the instructions no case may take the arm.
//!
//! Everything lives in one `#[test]`, because telemetry and the thread
//! settings are process-global.

use mixq_core::{int_matmul_requant, int_matmul_requant_portable, QTensor};
use mixq_tensor::{QuantParams, Rng};

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

fn vnni_calls() -> u64 {
    mixq_telemetry::snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == "qinfer.requant.vnni_path")
        .map_or(0, |(_, v)| *v)
}

/// An 8-bit quantizer (`[-128, 127]`) of unit scale with zero point `z`.
fn qp8(z: i32) -> QuantParams {
    QuantParams {
        scale: 1.0,
        zero_point: z,
        qmin: -128,
        qmax: 127,
        bits: 8,
    }
}

/// `rows × cols` codes uniform in `lo..=hi`, with both ends present.
fn codes(
    rng: &mut Rng,
    rows: usize,
    cols: usize,
    (lo, hi): (i32, i32),
    qp: QuantParams,
) -> QTensor {
    let span = (hi - lo + 1) as usize;
    let mut data: Vec<i32> = (0..rows * cols)
        .map(|_| lo + rng.gen_range(span) as i32)
        .collect();
    if data.len() >= 2 {
        let n = data.len();
        data[rng.gen_range(n / 2)] = lo;
        data[n / 2 + rng.gen_range(n - n / 2)] = hi;
    }
    QTensor {
        rows,
        cols,
        data,
        qp,
    }
}

/// Runs both products, asserts that they agree code for code and that the
/// dispatching one took the VNNI arm iff `arm` (and the host has it).
fn check(
    x: &QTensor,
    w: &QTensor,
    bias: Option<&[f32]>,
    out_qp: QuantParams,
    arm: bool,
    what: &str,
) {
    let before = vnni_calls();
    let got = int_matmul_requant(x, w, bias, out_qp);
    let took = vnni_calls() > before;
    assert_eq!(took, arm && vnni_host(), "{what}: wrong arm");
    let want = int_matmul_requant_portable(x, w, bias, out_qp);
    assert_eq!(got.data, want.data, "{what}: arms diverged");
}

#[test]
fn vnni_requant_arm_is_bit_identical_to_the_portable_arms() {
    mixq_telemetry::set_enabled(true);
    let mut rng = Rng::seed_from_u64(0x7E57);
    let ends = [-128, 127];
    // A zero point at an end of its range makes `|x − zx|` and `|w − zw|`
    // about 128 on average: an output scale of 300 per inner term keeps
    // most output codes inside the 8-bit clip.
    let out = |k: usize| QuantParams {
        scale: 300.0 * k.max(1) as f32,
        ..qp8(-3)
    };

    for k in [0usize, 1, 3, 4, 5, 63, 64, 65, 180] {
        for m in [1usize, 7, 12, 15, 16, 17, 31, 32, 33, 63, 64, 65, 80] {
            for (case, rows) in [1usize, 6, 9].into_iter().enumerate() {
                let (zx, zw) = (ends[case % 2], ends[(case / 2 + m) % 2]);
                // Activation codes spanning exactly 255 and weight codes
                // reaching -128 and 127 take the arm.
                let x = codes(&mut rng, rows, k, (-128, 127), qp8(zx));
                let w = codes(&mut rng, k, m, (-128, 127), qp8(zw));
                let bias: Vec<f32> = (0..m).map(|j| j as f32 * 37.0 - 500.0).collect();
                let bias = (k % 2 == 0).then_some(bias.as_slice());
                let what = format!("{rows}×{k}·{k}×{m}, zx={zx}, zw={zw}");
                check(&x, &w, bias, out(k), true, &what);
            }
        }
    }

    // Row chunks split across threads start at rows that are not a
    // multiple of the tile.
    mixq_parallel::set_num_threads(3);
    mixq_parallel::set_parallel_row_threshold(0);
    for (rows, m) in [(301usize, 7usize), (298, 64), (37, 80)] {
        let x = codes(&mut rng, rows, 65, (-128, 127), qp8(-128));
        let w = codes(&mut rng, 65, m, (-128, 127), qp8(127));
        check(
            &x,
            &w,
            None,
            out(65),
            true,
            &format!("{rows} rows at 3 threads, m={m}"),
        );
    }
    mixq_parallel::set_num_threads(1);

    // An activation span of 256 falls back, and so does a weight code of
    // 128 (under a 16-bit quantizer); codes spanning 255 anywhere in the
    // `i32` range take the arm.
    let qp16 = |z| QuantParams {
        scale: 1.0,
        zero_point: z,
        qmin: -32768,
        qmax: 32767,
        bits: 16,
    };
    for m in [7usize, 64] {
        let w8 = codes(&mut rng, 64, m, (-128, 127), qp8(5));
        for (range, arm) in [
            ((-128, 128), false),
            ((1000, 1255), true),
            ((-900, -645), true),
        ] {
            let x = codes(&mut rng, 9, 64, range, qp16(range.0 + 7));
            check(
                &x,
                &w8,
                None,
                out(64),
                arm,
                &format!("x in {range:?}, m={m}"),
            );
        }
        let x = codes(&mut rng, 9, 64, (-128, 127), qp8(0));
        for (range, arm) in [
            ((-128, 127), true),
            ((-127, 128), false),
            ((-129, 0), false),
        ] {
            let w = codes(&mut rng, 64, m, range, qp16(0));
            check(
                &x,
                &w,
                None,
                out(64),
                arm,
                &format!("w in {range:?}, m={m}"),
            );
        }
    }

    // The `i32` bound with `x − zx` up to 255 and `w − zw` up to 127:
    // 66311 inner terms give 66311·255·127 = i32::MAX − 1912. Row 1
    // (`x = -128`, `x − zx = -255`, `u = 0`) against weights of -128 at
    // `zw = -1` sums to exactly i32::MAX with a bias of 1912. Row 0
    // (`x = 127 = zx`, `u = 255`) sums to the bias alone, while its
    // `Σ u·w = -66311·255·128` wraps past i32::MIN. A bias of 1913 puts the
    // bound past `i32` and the product on the `i64` arm.
    let k = 66_311;
    let mut data = vec![127i32; k];
    data.extend(vec![-128; k]);
    data.extend((0..k).map(|i| if i % 3 == 0 { -128 } else { 127 }));
    let x = QTensor {
        rows: 3,
        cols: k,
        data,
        qp: qp8(127),
    };
    let wide_out = QuantParams {
        scale: 131_072.0,
        ..qp16(0)
    };
    for m in [1usize, 17] {
        let w = QTensor {
            rows: k,
            cols: m,
            data: vec![-128; k * m],
            qp: qp8(-1),
        };
        for (b, arm) in [(1912.0f32, true), (1913.0, false)] {
            let bias = vec![b; m];
            let what = format!("i32 bound, m={m}, bias={b}");
            check(&x, &w, Some(&bias), wide_out, arm, &what);
            let got = int_matmul_requant(&x, &w, Some(&bias), wide_out).data;
            assert_eq!(got[m], 16384, "{what}: (i32::MAX or one past) / 2^17");
            assert_eq!(got[0], 0, "{what}: the bias alone rounds to 0");
        }
    }
    mixq_telemetry::set_enabled(false);
}
