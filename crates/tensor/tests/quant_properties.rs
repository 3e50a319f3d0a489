//! Property-based tests of the quantization primitives.
//!
//! The older suites below randomize with the workspace's seeded [`Rng`]
//! directly; the edge-case suites at the bottom use the in-repo
//! `mixq-proptest` framework (generators + shrinking + `MIXQ_PT_SEED`
//! replay). No external dev-dependencies either way: the build environment
//! is offline.

use mixq_proptest::{f32_with_specials, Config, F32_SPECIALS};
use mixq_tensor::{QuantParams, Rng};

const CASES: u64 = 256;

/// The vectorizable `QuantParams::fake` (and its slice form `fake_each`)
/// against the integer round trip it replaced, `dequantize(quantize(x))`,
/// bit for bit: on every IEEE special and on random values, at every width
/// on both sides of the `f32`-exact limit, with zero points at `qmin` and
/// `qmax` and with symmetric and identity parameters.
#[test]
fn fake_is_bit_identical_to_the_integer_round_trip() {
    let mut rng = Rng::seed_from_u64(0x5FA);
    for bits in [2u8, 4, 8, 16, 23, 24, 32] {
        let (qmin, qmax) = QuantParams::int_range(bits);
        let affine = QuantParams::from_min_max(-1.7, 3.1, bits);
        let mut qps = vec![
            affine,
            QuantParams::symmetric(-0.9, 2.5, bits),
            QuantParams::identity(bits),
        ];
        for zero_point in [qmin, qmax] {
            qps.push(QuantParams {
                zero_point,
                ..affine
            });
        }
        for qp in qps {
            let mut xs: Vec<f32> = F32_SPECIALS.to_vec();
            let (lo, hi) = qp.real_range();
            let span = (hi - lo).clamp(1e-3, 1e30);
            xs.extend((0..512).map(|_| lo + rng.uniform_in(-0.25, 1.25) * span));
            xs.extend([qp.scale * 0.5, -qp.scale * 0.5, qp.scale * 1.5, 1e9, -1e9]);
            let want: Vec<u32> = (xs.iter())
                .map(|&x| qp.dequantize(qp.quantize(x)).to_bits())
                .collect();
            let got: Vec<u32> = xs.iter().map(|&x| qp.fake(x).to_bits()).collect();
            assert_eq!(got, want, "fake, {qp:?}");
            let mut out = vec![0f32; xs.len()];
            qp.fake_each(&xs, &mut out, |o, q| *o = q);
            let each: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(each, want, "fake_each, {qp:?}");
        }
    }
}

/// Quantize→dequantize error is bounded by half a step inside the
/// representable range.
#[test]
fn round_trip_error_bounded() {
    let mut rng = Rng::seed_from_u64(0x51);
    for _ in 0..CASES {
        let lo = rng.uniform_in(-100.0, 0.0);
        let span = rng.uniform_in(0.1, 200.0);
        let bits = 2 + rng.gen_range(7) as u8;
        let t = rng.uniform_in(0.0, 1.0);
        let qp = QuantParams::from_min_max(lo, lo + span, bits);
        let (rlo, rhi) = qp.real_range();
        let x = rlo + t * (rhi - rlo);
        let err = (qp.fake(x) - x).abs();
        assert!(
            err <= qp.scale * 0.5 + 1e-5,
            "err {} > half-scale {}",
            err,
            qp.scale * 0.5
        );
    }
}

/// Fake quantization is idempotent: quantizing a quantized value is a no-op.
#[test]
fn fake_quant_idempotent() {
    let mut rng = Rng::seed_from_u64(0x52);
    for _ in 0..CASES {
        let x = rng.uniform_in(-50.0, 50.0);
        let bits = 2 + rng.gen_range(7) as u8;
        let qp = QuantParams::from_min_max(-10.0, 10.0, bits);
        let once = qp.fake(x);
        assert_eq!(qp.fake(once), once, "x={x} bits={bits}");
    }
}

/// Quantization is monotone: x ≤ y ⇒ Q(x) ≤ Q(y).
#[test]
fn quantize_is_monotone() {
    let mut rng = Rng::seed_from_u64(0x53);
    for _ in 0..CASES {
        let a = rng.uniform_in(-20.0, 20.0);
        let b = rng.uniform_in(-20.0, 20.0);
        let bits = 2 + rng.gen_range(7) as u8;
        let qp = QuantParams::from_min_max(-5.0, 5.0, bits);
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        assert!(qp.quantize(x) <= qp.quantize(y), "x={x} y={y} bits={bits}");
    }
}

/// Codes always land in [qmin, qmax] no matter the input, including huge
/// magnitudes and exact powers of two.
#[test]
fn codes_in_range() {
    let mut rng = Rng::seed_from_u64(0x54);
    for i in 0..CASES {
        // Mix uniform draws with extreme magnitudes.
        let x = match i % 4 {
            0 => rng.uniform_in(-1e6, 1e6),
            1 => rng.uniform_in(-1.0, 1.0) * 1e30,
            2 => rng.uniform_in(-1e-30, 1e-30),
            _ => {
                (2f32).powi(rng.gen_range(60) as i32 - 30)
                    * if rng.bernoulli(0.5) { 1.0 } else { -1.0 }
            }
        };
        let bits = 2 + rng.gen_range(7) as u8;
        let qp = QuantParams::from_min_max(-1.0, 1.0, bits);
        let q = qp.quantize(x);
        assert!(q >= qp.qmin && q <= qp.qmax, "x={x} bits={bits} q={q}");
    }
}

/// More bits never increase the round-trip error for in-range values.
#[test]
fn wider_is_never_worse() {
    let mut rng = Rng::seed_from_u64(0x55);
    for _ in 0..CASES {
        // Use the symmetric interior to avoid edge-of-range clipping noise.
        let t = rng.uniform_in(0.02, 0.98);
        let x = -1.0 + 2.0 * t;
        let mut last = f32::INFINITY;
        for bits in [2u8, 4, 8, 16] {
            let qp = QuantParams::from_min_max(-1.0, 1.0, bits);
            let err = (qp.fake(x) - x).abs();
            assert!(
                err <= last + 1e-6,
                "error grew from {last} to {err} at {bits} bits"
            );
            last = err;
        }
    }
}

/// Symmetric quantizers map 0 to code 0 exactly.
#[test]
fn symmetric_zero_code() {
    let mut rng = Rng::seed_from_u64(0x56);
    for _ in 0..CASES {
        let lo = rng.uniform_in(-10.0, -0.1);
        let hi = rng.uniform_in(0.1, 10.0);
        let bits = 2 + rng.gen_range(7) as u8;
        let qp = QuantParams::symmetric(lo, hi, bits);
        assert_eq!(qp.quantize(0.0), 0);
        assert_eq!(qp.fake(0.0), 0.0);
    }
}

// ---- mixq-proptest edge-case suites -----------------------------------------

/// Every constructed quantizer must be well-formed: positive finite scale,
/// zero point inside the code range, zero exactly representable.
fn assert_well_formed(qp: &QuantParams, ctx: &str) {
    assert!(
        qp.scale.is_finite() && qp.scale > 0.0,
        "{ctx}: scale {} must be positive finite",
        qp.scale
    );
    assert!(
        qp.qmin <= qp.zero_point && qp.zero_point <= qp.qmax,
        "{ctx}: zero point {} outside [{}, {}]",
        qp.zero_point,
        qp.qmin,
        qp.qmax
    );
    assert_eq!(qp.fake(0.0), 0.0, "{ctx}: zero must round-trip exactly");
}

/// `from_min_max` over endpoints drawn with NaN/±inf/subnormal/extreme
/// specials mixed in: the constructor must sanitize every combination into
/// a usable quantizer — never an inf/NaN scale, never a panic.
#[test]
fn fuzz_from_min_max_survives_special_endpoints() {
    let endpoint = f32_with_specials(-1e30, 1e30, 0.4);
    let gen = endpoint.zip(&endpoint).zip(&mixq_proptest::bits());
    Config::new("quant_edges")
        .cases(192)
        .run(&gen, |&((lo, hi), bits)| {
            let qp = QuantParams::from_min_max(lo, hi, bits);
            let ctx = format!("from_min_max({lo}, {hi}, {bits})");
            assert_well_formed(&qp, &ctx);
            // The quantizer must also *work*: codes clamp, dequantization
            // of every representable code is finite.
            for x in [lo, hi, 0.0, 1.0, -1.0] {
                if x.is_finite() {
                    let q = qp.quantize(x);
                    assert!(q >= qp.qmin && q <= qp.qmax, "{ctx}: code {q} escaped");
                }
            }
            assert!(qp.dequantize(qp.qmin).is_finite(), "{ctx}");
            assert!(qp.dequantize(qp.qmax).is_finite(), "{ctx}");
        });
}

/// Degenerate ranges: `min == max` (including exactly 0, subnormals, and
/// large magnitudes) must widen to a positive scale and keep the
/// single-valued input within one step.
#[test]
fn fuzz_from_min_max_degenerate_single_value_ranges() {
    let v = f32_with_specials(-1e6, 1e6, 0.3);
    let gen = v.zip(&mixq_proptest::bits());
    Config::new("quant_degenerate")
        .cases(192)
        .run(&gen, |&(v, bits)| {
            let qp = QuantParams::from_min_max(v, v, bits);
            let ctx = format!("from_min_max({v}, {v}, {bits})");
            assert_well_formed(&qp, &ctx);
            if v.is_finite() {
                // A single-value range still contains 0 by construction, so
                // the representable span is [min(v,0), max(v,0)]: the value
                // itself must survive within one step (or clip to the edge
                // for magnitudes beyond f32 scale resolution).
                let fake = qp.fake(v);
                assert!(fake.is_finite(), "{ctx}: fake({v}) = {fake}");
            }
        });
}

/// The documented special values, pairwise, through every menu bit-width —
/// the exhaustive corner sweep the generators only sample.
#[test]
fn from_min_max_exhaustive_special_pairs() {
    for &lo in F32_SPECIALS.iter() {
        for &hi in F32_SPECIALS.iter() {
            for &bits in &[2u8, 4, 8, 16, 32] {
                let qp = QuantParams::from_min_max(lo, hi, bits);
                assert_well_formed(&qp, &format!("from_min_max({lo}, {hi}, {bits})"));
            }
        }
    }
}
