//! Affine per-tensor quantization parameters.
//!
//! A quantizer maps reals to integers as `Q(x) = clip(⌊x/S⌉ + Z, qmin, qmax)`
//! and back as `Q⁻¹(q) = (q − Z)·S` (Eqs. 3–4 of the paper). This struct is
//! shared between the autograd fake-quantization ops (training) and the
//! integer inference engine, so both paths use bit-identical rounding.

/// Parameters of one affine per-tensor quantizer.
///
/// ```
/// use mixq_tensor::QuantParams;
/// let qp = QuantParams::from_min_max(-1.0, 1.0, 8);
/// let code = qp.quantize(0.5);
/// assert!((qp.dequantize(code) - 0.5).abs() <= qp.scale / 2.0);
/// assert_eq!(qp.fake(0.0), 0.0); // zero is always exactly representable
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Scale `S` (step size between representable values). Always > 0.
    pub scale: f32,
    /// Zero point `Z`: the integer that represents real 0.
    pub zero_point: i32,
    /// Smallest representable integer (e.g. −128 for signed INT8).
    pub qmin: i32,
    /// Largest representable integer (e.g. 127 for signed INT8).
    pub qmax: i32,
    /// Logical bit-width, kept for cost accounting.
    pub bits: u8,
}

impl QuantParams {
    /// Signed symmetric integer range for `bits`, e.g. 8 → [−128, 127].
    pub fn int_range(bits: u8) -> (i32, i32) {
        assert!((2..=32).contains(&bits), "bit-width {bits} unsupported");
        if bits == 32 {
            return (i32::MIN, i32::MAX);
        }
        (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    }

    /// Builds parameters covering `[min, max]` with an asymmetric (affine)
    /// mapping. Degenerate ranges are widened so the scale stays positive,
    /// and non-finite endpoints (NaN from an empty reduction, ±inf from an
    /// upstream overflow) are sanitized instead of poisoning the scale:
    /// NaN collapses to 0, infinities saturate to the largest finite
    /// magnitude. The returned scale is always finite and > 0.
    pub fn from_min_max(mut min: f32, mut max: f32, bits: u8) -> Self {
        let (qmin, qmax) = Self::int_range(bits);
        if min.is_nan() {
            min = 0.0;
        }
        if max.is_nan() {
            max = 0.0;
        }
        min = min.clamp(f32::MIN, f32::MAX);
        max = max.clamp(f32::MIN, f32::MAX);
        if min > max {
            std::mem::swap(&mut min, &mut max);
        }
        // The range must contain zero so that 0.0 is exactly representable
        // (standard requirement: padding/zero messages stay exact).
        min = min.min(0.0);
        max = max.max(0.0);
        if max - min < 1e-12 {
            max = min + 1e-6;
        }
        // Widen before subtracting: for bits = 32, `qmax - qmin` overflows
        // i32 (i32::MAX − i32::MIN), panicking in debug builds.
        let mut scale = ((max as f64 - min as f64) / (qmax as i64 - qmin as i64) as f64) as f32;
        if !(scale.is_finite() && scale > 0.0) {
            // A span narrow enough (or wide enough) that the f64→f32 cast
            // lands on 0 or inf; saturate to the nearest positive normal.
            scale = if scale == 0.0 {
                f32::MIN_POSITIVE
            } else {
                f32::MAX
            };
        }
        // Near-f32::MAX spans can round the scale up just enough that the
        // extreme code dequantizes past f32::MAX to inf; nudge the scale
        // down one ULP at a time until the whole code range reconstructs
        // finite (one step suffices in practice).
        let span_codes = (qmax as i64 - qmin as i64) as f32;
        while !(span_codes * scale).is_finite() {
            scale = f32::from_bits(scale.to_bits() - 1);
        }
        let zero_point = (qmin as f32 - min / scale)
            .round()
            .clamp(qmin as f32, qmax as f32) as i32;
        Self {
            scale,
            zero_point,
            qmin,
            qmax,
            bits,
        }
    }

    /// Builds symmetric parameters (`Z = 0`) covering `[−a, a]` where
    /// `a = max(|min|, |max|)`. Preferred for weights.
    pub fn symmetric(min: f32, max: f32, bits: u8) -> Self {
        let (qmin, qmax) = Self::int_range(bits);
        let a = min.abs().max(max.abs()).max(1e-8);
        let scale = a / qmax as f32;
        Self {
            scale,
            zero_point: 0,
            qmin,
            qmax,
            bits,
        }
    }

    /// Identity-like parameters used when a component is left unquantized
    /// (`S = 1`, `Z = 0`), as recommended for inter-layer outputs (§4).
    pub fn identity(bits: u8) -> Self {
        let (qmin, qmax) = Self::int_range(bits);
        Self {
            scale: 1.0,
            zero_point: 0,
            qmin,
            qmax,
            bits,
        }
    }

    /// `Q(x)`: quantize one real value to its integer code.
    #[inline]
    pub fn quantize(&self, x: f32) -> i32 {
        let q = (x / self.scale).round_ties_even() + self.zero_point as f32;
        (q.clamp(self.qmin as f32, self.qmax as f32)) as i32
    }

    /// `Q⁻¹(q)`: map an integer code back to its real value.
    #[inline]
    pub fn dequantize(&self, q: i32) -> f32 {
        // Widen: `q - Z` overflows i32 when bits = 32 and Z sits near qmin.
        (q as i64 - self.zero_point as i64) as f32 * self.scale
    }

    /// Fake quantization `Q⁻¹(Q(x))` used during QAT, bit-identical to
    /// `self.dequantize(self.quantize(x))`.
    ///
    /// While the code range and `Z` stay within ±2^23 (every width up to 23
    /// bits from the constructors), the clamped code is an integer-valued
    /// `f32` and `q − Z` (at most 2^24 in magnitude) is exact in `f32`, so
    /// the whole map runs in `f32` and vectorizes; NaN maps to code 0, as
    /// the saturating cast in [`QuantParams::quantize`] does. Wider ranges
    /// take the integer round trip.
    #[inline]
    pub fn fake(&self, x: f32) -> f32 {
        if self.codes_exact_in_f32() {
            self.fake_f32(x)
        } else {
            self.dequantize(self.quantize(x))
        }
    }

    /// `write(&mut out[i], self.fake(xs[i]))` for every `i`, with the
    /// exactness test of [`QuantParams::fake`] made once for the slice, so
    /// each arm is a plain element loop that vectorizes.
    #[inline]
    pub fn fake_each(&self, xs: &[f32], out: &mut [f32], write: impl Fn(&mut f32, f32)) {
        assert_eq!(xs.len(), out.len(), "fake_each: length mismatch");
        let qp = *self;
        if qp.codes_exact_in_f32() {
            for (o, &x) in out.iter_mut().zip(xs) {
                write(o, qp.fake_f32(x));
            }
        } else {
            for (o, &x) in out.iter_mut().zip(xs) {
                write(o, qp.dequantize(qp.quantize(x)));
            }
        }
    }

    /// The `f32` form of [`QuantParams::fake`]; exact only while
    /// [`QuantParams::codes_exact_in_f32`] holds.
    #[inline]
    fn fake_f32(&self, x: f32) -> f32 {
        let q = (x / self.scale).round_ties_even() + self.zero_point as f32;
        let q = if q.is_nan() {
            0.0
        } else {
            q.clamp(self.qmin as f32, self.qmax as f32)
        };
        (q - self.zero_point as f32) * self.scale
    }

    /// True when every code and the zero point lie within ±2^23.
    #[inline]
    fn codes_exact_in_f32(&self) -> bool {
        const LIMIT: i32 = 1 << 23;
        (-LIMIT..=LIMIT).contains(&self.qmin)
            && (-LIMIT..=LIMIT).contains(&self.qmax)
            && (-LIMIT..=LIMIT).contains(&self.zero_point)
    }

    /// True when `x` falls inside the representable range *before* clipping.
    /// The clipped straight-through estimator passes gradient only here.
    #[inline]
    pub fn in_range(&self, x: f32) -> bool {
        let q = (x / self.scale).round_ties_even() + self.zero_point as f32;
        q >= self.qmin as f32 && q <= self.qmax as f32
    }

    /// Largest magnitude real value representable by this quantizer.
    pub fn real_range(&self) -> (f32, f32) {
        (self.dequantize(self.qmin), self.dequantize(self.qmax))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ranges() {
        assert_eq!(QuantParams::int_range(2), (-2, 1));
        assert_eq!(QuantParams::int_range(4), (-8, 7));
        assert_eq!(QuantParams::int_range(8), (-128, 127));
        assert_eq!(QuantParams::int_range(16), (-32768, 32767));
    }

    #[test]
    fn zero_is_exactly_representable() {
        for bits in [2, 4, 8] {
            let qp = QuantParams::from_min_max(-1.3, 2.7, bits);
            assert_eq!(qp.fake(0.0), 0.0, "bits={bits}");
        }
    }

    #[test]
    fn round_trip_error_bounded_by_half_scale() {
        let qp = QuantParams::from_min_max(-4.0, 4.0, 8);
        for i in -40..=40 {
            let x = i as f32 * 0.1;
            assert!((qp.fake(x) - x).abs() <= qp.scale * 0.5 + 1e-6);
        }
    }

    #[test]
    fn clipping_saturates_out_of_range() {
        let qp = QuantParams::from_min_max(-1.0, 1.0, 4);
        let (lo, hi) = qp.real_range();
        assert!(qp.fake(100.0) <= hi + 1e-6);
        assert!(qp.fake(-100.0) >= lo - 1e-6);
        assert!(!qp.in_range(100.0));
        assert!(qp.in_range(0.5));
    }

    #[test]
    fn symmetric_has_zero_zero_point() {
        let qp = QuantParams::symmetric(-0.8, 0.3, 8);
        assert_eq!(qp.zero_point, 0);
        assert!((qp.fake(0.8) - 0.8).abs() < qp.scale);
    }

    #[test]
    fn identity_params_round_to_integers() {
        let qp = QuantParams::identity(16);
        assert_eq!(qp.fake(3.4), 3.0);
        assert_eq!(qp.fake(-2.6), -3.0);
    }

    #[test]
    fn degenerate_range_stays_finite() {
        let qp = QuantParams::from_min_max(0.0, 0.0, 8);
        assert!(qp.scale > 0.0);
        assert!(qp.fake(0.0).is_finite());
    }

    /// Regression: `from_min_max` used `(qmax - qmin)` in i32, which
    /// overflows (and panics in debug builds) for bits = 32. Every
    /// supported extreme bit-width must build finite, positive-scale
    /// parameters and round-trip in-range values.
    #[test]
    fn from_min_max_all_bit_widths_including_32() {
        for bits in [2u8, 8, 16, 32] {
            for (lo, hi) in [(-1.0f32, 1.0f32), (-0.5, 2.5), (0.0, 3.0), (-4.0, 0.0)] {
                let qp = QuantParams::from_min_max(lo, hi, bits);
                assert!(
                    qp.scale > 0.0 && qp.scale.is_finite(),
                    "bits={bits} range=({lo},{hi}) scale={}",
                    qp.scale
                );
                assert!(
                    qp.qmin <= qp.zero_point && qp.zero_point <= qp.qmax,
                    "bits={bits}"
                );
                assert_eq!(qp.fake(0.0), 0.0, "bits={bits}: zero must stay exact");
                // In-range values round-trip within one step (f32 rounding
                // of huge codes costs a few ULP at 32 bits, hence the 2×).
                // The representable range is [min(lo,0), max(hi,0)]; pick a
                // point a quarter of the way in so clipping never triggers.
                let (rlo, rhi) = (lo.min(0.0), hi.max(0.0));
                let x = rlo + 0.25 * (rhi - rlo);
                assert!(
                    (qp.fake(x) - x).abs() <= 2.0 * qp.scale.max(f32::EPSILON * x.abs()),
                    "bits={bits} x={x} fake={}",
                    qp.fake(x)
                );
            }
            // Symmetric and identity constructors share int_range(32).
            let sym = QuantParams::symmetric(-3.0, 2.0, bits);
            assert_eq!(sym.zero_point, 0);
            assert!(sym.scale > 0.0 && sym.scale.is_finite());
            let id = QuantParams::identity(bits);
            assert_eq!(id.scale, 1.0);
        }
    }
}
