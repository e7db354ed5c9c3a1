//! General Wave mechanisms (paper §5.1–5.2).
//!
//! A general wave mechanism reports, for input `v ∈ [0, 1]`, a value
//! `ṽ ∈ [-b, 1+b]` with density `M_v(ṽ) = W(ṽ - v)` where the wave function
//! `W` satisfies `W(z) = q` for `|z| > b`, `q ≤ W(z) ≤ eᵉ·q` inside, and
//! `∫_{-b}^{b} W = 1 − q`. Theorem 5.3 shows the *square* wave (constant
//! `eᵉ·q` plateau) maximizes the Wasserstein distance between any two output
//! distributions; this module also implements the trapezoid and triangle
//! shapes the paper compares against in Figure 5.

use crate::error::SwError;
use ldp_core::Epsilon;
use ldp_numeric::rng::{unit_f64, unit_threshold};
use ldp_numeric::SplitMix64;
use rand::Rng;

/// The profile of a wave inside `[-b, b]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WaveShape {
    /// Constant plateau at `eᵉ·q` — the Square Wave (optimal, Thm 5.3).
    Square,
    /// Flat top of half-width `ratio·b`, linear flanks down to `q` at ±b.
    /// `ratio = 1` degenerates to square, `ratio = 0` to triangle.
    Trapezoid {
        /// Top-to-bottom width ratio in `[0, 1]`.
        ratio: f64,
    },
    /// Linear peak at 0 falling to `q` at ±b (trapezoid with ratio 0).
    Triangle,
}

impl WaveShape {
    fn top_ratio(self) -> f64 {
        match self {
            WaveShape::Square => 1.0,
            WaveShape::Trapezoid { ratio } => ratio,
            WaveShape::Triangle => 0.0,
        }
    }
}

/// A concrete wave: shape + bandwidth + privacy budget, with its derived
/// densities.
#[derive(Debug, Clone, Copy)]
pub struct Wave {
    shape: WaveShape,
    b: f64,
    eps: f64,
    /// Baseline density outside the wave (and the wave's minimum).
    q: f64,
    /// Peak density `eᵉ·q`.
    peak: f64,
}

impl Wave {
    /// Creates a wave. `b` must be in `(0, ∞)`; for shapes other than
    /// square the trapezoid ratio must lie in `[0, 1]`.
    pub fn new(shape: WaveShape, b: f64, eps: f64) -> Result<Self, SwError> {
        Epsilon::new(eps)?;
        if !(b > 0.0) || !b.is_finite() {
            return Err(SwError::InvalidBandwidth(b));
        }
        if let WaveShape::Trapezoid { ratio } = shape {
            if !(0.0..=1.0).contains(&ratio) || !ratio.is_finite() {
                return Err(SwError::InvalidParameter(format!(
                    "trapezoid ratio must be in [0, 1], got {ratio}"
                )));
            }
        }
        let e = eps.exp();
        let r = shape.top_ratio();
        // ∫W over [-b, b] = 2bq + (e^ε - 1)q · b(1 + r) = 1 - q
        //   => q = 1 / (1 + 2b + (e^ε - 1)·b·(1 + r)).
        let q = 1.0 / (1.0 + 2.0 * b + (e - 1.0) * b * (1.0 + r));
        Ok(Wave {
            shape,
            b,
            eps,
            q,
            peak: e * q,
        })
    }

    /// The square wave with the given bandwidth (paper eq. 3:
    /// `p = eᵉ/(2beᵉ+1)`, `q = 1/(2beᵉ+1)`).
    pub fn square(b: f64, eps: f64) -> Result<Self, SwError> {
        Self::new(WaveShape::Square, b, eps)
    }

    /// Shape of this wave.
    #[must_use]
    pub fn shape(&self) -> WaveShape {
        self.shape
    }

    /// Bandwidth `b`.
    #[must_use]
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Privacy budget ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Baseline ("far") density `q`.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Peak density `eᵉ·q` (for the square wave this is `p`).
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Half-width of the flat top, `r·b`: the wave density equals
    /// [`Self::peak`] exactly on `|z| ≤ r·b`. For the square wave this is
    /// the whole band (`b`), for the triangle it degenerates to 0.
    #[must_use]
    pub fn flat_top_halfwidth(&self) -> f64 {
        self.shape.top_ratio() * self.b
    }

    /// Left edge of the output domain `[-b, 1+b]`.
    #[must_use]
    pub fn output_lo(&self) -> f64 {
        -self.b
    }

    /// Right edge of the output domain.
    #[must_use]
    pub fn output_hi(&self) -> f64 {
        1.0 + self.b
    }

    /// The wave function `W(z)`: the output density at offset `z` from the
    /// true value (valid for any real `z`; outside `[-b, b]` it is `q`).
    #[must_use]
    pub fn density(&self, z: f64) -> f64 {
        let az = z.abs();
        if az > self.b {
            return self.q;
        }
        let r = self.shape.top_ratio();
        let flat = r * self.b;
        if az <= flat {
            self.peak
        } else {
            // Linear flank from peak at |z| = r·b down to q at |z| = b.
            let t = (self.b - az) / (self.b - flat);
            self.q + (self.peak - self.q) * t
        }
    }

    /// Offsets at which `W` is non-smooth, for exact quadrature.
    #[must_use]
    pub fn breakpoints(&self) -> Vec<f64> {
        let r = self.shape.top_ratio();
        let flat = r * self.b;
        let mut pts = vec![-self.b, -flat, flat, self.b];
        pts.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
        pts
    }

    /// Exact mass the output distribution for input `v` puts on the output
    /// interval `[lo, hi]`: `∫_{lo}^{hi} W(ṽ - v) dṽ`. `W` is piecewise
    /// linear between breakpoints (with jumps at ±b for the square shape),
    /// so the midpoint rule on each piece is exact and never samples a
    /// discontinuity.
    #[must_use]
    pub fn mass_on_interval(&self, v: f64, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        let mut pts: Vec<f64> = self
            .breakpoints()
            .into_iter()
            .map(|z| v + z)
            .filter(|&p| p > lo && p < hi)
            .collect();
        pts.push(lo);
        pts.push(hi);
        pts.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        let mut total = 0.0;
        for w in pts.windows(2) {
            let (a, c) = (w[0], w[1]);
            total += self.density(0.5 * (a + c) - v) * (c - a);
        }
        total
    }

    /// Client side: randomizes a private value `v ∈ [0, 1]` into
    /// `ṽ ∈ [-b, 1+b]` with density `W(ṽ - v)`.
    ///
    /// The sampler decomposes the density into a uniform baseline of mass
    /// `q·(1+2b)` over the whole output domain and a "bump" of mass
    /// `1 − q(1+2b)` with the trapezoid profile, sampled by inverse CDF.
    pub fn randomize<R: Rng + ?Sized>(&self, v: f64, rng: &mut R) -> Result<f64, SwError> {
        if !(0.0..=1.0).contains(&v) || !v.is_finite() {
            return Err(SwError::ValueOutOfDomain(v));
        }
        let base_mass = self.q * (1.0 + 2.0 * self.b);
        if rng.gen::<f64>() < base_mass {
            return Ok(self.output_lo() + (1.0 + 2.0 * self.b) * rng.gen::<f64>());
        }
        Ok(v + self.sample_bump_offset(rng))
    }

    /// The square wave's [`Wave::randomize`] over a block of valid inputs
    /// (`[0, 1]`, not NaN), as a walk over `stream`'s draw windows; the
    /// reports and the generator's final state equal the per-value loop.
    ///
    /// Per value, the serial sampler draws a coin `u₀`: below the baseline
    /// mass it reports `-b + (1 + 2b)·u₁` (two draws), else it draws the
    /// flat-top coin `u₁` — `rect/total` is exactly 1 for the square wave,
    /// so it always lands — and reports `v + (-b + 2b·u₂)` (three draws).
    /// The step table is `3 − [u₀ < base]` as an integer compare.
    ///
    /// The output needs no select, which the compiler would turn back into
    /// a mispredicting branch. It reads the report's step count `s` (2 or
    /// 3) back from the table as a float and computes
    /// `v·(s − 2) + (-b + (2b + (3 − s))·u_{s−1})`. Every step is exact:
    /// `2b + 1` is the serial `1 + 2b` (addition commutes), and `v·0 = ±0`
    /// added to `-b + (1 + 2b)·u₁` changes nothing, because that sum of a
    /// negative and a non-negative term is never `-0`.
    pub(crate) fn randomize_square_block(
        &self,
        values: &[f64],
        stream: &mut SplitMix64,
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(self.shape, WaveShape::Square);
        let base = unit_threshold(self.q * (1.0 + 2.0 * self.b));
        // The flat top of the square wave is the whole band: `flat = b`,
        // so the baseline's `-b` and the bump's `-flat` are one offset.
        let flat = self.flat_top_halfwidth();
        debug_assert_eq!(flat.to_bits(), self.b.to_bits());
        let (neg_b, two_b) = (-flat, 2.0 * flat);
        out.reserve(values.len());
        stream.walk_reports(
            values.len(),
            3,
            |draws, steps| {
                for (s, &u) in steps.iter_mut().zip(draws) {
                    *s = 3 - u8::from((u >> 11) < base);
                }
            },
            |draws, steps, i| {
                let u = unit_f64(draws[usize::from(steps) - 1]);
                let s = f64::from(steps);
                out.push(values[i] * (s - 2.0) + (neg_b + (two_b + (3.0 - s)) * u));
                usize::from(steps)
            },
        );
    }

    /// Samples an offset from the normalized bump profile
    /// (peak − q over the flat top, linear flanks).
    fn sample_bump_offset<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let r = self.shape.top_ratio();
        let flat = r * self.b;
        // Bump areas: rectangle 2·flat·h plus two triangles (b-flat)·h/2 each,
        // h = peak - q. Only the ratios matter.
        let rect = 2.0 * flat;
        let tris = self.b - flat; // both triangles combined: 2·(b-flat)/2
        let total = rect + tris;
        if rng.gen::<f64>() < rect / total {
            // Uniform over the flat top.
            -flat + 2.0 * flat * rng.gen::<f64>()
        } else {
            // One of the linear flanks: density decreasing from flat to b.
            let u: f64 = rng.gen();
            let z = flat + (self.b - flat) * (1.0 - u.sqrt());
            if rng.gen::<bool>() {
                z
            } else {
                -z
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_numeric::quad::integrate_with_breakpoints;
    use ldp_numeric::SplitMix64;

    fn waves() -> Vec<Wave> {
        vec![
            Wave::square(0.25, 1.0).unwrap(),
            Wave::new(WaveShape::Trapezoid { ratio: 0.5 }, 0.3, 1.5).unwrap(),
            Wave::new(WaveShape::Triangle, 0.2, 2.0).unwrap(),
            Wave::new(WaveShape::Trapezoid { ratio: 0.2 }, 0.15, 0.5).unwrap(),
        ]
    }

    #[test]
    fn construction_validates() {
        assert!(Wave::square(0.0, 1.0).is_err());
        assert!(Wave::square(-0.1, 1.0).is_err());
        assert!(Wave::square(0.2, 0.0).is_err());
        assert!(Wave::new(WaveShape::Trapezoid { ratio: 1.5 }, 0.2, 1.0).is_err());
        assert!(Wave::new(WaveShape::Trapezoid { ratio: -0.1 }, 0.2, 1.0).is_err());
    }

    #[test]
    fn square_wave_matches_paper_formulas() {
        let eps = 1.0;
        let b = 0.25;
        let w = Wave::square(b, eps).unwrap();
        let e = eps.exp();
        let q_expected = 1.0 / (2.0 * b * e + 1.0);
        assert!((w.q() - q_expected).abs() < 1e-12);
        assert!((w.peak() - e * q_expected).abs() < 1e-12);
        // Density is p inside, q outside.
        assert_eq!(w.density(0.0), w.peak());
        assert_eq!(w.density(0.24), w.peak());
        assert_eq!(w.density(0.26), w.q());
        assert_eq!(w.density(-0.26), w.q());
    }

    #[test]
    fn all_shapes_satisfy_ldp_density_ratio() {
        for w in waves() {
            let e = w.epsilon().exp();
            let zs: Vec<f64> = (-100..=100).map(|k| k as f64 * 0.01).collect();
            for &z in &zs {
                let d = w.density(z);
                assert!(d >= w.q() - 1e-12, "below q at z={z}");
                assert!(d <= e * w.q() + 1e-12, "above e^eps·q at z={z}");
            }
        }
    }

    #[test]
    fn density_integrates_to_one_over_output_domain() {
        for w in waves() {
            for &v in &[0.0, 0.3, 0.77, 1.0] {
                let total = integrate_with_breakpoints(
                    |t| w.density(t - v),
                    &w.breakpoints().iter().map(|z| v + z).collect::<Vec<_>>(),
                    w.output_lo(),
                    w.output_hi(),
                    4,
                );
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "shape {:?} v={v}: total {total}",
                    w.shape()
                );
            }
        }
    }

    #[test]
    fn mass_on_interval_matches_quadrature() {
        for w in waves() {
            let v = 0.4;
            for &(lo, hi) in &[(-0.3, 0.2), (0.1, 0.9), (0.35, 0.45), (-0.25, 1.25)] {
                let exact = w.mass_on_interval(v, lo, hi);
                let quad = integrate_with_breakpoints(
                    |t| w.density(t - v),
                    &w.breakpoints().iter().map(|z| v + z).collect::<Vec<_>>(),
                    lo,
                    hi,
                    8,
                );
                assert!(
                    (exact - quad).abs() < 1e-9,
                    "shape {:?} [{lo},{hi}]: {exact} vs {quad}",
                    w.shape()
                );
            }
        }
    }

    #[test]
    fn randomize_respects_output_domain() {
        for w in waves() {
            let mut rng = SplitMix64::new(101);
            for &v in &[0.0, 0.5, 1.0] {
                for _ in 0..2000 {
                    let out = w.randomize(v, &mut rng).unwrap();
                    assert!(out >= w.output_lo() - 1e-12 && out <= w.output_hi() + 1e-12);
                }
            }
        }
    }

    #[test]
    fn randomize_rejects_out_of_domain_inputs() {
        let w = Wave::square(0.25, 1.0).unwrap();
        let mut rng = SplitMix64::new(102);
        assert!(w.randomize(-0.1, &mut rng).is_err());
        assert!(w.randomize(1.1, &mut rng).is_err());
        assert!(w.randomize(f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn empirical_histogram_matches_density() {
        // Sample many reports for fixed v and compare bucket frequencies
        // against the exact per-bucket masses.
        for w in waves() {
            let v = 0.6;
            let mut rng = SplitMix64::new(103);
            let n = 400_000;
            let buckets = 20;
            let lo = w.output_lo();
            let width = (w.output_hi() - lo) / buckets as f64;
            let mut counts = vec![0u64; buckets];
            for _ in 0..n {
                let out = w.randomize(v, &mut rng).unwrap();
                let idx = (((out - lo) / width) as usize).min(buckets - 1);
                counts[idx] += 1;
            }
            for (j, &c) in counts.iter().enumerate() {
                let blo = lo + j as f64 * width;
                let expect = w.mass_on_interval(v, blo, blo + width);
                let got = c as f64 / n as f64;
                assert!(
                    (got - expect).abs() < 0.01,
                    "shape {:?} bucket {j}: {got} vs {expect}",
                    w.shape()
                );
            }
        }
    }

    #[test]
    fn square_has_smallest_q_for_fixed_b_eps() {
        // Lemma 5.5: q is minimized (hence signal maximized) by the square.
        let b = 0.25;
        let eps = 1.0;
        let q_square = Wave::square(b, eps).unwrap().q();
        for &ratio in &[0.0, 0.2, 0.5, 0.8] {
            let q_other = Wave::new(WaveShape::Trapezoid { ratio }, b, eps)
                .unwrap()
                .q();
            assert!(q_square < q_other, "ratio {ratio}");
        }
    }

    #[test]
    fn triangle_equals_ratio_zero_trapezoid() {
        let t = Wave::new(WaveShape::Triangle, 0.3, 1.0).unwrap();
        let z = Wave::new(WaveShape::Trapezoid { ratio: 0.0 }, 0.3, 1.0).unwrap();
        for &x in &[-0.3, -0.1, 0.0, 0.15, 0.3, 0.5] {
            assert!((t.density(x) - z.density(x)).abs() < 1e-12);
        }
    }
}
