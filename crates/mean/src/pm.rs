//! The Piecewise Mechanism (PM; Wang et al., ICDE 2019) — paper §2.2.
//!
//! Input domain `[-1, 1]`, output domain `[-s, s]` with
//! `s = (e^{ε/2}+1)/(e^{ε/2}-1)`. For each `v` there is a "high" interval
//! `[ℓ(v), r(v)]` of width `2/(e^{ε/2}-1)` reported with density
//! `e^{ε/2}/2 · (e^{ε/2}-1)/(e^{ε/2}+1)`; the rest of the output domain has
//! density `e^ε` times smaller. The construction is unbiased, and has lower
//! variance than SR once ε is large (the Figure 4 crossover).

use crate::error::{check_signed, MeanError};
use ldp_core::Epsilon;
use rand::Rng;

/// The Piecewise Mechanism over the signed domain `[-1, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct Pm {
    eps: f64,
    /// e^{ε/2}, cached.
    e_half: f64,
    /// Output half-range s.
    s: f64,
}

impl Pm {
    /// Creates a PM mechanism with budget `eps`.
    pub fn new(eps: f64) -> Result<Self, MeanError> {
        Epsilon::new(eps)?;
        let e_half = (eps / 2.0).exp();
        Ok(Pm {
            eps,
            e_half,
            s: (e_half + 1.0) / (e_half - 1.0),
        })
    }

    /// The privacy budget.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// The output half-range `s`.
    #[must_use]
    pub fn output_bound(&self) -> f64 {
        self.s
    }

    /// Left edge of the high-probability interval for input `v`.
    #[must_use]
    pub fn high_lo(&self, v: f64) -> f64 {
        (self.e_half * v - 1.0) / (self.e_half - 1.0)
    }

    /// Right edge of the high-probability interval for input `v`.
    #[must_use]
    pub fn high_hi(&self, v: f64) -> f64 {
        (self.e_half * v + 1.0) / (self.e_half - 1.0)
    }

    /// Client side: randomizes `v ∈ [-1, 1]` into `ṽ ∈ [-s, s]`.
    pub fn randomize<R: Rng + ?Sized>(&self, v: f64, rng: &mut R) -> Result<f64, MeanError> {
        check_signed(v)?;
        let lo = self.high_lo(v);
        let hi = self.high_hi(v);
        let p_high = self.e_half / (self.e_half + 1.0);
        if rng.gen::<f64>() < p_high {
            Ok(lo + (hi - lo) * rng.gen::<f64>())
        } else {
            // Uniform over [-s, lo] ∪ [hi, s].
            let left = lo + self.s; // length of the left piece
            let right = self.s - hi;
            let total = left + right;
            let x = rng.gen::<f64>() * total;
            Ok(if x < left {
                -self.s + x
            } else {
                hi + (x - left)
            })
        }
    }

    /// Worst-case variance of a single report (at `v = ±1`); from Wang et
    /// al.: `v²·(…) + (e^{ε/2}+3)/(3(e^{ε/2}-1)²)` evaluated via the exact
    /// second moment below.
    #[must_use]
    pub fn report_variance(&self, v: f64) -> f64 {
        self.second_moment(v) - v * v
    }

    /// Exact `E[ṽ² | v]` from the piecewise-uniform density.
    #[must_use]
    pub fn second_moment(&self, v: f64) -> f64 {
        let lo = self.high_lo(v);
        let hi = self.high_hi(v);
        let d_high = self.e_half / 2.0 * (self.e_half - 1.0) / (self.e_half + 1.0);
        let d_low = (self.e_half - 1.0) / (2.0 * self.e_half * (self.e_half + 1.0));
        let cube = |a: f64, b: f64| (b * b * b - a * a * a) / 3.0;
        d_low * cube(-self.s, lo) + d_high * cube(lo, hi) + d_low * cube(hi, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::Mechanism;
    use ldp_numeric::SplitMix64;

    #[test]
    fn construction_validates() {
        assert!(Pm::new(1.0).is_ok());
        assert!(Pm::new(0.0).is_err());
        assert!(Pm::new(f64::NAN).is_err());
    }

    #[test]
    fn geometry_matches_paper() {
        let eps = 2.0;
        let pm = Pm::new(eps).unwrap();
        let e_half = 1f64.exp();
        assert!((pm.output_bound() - (e_half + 1.0) / (e_half - 1.0)).abs() < 1e-12);
        // Width of the high interval is 2/(e^{ε/2}-1) for every v.
        for &v in &[-1.0, 0.0, 0.7] {
            let w = pm.high_hi(v) - pm.high_lo(v);
            assert!((w - 2.0 / (e_half - 1.0)).abs() < 1e-12);
        }
        // At v = -1 the high interval's right edge is -1 (paper §5.2 note).
        assert!((pm.high_hi(-1.0) - (-1.0)).abs() < 1e-9);
        // Center of the high region is e^{ε/2}/(e^{ε/2}-1)·v.
        let v = 0.3;
        let center = (pm.high_lo(v) + pm.high_hi(v)) / 2.0;
        assert!((center - e_half / (e_half - 1.0) * v).abs() < 1e-12);
    }

    #[test]
    fn outputs_stay_in_range() {
        let pm = Pm::new(1.0).unwrap();
        let mut rng = SplitMix64::new(151);
        for &v in &[-1.0, -0.3, 0.0, 0.9, 1.0] {
            for _ in 0..2000 {
                let r = pm.randomize(v, &mut rng).unwrap();
                assert!(r.abs() <= pm.output_bound() + 1e-12);
            }
        }
        assert!(pm.randomize(-1.01, &mut rng).is_err());
    }

    #[test]
    fn reports_are_unbiased() {
        let pm = Pm::new(1.5).unwrap();
        let mut rng = SplitMix64::new(152);
        for &v in &[-0.8, 0.0, 0.33, 1.0] {
            let n = 300_000;
            let mut sum = 0.0;
            for _ in 0..n {
                sum += pm.randomize(v, &mut rng).unwrap();
            }
            let mean = sum / n as f64;
            assert!((mean - v).abs() < 0.02, "v={v}: mean {mean}");
        }
    }

    #[test]
    fn high_region_receives_expected_mass() {
        let pm = Pm::new(1.0).unwrap();
        let mut rng = SplitMix64::new(153);
        let v = 0.2;
        let (lo, hi) = (pm.high_lo(v), pm.high_hi(v));
        let n = 100_000;
        let mut inside = 0u64;
        for _ in 0..n {
            let r = pm.randomize(v, &mut rng).unwrap();
            if r >= lo && r <= hi {
                inside += 1;
            }
        }
        let frac = inside as f64 / n as f64;
        let expect = (0.5f64).exp() / ((0.5f64).exp() + 1.0);
        assert!((frac - expect).abs() < 0.01, "{frac} vs {expect}");
    }

    #[test]
    fn empirical_variance_matches_formula() {
        let pm = Pm::new(1.0).unwrap();
        let v = -0.4;
        let mut rng = SplitMix64::new(154);
        let n = 300_000;
        let mut mean = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = pm.randomize(v, &mut rng).unwrap();
            mean += x;
            sq += x * x;
        }
        mean /= n as f64;
        let var = sq / n as f64 - mean * mean;
        let expect = pm.report_variance(v);
        assert!((var - expect).abs() / expect < 0.05, "{var} vs {expect}");
    }

    #[test]
    fn pm_beats_sr_at_large_epsilon_only() {
        // Paper: SR better for small ε, PM better for large ε.
        let v = 0.5;
        let small = 0.5;
        let large = 4.0;
        let sr_small = crate::sr::Sr::new(small).unwrap().report_variance(v);
        let pm_small = Pm::new(small).unwrap().report_variance(v);
        let sr_large = crate::sr::Sr::new(large).unwrap().report_variance(v);
        let pm_large = Pm::new(large).unwrap().report_variance(v);
        assert!(sr_small < pm_small, "{sr_small} vs {pm_small}");
        assert!(pm_large < sr_large, "{pm_large} vs {sr_large}");
    }

    #[test]
    fn empty_reports_give_zero() {
        let pm = Pm::new(1.0).unwrap();
        assert_eq!(pm.aggregate(&[]).unwrap(), 0.0);
    }
}
