//! Stochastic Rounding (SR; Duchi, Jordan & Wainwright, JASA 2018) —
//! paper §2.2.
//!
//! Every user reports one of the two extreme values `-1` or `+1`, with
//! probabilities linear in the private value: with `p = eᵉ/(eᵉ+1)` and
//! `q = 1-p`, the report is `+1` with probability `q + (p-q)(1+v)/2`.
//! Debiasing by `1/(p-q)` makes the per-user report an unbiased estimate of
//! `v`, so the average estimates the population mean.

use crate::error::{check_signed, MeanError};
use ldp_core::Epsilon;
use rand::Rng;

/// The Stochastic Rounding mechanism over the signed domain `[-1, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct Sr {
    eps: f64,
    p: f64,
}

impl Sr {
    /// Creates an SR mechanism with budget `eps`.
    pub fn new(eps: f64) -> Result<Self, MeanError> {
        Epsilon::new(eps)?;
        Ok(Sr {
            eps,
            p: eps.exp() / (eps.exp() + 1.0),
        })
    }

    /// The privacy budget.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Client side: randomizes `v ∈ [-1, 1]` into `-1` or `+1`.
    pub fn randomize<R: Rng + ?Sized>(&self, v: f64, rng: &mut R) -> Result<f64, MeanError> {
        check_signed(v)?;
        let q = 1.0 - self.p;
        let prob_plus = q + (self.p - q) * (1.0 + v) / 2.0;
        Ok(if rng.gen::<f64>() < prob_plus {
            1.0
        } else {
            -1.0
        })
    }

    /// Debiases one raw report: `ṽ = v' / (p - q)`; `E[ṽ] = v`.
    #[must_use]
    pub fn debias(&self, report: f64) -> f64 {
        report / (2.0 * self.p - 1.0)
    }

    /// Variance of one debiased report for input `v`:
    /// `1/(p-q)² − v²`.
    #[must_use]
    pub fn report_variance(&self, v: f64) -> f64 {
        let gamma = 2.0 * self.p - 1.0;
        1.0 / (gamma * gamma) - v * v
    }
}

/// Maps a value from the dataset domain `[0, 1]` into the mechanism domain
/// `[-1, 1]`.
#[must_use]
pub fn to_signed(v01: f64) -> f64 {
    2.0 * v01 - 1.0
}

/// Maps a mechanism-domain value back to `[0, 1]`.
#[must_use]
pub fn from_signed(v: f64) -> f64 {
    (v + 1.0) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::run;
    use ldp_core::Mechanism;
    use ldp_numeric::SplitMix64;

    #[test]
    fn construction_validates() {
        assert!(Sr::new(1.0).is_ok());
        assert!(Sr::new(0.0).is_err());
        assert!(Sr::new(f64::INFINITY).is_err());
    }

    #[test]
    fn reports_are_extreme_values_only() {
        let sr = Sr::new(1.0).unwrap();
        let mut rng = SplitMix64::new(141);
        for &v in &[-1.0, -0.5, 0.0, 0.5, 1.0] {
            for _ in 0..100 {
                let r = sr.randomize(v, &mut rng).unwrap();
                assert!(r == 1.0 || r == -1.0);
            }
        }
        assert!(sr.randomize(1.5, &mut rng).is_err());
    }

    #[test]
    fn mean_estimate_is_unbiased() {
        let sr = Sr::new(1.0).unwrap();
        let mut rng = SplitMix64::new(142);
        // True mean of the inputs: 0.25.
        let values: Vec<f64> = (0..200_000)
            .map(|i| if i % 2 == 0 { 0.75 } else { -0.25 })
            .collect();
        let est = run(&sr, &values, &mut rng).unwrap();
        assert!((est - 0.25).abs() < 0.02, "est {est}");
    }

    #[test]
    fn satisfies_ldp_probability_ratio() {
        // P[+1 | v=1] / P[+1 | v=-1] = p/q = e^eps, the worst case.
        let eps = 1.3f64;
        let p = eps.exp() / (eps.exp() + 1.0);
        let q = 1.0 - p;
        let prob_plus = |v: f64| q + (p - q) * (1.0 + v) / 2.0;
        let ratio = prob_plus(1.0) / prob_plus(-1.0);
        assert!((ratio - eps.exp()).abs() < 1e-9);
    }

    #[test]
    fn debias_inverts_expectation() {
        let sr = Sr::new(2.0).unwrap();
        let p = 2f64.exp() / (2f64.exp() + 1.0);
        let q = 1.0 - p;
        // E[report | v] = (p - q)·v; debias divides by (p - q).
        let v = 0.4;
        let expectation = (prob_plus(p, q, v) - (1.0 - prob_plus(p, q, v))) * 1.0;
        assert!((sr.debias(expectation) - v).abs() < 1e-12);

        fn prob_plus(p: f64, q: f64, v: f64) -> f64 {
            q + (p - q) * (1.0 + v) / 2.0
        }
    }

    #[test]
    fn empirical_variance_matches_formula() {
        let sr = Sr::new(1.0).unwrap();
        let v = 0.3;
        let mut rng = SplitMix64::new(143);
        let n = 200_000;
        let mut sq = 0.0;
        let mut mean = 0.0;
        for _ in 0..n {
            let x = sr.debias(sr.randomize(v, &mut rng).unwrap());
            mean += x;
            sq += x * x;
        }
        mean /= n as f64;
        let var = sq / n as f64 - mean * mean;
        let expect = sr.report_variance(v);
        assert!((var - expect).abs() / expect < 0.05, "{var} vs {expect}");
    }

    #[test]
    fn domain_mapping_roundtrips() {
        for &v in &[0.0, 0.25, 0.5, 1.0] {
            assert!((from_signed(to_signed(v)) - v).abs() < 1e-12);
        }
        assert_eq!(to_signed(0.5), 0.0);
    }

    #[test]
    fn empty_reports_give_zero() {
        let sr = Sr::new(1.0).unwrap();
        assert_eq!(sr.aggregate(&[]).unwrap(), 0.0);
    }
}
