//! Generalized Randomized Response (GRR).
//!
//! The client reports its true value with probability
//! `p = eᵉ / (eᵉ + d - 1)` and any other fixed value with probability
//! `q = 1 / (eᵉ + d - 1)`. The estimator inverts the perturbation:
//! `x̂_v = (C(v)/n - q) / (p - q)` with variance
//! `(d - 2 + eᵉ) / ((eᵉ - 1)² n)` (paper §2.1, eq. 1) — linear in `d`,
//! which is why GRR only wins on small domains.

use crate::error::CfoError;
use ldp_core::{Domain, Epsilon};

/// The GRR frequency oracle; its protocol is the
/// [`ldp_core::Mechanism`] impl in [`crate::mechanism`].
#[derive(Debug, Clone)]
pub struct Grr {
    pub(crate) d: usize,
    pub(crate) eps: Epsilon,
    pub(crate) p: f64,
    q: f64,
}

impl Grr {
    /// Creates a GRR oracle over a domain of size `d` with budget `eps`.
    pub fn new(d: usize, eps: f64) -> Result<Self, CfoError> {
        Domain::new(d)?;
        let eps = Epsilon::new(eps)?;
        let e = eps.exp();
        let p = e / (e + d as f64 - 1.0);
        let q = 1.0 / (e + d as f64 - 1.0);
        Ok(Grr { d, eps, p, q })
    }

    /// Size `d` of the categorical input domain.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        self.d
    }

    /// Probability of reporting the true value.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability of reporting any specific other value.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The closed-form per-estimate variance for `n` users (paper eq. 1).
    #[must_use]
    pub fn theoretical_variance(d: usize, eps: f64, n: usize) -> f64 {
        let e = eps.exp();
        (d as f64 - 2.0 + e) / ((e - 1.0) * (e - 1.0) * n as f64)
    }

    /// Approximate variance of one frequency estimate from `n` reports
    /// (used for oracle selection and constrained-inference weights).
    #[must_use]
    pub fn estimate_variance(&self, n: usize) -> f64 {
        Self::theoretical_variance(self.d, self.eps.get(), n.max(1))
    }

    /// Debiases raw per-value report counts into frequency estimates.
    pub(crate) fn estimate_from_counts(&self, counts: &[u64], n: u64) -> Vec<f64> {
        if n == 0 {
            return vec![0.0; self.d];
        }
        let nf = n as f64;
        counts
            .iter()
            .map(|&c| (c as f64 / nf - self.q) / (self.p - self.q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::run;
    use ldp_core::Mechanism;
    use ldp_numeric::SplitMix64;

    #[test]
    fn construction_validates() {
        assert!(Grr::new(1, 1.0).is_err());
        assert!(Grr::new(4, 0.0).is_err());
        assert!(Grr::new(4, 1.0).is_ok());
    }

    #[test]
    fn probabilities_satisfy_ldp_ratio() {
        let g = Grr::new(10, 1.5).unwrap();
        assert!((g.p() / g.q() - 1.5f64.exp()).abs() < 1e-12);
        // Total probability over the output domain is 1.
        let total = g.p() + (10.0 - 1.0) * g.q();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn randomize_rejects_out_of_domain() {
        let g = Grr::new(4, 1.0).unwrap();
        let mut rng = SplitMix64::new(1);
        assert!(Mechanism::randomize(&g, &4, &mut rng).is_err());
    }

    #[test]
    fn randomize_never_emits_out_of_domain() {
        let g = Grr::new(5, 0.5).unwrap();
        let mut rng = SplitMix64::new(2);
        for v in 0..5 {
            for _ in 0..1000 {
                let r = Mechanism::randomize(&g, &v, &mut rng).unwrap();
                assert!(r < 5);
            }
        }
    }

    #[test]
    fn aggregate_is_unbiased_on_skewed_input() {
        let d = 8;
        let g = Grr::new(d, 2.0).unwrap();
        let mut rng = SplitMix64::new(3);
        // 60% value 0, 40% value 5.
        let n = 200_000;
        let values: Vec<usize> = (0..n).map(|i| if i % 5 < 3 { 0 } else { 5 }).collect();
        let est = run(&g, &values, &mut rng);
        assert!((est[0] - 0.6).abs() < 0.02, "est[0]={}", est[0]);
        assert!((est[5] - 0.4).abs() < 0.02, "est[5]={}", est[5]);
        for (v, &e) in est.iter().enumerate() {
            if v != 0 && v != 5 {
                assert!(e.abs() < 0.02, "est[{v}]={e}");
            }
        }
        // Estimates sum to ~1 by construction of the inverse mapping.
        let sum: f64 = est.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_variance_matches_theory() {
        let d = 4;
        let eps = 1.0;
        let n = 2_000;
        let trials = 300;
        let g = Grr::new(d, eps).unwrap();
        let values = vec![1usize; n];
        let mut errs = Vec::with_capacity(trials);
        for t in 0..trials {
            let mut rng = SplitMix64::new(1000 + t as u64);
            let est = run(&g, &values, &mut rng);
            errs.push(est[0]); // true frequency of value 0 is 0.
        }
        let emp_var = ldp_numeric::stats::variance(&errs);
        let theory = Grr::theoretical_variance(d, eps, n);
        let ratio = emp_var / theory;
        assert!(
            (0.7..1.3).contains(&ratio),
            "empirical {emp_var} vs theory {theory}"
        );
    }

    #[test]
    fn aggregate_empty_reports_gives_zeros() {
        let g = Grr::new(4, 1.0).unwrap();
        assert_eq!(Mechanism::aggregate(&g, &[]).unwrap(), vec![0.0; 4]);
    }

    #[test]
    fn high_epsilon_is_nearly_lossless() {
        let g = Grr::new(4, 20.0).unwrap();
        let mut rng = SplitMix64::new(9);
        let values = vec![2usize; 1000];
        let est = run(&g, &values, &mut rng);
        assert!((est[2] - 1.0).abs() < 1e-3);
    }
}
