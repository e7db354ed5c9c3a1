//! The Hybrid mechanism (Wang et al., ICDE 2019): a randomized mixture of
//! PM and SR.
//!
//! PM beats SR at large ε and loses at small ε (paper §2.2 / Figure 4).
//! Wang et al.'s remedy is to flip a coin: with probability `β` answer via
//! PM, otherwise via SR, where `β = 1 − e^{-ε/2}` for `ε > ε* ≈ 0.61` and
//! `β = 0` below. The mixture is unbiased (both components are) and its
//! worst-case variance dominates both components across the whole ε range.
//! Included as an extension — the paper evaluates SR and PM separately, and
//! Hybrid is the natural deployment choice.

use crate::error::{check_signed, MeanError};
use crate::pm::Pm;
use crate::sr::Sr;
use ldp_core::Epsilon;
use rand::Rng;

/// The ε threshold above which the PM arm is used at all
/// (`ε* = ln((−5 + 2·(6353 − 405·√241)^{1/3} + 2·(6353 + 405·√241)^{1/3})/27)`
/// ≈ 0.610986 in Wang et al.; the simpler operational rule `β = 0` for
/// `ε ≤ 0.61` is what their implementation uses).
pub const HYBRID_EPS_STAR: f64 = 0.61;

/// One Hybrid report: which arm produced it and the perturbed value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HybridReport {
    /// Produced by the Piecewise Mechanism.
    Pm(f64),
    /// Produced by Stochastic Rounding (±1 before debiasing).
    Sr(f64),
}

/// The Hybrid mean-estimation mechanism over `[-1, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct Hybrid {
    pm: Pm,
    sr: Sr,
    /// Probability of using the PM arm.
    beta: f64,
}

impl Hybrid {
    /// Creates a Hybrid mechanism with budget `eps`.
    pub fn new(eps: f64) -> Result<Self, MeanError> {
        Epsilon::new(eps)?;
        let beta = if eps > HYBRID_EPS_STAR {
            1.0 - (-eps / 2.0).exp()
        } else {
            0.0
        };
        Ok(Hybrid {
            pm: Pm::new(eps)?,
            sr: Sr::new(eps)?,
            beta,
        })
    }

    /// The PM-arm probability β.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The privacy budget ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.sr.epsilon()
    }

    /// The PM arm (shared with the `Mechanism` impl).
    pub(crate) fn pm(&self) -> &Pm {
        &self.pm
    }

    /// Client side: randomizes `v ∈ [-1, 1]`.
    pub fn randomize<R: Rng + ?Sized>(
        &self,
        v: f64,
        rng: &mut R,
    ) -> Result<HybridReport, MeanError> {
        check_signed(v)?;
        if rng.gen::<f64>() < self.beta {
            Ok(HybridReport::Pm(self.pm.randomize(v, rng)?))
        } else {
            Ok(HybridReport::Sr(self.sr.randomize(v, rng)?))
        }
    }

    /// Debiases one report (PM reports are already unbiased; SR reports are
    /// scaled by `1/(p-q)`).
    #[must_use]
    pub fn debias(&self, report: HybridReport) -> f64 {
        match report {
            HybridReport::Pm(v) => v,
            HybridReport::Sr(v) => self.sr.debias(v),
        }
    }

    /// Variance of one debiased report for input `v`: the β-mixture of the
    /// component variances (both components are unbiased, so the mixture
    /// variance is the mixture of second moments minus `v²`).
    #[must_use]
    pub fn report_variance(&self, v: f64) -> f64 {
        let pm_second = self.pm.report_variance(v) + v * v;
        let gamma = {
            // SR second moment is 1/(p-q)² (the debiased report is ±1/(p-q)).
            let e = self.sr.epsilon().exp();
            let pq = (e - 1.0) / (e + 1.0);
            1.0 / (pq * pq)
        };
        self.beta * pm_second + (1.0 - self.beta) * gamma - v * v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::run;
    use ldp_core::Mechanism;
    use ldp_numeric::SplitMix64;

    #[test]
    fn construction_and_beta_rule() {
        assert!(Hybrid::new(0.0).is_err());
        let low = Hybrid::new(0.5).unwrap();
        assert_eq!(low.beta(), 0.0, "below eps* the PM arm is disabled");
        let high = Hybrid::new(2.0).unwrap();
        assert!((high.beta() - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn reports_come_from_the_expected_arms() {
        let mut rng = SplitMix64::new(7001);
        let low = Hybrid::new(0.5).unwrap();
        for _ in 0..200 {
            match low.randomize(0.3, &mut rng).unwrap() {
                HybridReport::Sr(v) => assert!(v == 1.0 || v == -1.0),
                HybridReport::Pm(_) => panic!("PM arm must be off below eps*"),
            }
        }
        let high = Hybrid::new(3.0).unwrap();
        let mut pm_seen = 0;
        let n = 10_000;
        for _ in 0..n {
            if matches!(high.randomize(0.3, &mut rng).unwrap(), HybridReport::Pm(_)) {
                pm_seen += 1;
            }
        }
        let frac = f64::from(pm_seen) / f64::from(n);
        assert!(
            (frac - high.beta()).abs() < 0.02,
            "{frac} vs {}",
            high.beta()
        );
    }

    #[test]
    fn mean_estimate_is_unbiased() {
        for eps in [0.5, 1.0, 3.0] {
            let h = Hybrid::new(eps).unwrap();
            let mut rng = SplitMix64::new(7002);
            let values: Vec<f64> = (0..150_000)
                .map(|i| if i % 4 == 0 { 0.9 } else { -0.1 })
                .collect();
            // True mean: 0.25·0.9 − 0.75·0.1 = 0.15.
            let est = run(&h, &values, &mut rng).unwrap();
            assert!((est - 0.15).abs() < 0.03, "eps={eps}: {est}");
        }
    }

    #[test]
    fn variance_dominates_worst_component_at_extremes() {
        // At large eps the hybrid should be close to PM (better than SR);
        // at small eps it equals SR exactly.
        let v = 0.5;
        let small = Hybrid::new(0.4).unwrap();
        assert!((small.report_variance(v) - Sr::new(0.4).unwrap().report_variance(v)).abs() < 1e-9);
        let large = Hybrid::new(4.0).unwrap();
        let sr_var = Sr::new(4.0).unwrap().report_variance(v);
        assert!(large.report_variance(v) < sr_var);
    }

    #[test]
    fn empirical_variance_matches_formula() {
        let h = Hybrid::new(2.0).unwrap();
        let v = -0.3;
        let mut rng = SplitMix64::new(7003);
        let n = 300_000;
        let mut mean = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = h.debias(h.randomize(v, &mut rng).unwrap());
            mean += x;
            sq += x * x;
        }
        mean /= n as f64;
        let var = sq / n as f64 - mean * mean;
        let expect = h.report_variance(v);
        assert!((var - expect).abs() / expect < 0.05, "{var} vs {expect}");
    }

    #[test]
    fn rejects_out_of_domain() {
        let h = Hybrid::new(1.0).unwrap();
        let mut rng = SplitMix64::new(7004);
        assert!(h.randomize(1.2, &mut rng).is_err());
        assert_eq!(h.aggregate(&[]).unwrap(), 0.0);
    }
}
