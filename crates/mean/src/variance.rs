//! Two-phase variance estimation (paper §6.3).
//!
//! SR and PM estimate means; the paper extends them to variances by
//! splitting the population: half the users estimate the mean `μ̂`; the
//! aggregator broadcasts `μ̂`, and each remaining user reports the squared
//! deviation `(vᵢ − μ̂)²` through the same mechanism, whose average
//! estimates `E[(v − μ̂)²] ≈ σ²`.
//!
//! Values live in the dataset domain `[0, 1]`; deviations `(v − μ̂)² ∈ [0, 1]`
//! are mapped to the mechanisms' `[-1, 1]` domain and back.

use crate::error::MeanError;
use crate::mechanism::run;
use crate::pm::Pm;
use crate::sr::{from_signed, to_signed, Sr};
use rand::Rng;

/// Which base mechanism carries the reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeanMechanism {
    /// Stochastic Rounding.
    Sr,
    /// Piecewise Mechanism.
    Pm,
}

/// A mean + variance estimation protocol over values in `[0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct MeanVariance {
    mechanism: MeanMechanism,
    eps: f64,
}

/// Result of the two-phase protocol.
#[derive(Debug, Clone, Copy)]
pub struct MeanVarianceEstimate {
    /// Estimated mean in `[0, 1]` (clamped).
    pub mean: f64,
    /// Estimated variance (clamped to be non-negative).
    pub variance: f64,
}

impl MeanVariance {
    /// Creates the protocol.
    pub fn new(mechanism: MeanMechanism, eps: f64) -> Result<Self, MeanError> {
        // Validate eps eagerly via a mechanism constructor.
        match mechanism {
            MeanMechanism::Sr => {
                Sr::new(eps)?;
            }
            MeanMechanism::Pm => {
                Pm::new(eps)?;
            }
        }
        Ok(MeanVariance { mechanism, eps })
    }

    /// The underlying mechanism.
    #[must_use]
    pub fn mechanism(&self) -> MeanMechanism {
        self.mechanism
    }

    /// Estimates only the mean, using the full population (what Figure 4's
    /// first row evaluates: "SR and PM devote all privacy budget to estimate
    /// mean").
    pub fn estimate_mean<R: Rng + ?Sized>(
        &self,
        values01: &[f64],
        rng: &mut R,
    ) -> Result<f64, MeanError> {
        let signed: Vec<f64> = values01
            .iter()
            .map(|&v| to_signed(v.clamp(0.0, 1.0)))
            .collect();
        let est = self.run_mechanism(&signed, rng)?;
        Ok(from_signed(est.clamp(-1.0, 1.0)))
    }

    /// Runs the full two-phase protocol: the first half of the (shuffled
    /// by the caller if needed) population estimates the mean, the second
    /// half the variance.
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        values01: &[f64],
        rng: &mut R,
    ) -> Result<MeanVarianceEstimate, MeanError> {
        if values01.len() < 2 {
            return Err(MeanError::InvalidParameter(
                "variance protocol needs at least 2 users".into(),
            ));
        }
        // Random 50/50 split: each user flips a fair coin for its phase.
        let mut phase1 = Vec::with_capacity(values01.len() / 2 + 1);
        let mut phase2 = Vec::with_capacity(values01.len() / 2 + 1);
        for &v in values01 {
            if rng.gen::<bool>() {
                phase1.push(v.clamp(0.0, 1.0));
            } else {
                phase2.push(v.clamp(0.0, 1.0));
            }
        }
        if phase1.is_empty() || phase2.is_empty() {
            // Degenerate split (only possible for tiny populations).
            phase1 = values01[..values01.len() / 2].to_vec();
            phase2 = values01[values01.len() / 2..].to_vec();
        }

        let signed1: Vec<f64> = phase1.iter().map(|&v| to_signed(v)).collect();
        let mean_signed = self.run_mechanism(&signed1, rng)?.clamp(-1.0, 1.0);
        let mean = from_signed(mean_signed);

        // Phase 2: report (v - μ̂)² ∈ [0, 1] through the mechanism.
        let signed2: Vec<f64> = phase2
            .iter()
            .map(|&v| {
                let dev = (v - mean) * (v - mean);
                to_signed(dev.clamp(0.0, 1.0))
            })
            .collect();
        let var_signed = self.run_mechanism(&signed2, rng)?.clamp(-1.0, 1.0);
        let variance = from_signed(var_signed).max(0.0);

        Ok(MeanVarianceEstimate { mean, variance })
    }

    fn run_mechanism<R: Rng + ?Sized>(
        &self,
        signed: &[f64],
        rng: &mut R,
    ) -> Result<f64, MeanError> {
        match self.mechanism {
            MeanMechanism::Sr => Ok(run(&Sr::new(self.eps)?, signed, rng)?),
            MeanMechanism::Pm => Ok(run(&Pm::new(self.eps)?, signed, rng)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_numeric::stats;
    use ldp_numeric::SplitMix64;

    fn workload() -> Vec<f64> {
        // Bimodal values in [0, 1]: mean 0.5, variance 0.09 + small term.
        (0..100_000)
            .map(|i| if i % 2 == 0 { 0.2 } else { 0.8 })
            .collect()
    }

    #[test]
    fn construction_validates() {
        assert!(MeanVariance::new(MeanMechanism::Sr, 1.0).is_ok());
        assert!(MeanVariance::new(MeanMechanism::Pm, 0.0).is_err());
    }

    #[test]
    fn mean_estimation_is_accurate_for_both_mechanisms() {
        for mech in [MeanMechanism::Sr, MeanMechanism::Pm] {
            let proto = MeanVariance::new(mech, 2.0).unwrap();
            let mut rng = SplitMix64::new(161);
            let est = proto.estimate_mean(&workload(), &mut rng).unwrap();
            assert!((est - 0.5).abs() < 0.02, "{mech:?}: {est}");
        }
    }

    #[test]
    fn variance_estimation_is_accurate_for_both_mechanisms() {
        let values = workload();
        let truth = stats::variance(&values);
        for mech in [MeanMechanism::Sr, MeanMechanism::Pm] {
            let proto = MeanVariance::new(mech, 2.0).unwrap();
            let mut rng = SplitMix64::new(162);
            let est = proto.estimate(&values, &mut rng).unwrap();
            assert!(
                (est.variance - truth).abs() < 0.03,
                "{mech:?}: {} vs {truth}",
                est.variance
            );
            assert!((est.mean - 0.5).abs() < 0.03);
        }
    }

    #[test]
    fn estimates_are_clamped_to_valid_ranges() {
        // Tiny populations with extreme noise must still give mean in [0,1]
        // and non-negative variance.
        let proto = MeanVariance::new(MeanMechanism::Sr, 0.1).unwrap();
        for seed in 0..50 {
            let mut rng = SplitMix64::new(163 + seed);
            let est = proto.estimate(&[0.0, 1.0, 0.5, 0.2], &mut rng).unwrap();
            assert!((0.0..=1.0).contains(&est.mean));
            assert!(est.variance >= 0.0);
        }
    }

    #[test]
    fn rejects_tiny_populations() {
        let proto = MeanVariance::new(MeanMechanism::Pm, 1.0).unwrap();
        let mut rng = SplitMix64::new(164);
        assert!(proto.estimate(&[0.5], &mut rng).is_err());
    }

    #[test]
    fn out_of_range_values_are_clamped_not_rejected() {
        // Dataset preprocessing clamps, mirroring the paper's extraction
        // step; the protocol should tolerate slight overshoot.
        let proto = MeanVariance::new(MeanMechanism::Sr, 1.0).unwrap();
        let mut rng = SplitMix64::new(165);
        let est = proto.estimate_mean(&[1.2, -0.1, 0.5, 0.5], &mut rng);
        assert!(est.is_ok());
    }
}
