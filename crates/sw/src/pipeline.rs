//! The Square Wave pipeline configuration: a wave plus the structured
//! transition operator between its `d` input and `d̃` output buckets.
//!
//! [`SwPipeline`] is what [`crate::SwMechanism`] runs. The client perturbs
//! one private value in `[0, 1]` with the pipeline's [`Wave`], the
//! aggregator histograms the reports in a [`crate::ShardAggregator`]
//! ("randomize before bucketize", §5.4), and [`SwPipeline::reconstruct`]
//! runs EM/EMS through the transition operator to recover the input
//! distribution. Build one directly for a custom wave or `d̃ ≠ d`.

use crate::bandwidth::optimal_b;
use crate::em::{reconstruct, EmConfig, EmResult};
use crate::error::SwError;
use crate::operator::BandedBaselineOperator;
use crate::wave::{Wave, WaveShape};

/// Which reconstruction the aggregator runs.
#[derive(Debug, Clone)]
pub enum Reconstruction {
    /// Plain EM with the paper's `τ = 10⁻³·eᵉ` stopping rule.
    Em,
    /// EM with smoothing (the paper's recommended estimator).
    Ems,
    /// Fully custom configuration.
    Custom(EmConfig),
}

/// A configured Square Wave (or general wave) estimation pipeline.
///
/// Reconstruction runs through the structured
/// [`BandedBaselineOperator`], so it never pays the `O(d̃·d)` construction
/// or memory of the dense matrix. Entrywise consumers (the inversion
/// baseline) build that matrix themselves with
/// [`crate::transition::transition_matrix`].
#[derive(Debug, Clone)]
pub struct SwPipeline {
    wave: Wave,
    d: usize,
    d_tilde: usize,
    operator: BandedBaselineOperator,
}

impl SwPipeline {
    /// The paper's default: square wave, mutual-information-optimal `b`,
    /// `d̃ = d` output buckets.
    pub fn new(eps: f64, d: usize) -> Result<Self, SwError> {
        let b = optimal_b(eps)?;
        let wave = Wave::square(b, eps)?;
        Self::with_wave(wave, d, d)
    }

    /// A pipeline over an explicit wave and bucket counts (used by the
    /// Figure 5/6/7 ablations).
    pub fn with_wave(wave: Wave, d: usize, d_tilde: usize) -> Result<Self, SwError> {
        if d < 2 || d_tilde < 2 {
            return Err(SwError::InvalidParameter(format!(
                "need at least 2 buckets on both sides, got d={d}, d_tilde={d_tilde}"
            )));
        }
        let operator = BandedBaselineOperator::from_wave(&wave, d, d_tilde)?;
        Ok(SwPipeline {
            wave,
            d,
            d_tilde,
            operator,
        })
    }

    /// The wave in use.
    #[must_use]
    pub fn wave(&self) -> &Wave {
        &self.wave
    }

    /// Input granularity `d`.
    #[must_use]
    pub fn input_buckets(&self) -> usize {
        self.d
    }

    /// Output granularity `d̃`.
    #[must_use]
    pub fn output_buckets(&self) -> usize {
        self.d_tilde
    }

    /// The structured `O(d)`-matvec form of the transition matrix. This is
    /// what [`Self::reconstruct`] applies; use it wherever a
    /// [`ldp_numeric::LinearOperator`] is accepted (e.g.
    /// [`crate::bootstrap::bootstrap`]) to stay on the fast path.
    #[must_use]
    pub fn operator(&self) -> &BandedBaselineOperator {
        &self.operator
    }

    /// Server side: reconstructs the input distribution from aggregated
    /// counts.
    pub fn reconstruct(
        &self,
        counts: &[f64],
        method: &Reconstruction,
    ) -> Result<EmResult, SwError> {
        let config = match method {
            Reconstruction::Em => EmConfig::em(self.wave.epsilon()),
            Reconstruction::Ems => EmConfig::ems(),
            Reconstruction::Custom(c) => c.clone(),
        };
        reconstruct(&self.operator, counts, &config)
    }
}

/// Convenience constructor for the Figure 5 wave-shape sweep.
pub fn pipeline_with_shape(
    shape: WaveShape,
    b: f64,
    eps: f64,
    d: usize,
) -> Result<SwPipeline, SwError> {
    SwPipeline::with_wave(Wave::new(shape, b, eps)?, d, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::SwMechanism;
    use ldp_core::{Client, CoreError, Mechanism};
    use ldp_numeric::dist::{Beta, Sampler};
    use ldp_numeric::{Histogram, SplitMix64};

    /// Randomizes `values` through a [`SwMechanism`] over `pipeline` and
    /// aggregates the reports.
    fn estimate(
        pipeline: &SwPipeline,
        values: &[f64],
        method: Reconstruction,
        rng: &mut SplitMix64,
    ) -> Result<Histogram, CoreError> {
        let mech = SwMechanism::with_pipeline(pipeline.clone(), method);
        let reports = Client::new(&mech).randomize_batch(values, rng)?;
        mech.aggregate(&reports)
    }

    #[test]
    fn construction_validates() {
        assert!(SwPipeline::new(0.0, 64).is_err());
        assert!(SwPipeline::new(1.0, 1).is_err());
        assert!(SwPipeline::new(1.0, 64).is_ok());
    }

    #[test]
    fn ems_recovers_beta_distribution_shape() {
        let d = 64;
        let pipeline = SwPipeline::new(1.0, d).unwrap();
        let mut rng = SplitMix64::new(131);
        let beta = Beta::new(5.0, 2.0).unwrap();
        let values = beta.sample_n(&mut rng, 100_000);
        let truth = Histogram::from_samples(&values, d).unwrap();
        let est = estimate(&pipeline, &values, Reconstruction::Ems, &mut rng).unwrap();
        // Wasserstein distance between CDFs should be small.
        let mut w1 = 0.0;
        let (tc, ec) = (truth.cdf(), est.cdf());
        for (a, b) in tc.iter().zip(&ec) {
            w1 += (a - b).abs() / d as f64;
        }
        assert!(w1 < 0.02, "W1 = {w1}");
        // Mode of Beta(5,2) is 0.8; reconstruction should peak in the right
        // half.
        let peak = est
            .probs()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak > d / 2, "peak at bucket {peak}");
    }

    #[test]
    fn em_and_ems_both_run_through_pipeline() {
        let pipeline = SwPipeline::new(0.5, 32).unwrap();
        let mut rng = SplitMix64::new(132);
        let values: Vec<f64> = (0..20_000).map(|i| (i % 1000) as f64 / 1000.0).collect();
        for method in [Reconstruction::Em, Reconstruction::Ems] {
            let h = estimate(&pipeline, &values, method, &mut rng).unwrap();
            assert_eq!(h.len(), 32);
            assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn custom_reconstruction_config_is_honored() {
        let pipeline = SwPipeline::new(1.0, 16).unwrap();
        let counts = vec![100.0; 16];
        let custom = Reconstruction::Custom(EmConfig {
            ll_threshold: 0.0,
            max_iterations: 3,
            min_iterations: 4,
            smoothing: None,
        });
        let r = pipeline.reconstruct(&counts, &custom).unwrap();
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }

    #[test]
    fn estimate_rejects_empty_and_bad_values() {
        let pipeline = SwPipeline::new(1.0, 16).unwrap();
        let mut rng = SplitMix64::new(133);
        assert!(estimate(&pipeline, &[], Reconstruction::Ems, &mut rng).is_err());
        assert!(estimate(&pipeline, &[2.0], Reconstruction::Ems, &mut rng).is_err());
    }

    #[test]
    fn different_output_granularity_is_supported() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let pipeline = SwPipeline::with_wave(wave, 16, 24).unwrap();
        assert_eq!(pipeline.input_buckets(), 16);
        assert_eq!(pipeline.output_buckets(), 24);
        let mut rng = SplitMix64::new(134);
        let values: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64 / 100.0).collect();
        let h = estimate(&pipeline, &values, Reconstruction::Ems, &mut rng).unwrap();
        assert_eq!(h.len(), 16);
    }

    #[test]
    fn shape_helper_builds_all_shapes() {
        for shape in [
            WaveShape::Square,
            WaveShape::Trapezoid { ratio: 0.6 },
            WaveShape::Triangle,
        ] {
            assert!(pipeline_with_shape(shape, 0.2, 1.0, 16).is_ok());
        }
    }
}
