//! [`Mechanism`] implementation for the Square Wave pipeline: the one API
//! through which SW randomizes, aggregates and estimates.
//!
//! [`SwMechanism`] couples an [`SwPipeline`] with the reconstruction the
//! aggregator runs, which is all the unified API needs: the client side is
//! wave perturbation, the streaming state is the [`ShardAggregator`] (a
//! d̃-bucket report histogram — O(d̃) regardless of the population), and
//! `finalize` runs EM/EMS through the structured operator. Pooled ingest
//! goes through [`ldp_core::Aggregator::push_slice_sharded`], whose shards
//! merge freely with hand-pushed streams.

use crate::aggregator::ShardAggregator;
use crate::bootstrap::{bootstrap, BootstrapConfig, BootstrapResult};
use crate::em::EmConfig;
use crate::error::SwError;
use crate::pipeline::{Reconstruction, SwPipeline};
use crate::wave::WaveShape;
use ldp_core::params::fingerprint_fields;
use ldp_core::{randomize_serial, CoreError, Domain, Epsilon, Mechanism};
use ldp_numeric::{Histogram, SplitMix64};
use rand::Rng;

const TAG_SW: u64 = 0x21;

/// The Square Wave mechanism under the unified `ldp-core` API: wave
/// perturbation on the client, streaming report histograms on the server,
/// EM/EMS reconstruction at finalize.
#[derive(Debug, Clone)]
pub struct SwMechanism {
    pipeline: SwPipeline,
    reconstruction: Reconstruction,
}

impl SwMechanism {
    /// The paper's recommended estimator: square wave, MI-optimal `b`,
    /// EMS reconstruction at granularity `d`.
    pub fn ems(eps: f64, d: usize) -> Result<Self, SwError> {
        Ok(SwMechanism {
            pipeline: SwPipeline::new(eps, d)?,
            reconstruction: Reconstruction::Ems,
        })
    }

    /// Square wave with plain EM reconstruction.
    pub fn em(eps: f64, d: usize) -> Result<Self, SwError> {
        Ok(SwMechanism {
            pipeline: SwPipeline::new(eps, d)?,
            reconstruction: Reconstruction::Em,
        })
    }

    /// Fully typed constructor over pre-validated parameters.
    pub fn new(eps: Epsilon, d: Domain, reconstruction: Reconstruction) -> Result<Self, SwError> {
        Ok(SwMechanism {
            pipeline: SwPipeline::new(eps.get(), d.get())?,
            reconstruction,
        })
    }

    /// Wraps an explicit pipeline (custom wave shape, `d̃ ≠ d`, …) — the
    /// low-level escape hatch.
    #[must_use]
    pub fn with_pipeline(pipeline: SwPipeline, reconstruction: Reconstruction) -> Self {
        SwMechanism {
            pipeline,
            reconstruction,
        }
    }

    /// The underlying pipeline.
    #[must_use]
    pub fn pipeline(&self) -> &SwPipeline {
        &self.pipeline
    }

    /// The reconstruction the aggregator runs at finalize.
    #[must_use]
    pub fn reconstruction(&self) -> &Reconstruction {
        &self.reconstruction
    }

    /// Poisson bootstrap over an aggregator's report histogram, running
    /// replicates on the shared worker pool through the structured
    /// operator.
    pub fn bootstrap<R: Rng + ?Sized>(
        &self,
        state: &ShardAggregator,
        config: &BootstrapConfig,
        rng: &mut R,
    ) -> Result<BootstrapResult, SwError> {
        bootstrap(self.pipeline.operator(), &state.to_counts(), config, rng)
    }

    fn reconstruction_fields(&self) -> [u64; 5] {
        match &self.reconstruction {
            Reconstruction::Em => [1, 0, 0, 0, 0],
            Reconstruction::Ems => [2, 0, 0, 0, 0],
            Reconstruction::Custom(EmConfig {
                ll_threshold,
                max_iterations,
                min_iterations,
                smoothing,
            }) => [
                3,
                ll_threshold.to_bits(),
                *max_iterations as u64,
                *min_iterations as u64,
                // Fold the full kernel weights in: two kernels of equal
                // radius but different weights finalize differently, so
                // their shards must not merge.
                smoothing.as_ref().map_or(0, |k| {
                    let bits: Vec<u64> = k.weights().iter().map(|w| w.to_bits()).collect();
                    fingerprint_fields(0x22, &bits) | 1
                }),
            ],
        }
    }
}

impl Mechanism for SwMechanism {
    type Input = f64;
    type Report = f64;
    type State = ShardAggregator;
    type Output = Histogram;

    fn epsilon(&self) -> Epsilon {
        Epsilon::new(self.pipeline.wave().epsilon()).expect("validated at construction")
    }

    fn fingerprint(&self) -> u64 {
        let wave = self.pipeline.wave();
        let shape = match wave.shape() {
            WaveShape::Square => 1,
            WaveShape::Triangle => 2,
            WaveShape::Trapezoid { ratio } => 0x100 | ratio.to_bits(),
        };
        let r = self.reconstruction_fields();
        fingerprint_fields(
            TAG_SW,
            &[
                wave.epsilon().to_bits(),
                wave.b().to_bits(),
                shape,
                self.pipeline.input_buckets() as u64,
                self.pipeline.output_buckets() as u64,
                r[0],
                r[1],
                r[2],
                r[3],
                r[4],
            ],
        )
    }

    fn randomize<R: Rng + ?Sized>(&self, input: &f64, rng: &mut R) -> Result<f64, CoreError> {
        self.pipeline
            .wave()
            .randomize(*input, rng)
            .map_err(|e| CoreError::InvalidInput(e.to_string()))
    }

    fn randomize_block<R: Rng + ?Sized>(
        &self,
        inputs: &[f64],
        rng: &mut R,
        out: &mut Vec<f64>,
    ) -> Result<(), CoreError> {
        // The square wave takes the block walk; the trapezoid and triangle
        // samplers, and blocks holding an invalid value, stay serial.
        let wave = self.pipeline.wave();
        if wave.shape() == WaveShape::Square && inputs.iter().all(|v| (0.0..=1.0).contains(v)) {
            if let Some(stream) = SplitMix64::block_stream(rng) {
                wave.randomize_square_block(inputs, stream, out);
                return Ok(());
            }
        }
        randomize_serial(self, inputs, rng, out)
    }

    fn empty_state(&self) -> ShardAggregator {
        ShardAggregator::for_pipeline(&self.pipeline)
    }

    fn absorb(&self, state: &mut ShardAggregator, report: &f64) -> Result<(), CoreError> {
        state
            .push(*report)
            .map_err(|e| CoreError::InvalidReport(e.to_string()))
    }

    fn absorb_slice(&self, state: &mut ShardAggregator, reports: &[f64]) -> Result<(), CoreError> {
        // Vectorized all-or-nothing bulk ingest: one validation pass, then
        // a branch-free counting pass (the batched-collection hot path).
        state
            .push_slice(reports)
            .map_err(|e| CoreError::InvalidReport(e.to_string()))
    }

    fn merge_state(
        &self,
        state: &mut ShardAggregator,
        other: &ShardAggregator,
    ) -> Result<(), CoreError> {
        state
            .merge(other)
            .map_err(|e| CoreError::ShardMismatch(e.to_string()))
    }

    fn finalize(&self, state: &ShardAggregator) -> Result<Histogram, CoreError> {
        if state.total() == 0 {
            return Err(CoreError::Aggregation(
                "need at least one report to reconstruct a distribution".into(),
            ));
        }
        self.pipeline
            .reconstruct(&state.to_counts(), &self.reconstruction)
            .map(|r| r.histogram)
            .map_err(|e| CoreError::Aggregation(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::{Aggregator, Client};
    use ldp_numeric::SplitMix64;

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i % 173) as f64 / 173.0).collect()
    }

    #[test]
    fn pooled_shards_merge_with_hand_pushed_streams() {
        let mech = SwMechanism::ems(1.0, 32).unwrap();
        let vals = values(6_000);
        let client = Client::new(&mech);
        // First half absorbed on the shared worker pool...
        let mut rng = SplitMix64::new(7);
        let reports = client.randomize_batch(&vals[..3_000], &mut rng).unwrap();
        let mut pooled = Aggregator::new(&mech);
        pooled.push_slice_sharded(&reports, 2).unwrap();
        // ...second half pushed by hand on another "collector".
        let mut rng = SplitMix64::new(8);
        let mut manual = Aggregator::new(&mech);
        for v in &vals[3_000..] {
            manual
                .push(&client.randomize(v, &mut rng).unwrap())
                .unwrap();
        }
        pooled.merge(&manual).unwrap();
        assert_eq!(pooled.count(), 6_000);
        let h = pooled.finalize().unwrap();
        assert_eq!(h.len(), 32);
        assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bootstrap_runs_over_aggregator_state() {
        let mech = SwMechanism::ems(1.0, 16).unwrap();
        let mut rng = SplitMix64::new(3);
        let reports = Client::new(&mech)
            .randomize_batch(&values(10_000), &mut rng)
            .unwrap();
        let mut agg = Aggregator::new(&mech);
        agg.push_slice(&reports).unwrap();
        let mut rng = SplitMix64::new(9);
        let config = BootstrapConfig {
            replicates: 5,
            ..BootstrapConfig::default()
        };
        let result = mech.bootstrap(agg.state(), &config, &mut rng).unwrap();
        assert_eq!(result.point.len(), 16);
    }

    #[test]
    fn empty_aggregator_refuses_to_finalize() {
        let mech = SwMechanism::ems(1.0, 16).unwrap();
        let agg = Aggregator::new(&mech);
        assert!(matches!(agg.finalize(), Err(CoreError::Aggregation(_))));
    }

    #[test]
    fn malformed_reports_are_rejected() {
        let mech = SwMechanism::ems(1.0, 16).unwrap();
        let mut agg = Aggregator::new(&mech);
        assert!(agg.push(&f64::NAN).is_err());
        assert!(agg.push(&-100.0).is_err());
        assert_eq!(agg.count(), 0);
    }

    #[test]
    fn fingerprints_distinguish_reconstruction_and_granularity() {
        let a = SwMechanism::ems(1.0, 32).unwrap().fingerprint();
        let b = SwMechanism::em(1.0, 32).unwrap().fingerprint();
        let c = SwMechanism::ems(1.0, 64).unwrap().fingerprint();
        let d = SwMechanism::ems(2.0, 32).unwrap().fingerprint();
        assert!(a != b && a != c && a != d);
        assert_eq!(a, SwMechanism::ems(1.0, 32).unwrap().fingerprint());
        // Mismatched configurations refuse to merge.
        let m1 = SwMechanism::ems(1.0, 32).unwrap();
        let m2 = SwMechanism::em(1.0, 32).unwrap();
        let mut agg1 = Aggregator::new(&m1);
        let agg2 = Aggregator::new(&m2);
        assert!(agg1.merge(&agg2).is_err());
    }

    #[test]
    fn fingerprints_distinguish_equal_radius_kernels() {
        use crate::smoothing::SmoothingKernel;
        let config = |kernel| {
            Reconstruction::Custom(EmConfig {
                ll_threshold: 0.0,
                max_iterations: 5,
                min_iterations: 1,
                smoothing: Some(kernel),
            })
        };
        let pipeline = SwPipeline::new(1.0, 16).unwrap();
        let a = SwMechanism::with_pipeline(pipeline.clone(), config(SmoothingKernel::binomial3()));
        let b = SwMechanism::with_pipeline(
            pipeline,
            config(SmoothingKernel::custom(vec![1.0, 1.0, 1.0]).unwrap()),
        );
        // Same radius, different weights -> different finalize behavior ->
        // shards must not merge.
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut agg = Aggregator::new(&a);
        assert!(agg.merge(&Aggregator::new(&b)).is_err());
    }

    #[test]
    fn typed_constructor_accepts_validated_parameters() {
        let eps = Epsilon::new(1.0).unwrap();
        let d = Domain::new(64).unwrap();
        let mech = SwMechanism::new(eps, d, Reconstruction::Ems).unwrap();
        assert_eq!(Mechanism::epsilon(&mech).get(), 1.0);
        assert_eq!(mech.pipeline().input_buckets(), 64);
    }
}
