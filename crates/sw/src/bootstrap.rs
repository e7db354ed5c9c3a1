//! Bootstrap confidence intervals for reconstructed distributions.
//!
//! EM/EMS gives a point estimate; a release-quality aggregator should also
//! say how much of the reconstruction is signal. This module implements the
//! **Poisson bootstrap** over the aggregated report histogram: each
//! replicate perturbs every output-bucket count `n_j → Poisson(n_j)`
//! (asymptotically equivalent to multinomial resampling, and embarrassingly
//! simple), re-runs the reconstruction, and collects percentile intervals
//! for every bucket and for derived statistics.
//!
//! Replicates are mutually independent EM runs, so they execute on the
//! shared [`ldp_pool`] worker pool: one job per replicate, each with its
//! own [`SplitMix64`] stream derived from a base seed drawn once from the
//! caller's RNG and the **replicate index**. Results are therefore
//! bit-identical regardless of pool size (`LDP_POOL_THREADS` included).

use crate::em::{reconstruct, EmConfig};
use crate::error::SwError;
use ldp_numeric::rng::mix64;
use ldp_numeric::{Histogram, LinearOperator, SplitMix64};
use rand::Rng;

/// Configuration of the bootstrap.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Number of bootstrap replicates (default 50).
    pub replicates: usize,
    /// Two-sided confidence level, e.g. 0.9 for a 90% interval.
    pub confidence: f64,
    /// Reconstruction configuration applied to every replicate.
    pub em: EmConfig,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        BootstrapConfig {
            replicates: 50,
            confidence: 0.9,
            em: EmConfig::ems(),
        }
    }
}

/// Point estimate plus per-bucket and per-statistic percentile intervals.
#[derive(Debug, Clone)]
pub struct BootstrapResult {
    /// Reconstruction from the original counts.
    pub point: Histogram,
    /// Per-bucket lower interval bounds.
    pub lower: Vec<f64>,
    /// Per-bucket upper interval bounds.
    pub upper: Vec<f64>,
    /// Interval for the distribution mean.
    pub mean_interval: (f64, f64),
    /// Interval for the median (0.5-quantile).
    pub median_interval: (f64, f64),
    /// Replicates actually used.
    pub replicates: usize,
}

/// Samples `Poisson(mean)` — Knuth's product method for small means, the
/// rounded-normal approximation for large ones (error negligible above 30).
fn sample_poisson<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    debug_assert!(mean >= 0.0);
    if mean == 0.0 {
        return 0.0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut product: f64 = rng.gen();
        let mut count = 0.0;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1.0;
        }
        count
    } else {
        // Box-Muller normal approximation.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (mean + z * mean.sqrt()).round().max(0.0)
    }
}

/// Percentile of a sorted sample (nearest-rank with clamping).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One pool job: a resampled reconstruction plus its derived statistics.
/// `None` marks a degenerate replicate (all resampled counts zero).
type Replicate = Option<(Histogram, f64, f64)>;

/// Runs the bootstrap. `m` and `counts` are exactly what
/// [`crate::em::reconstruct`] takes — pass
/// [`SwPipeline::operator`](crate::pipeline::SwPipeline::operator) to run
/// every replicate through the structured `O(d)` path.
///
/// Replicates run concurrently on the shared worker pool; `rng` is drawn
/// from exactly once (for the base seed of the per-replicate streams), so
/// the result depends only on `(m, counts, config)` and that one draw.
pub fn bootstrap<R: Rng + ?Sized, M: LinearOperator + Sync + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &BootstrapConfig,
    rng: &mut R,
) -> Result<BootstrapResult, SwError> {
    if config.replicates < 2 {
        return Err(SwError::InvalidParameter(
            "bootstrap needs at least 2 replicates".into(),
        ));
    }
    if !(0.0 < config.confidence && config.confidence < 1.0) {
        return Err(SwError::InvalidParameter(format!(
            "confidence must be in (0, 1), got {}",
            config.confidence
        )));
    }
    let point = reconstruct(m, counts, &config.em)?.histogram;
    let d = point.len();

    let base_seed = rng.next_u64();
    let replicates: Vec<Result<Replicate, SwError>> = ldp_pool::global()
        .run(config.replicates, |i| {
            let mut rng = SplitMix64::new(mix64(base_seed ^ mix64(i as u64 + 1)));
            let mut resampled = vec![0.0; counts.len()];
            for (r, &c) in resampled.iter_mut().zip(counts.iter()) {
                *r = sample_poisson(c, &mut rng);
            }
            if resampled.iter().sum::<f64>() <= 0.0 {
                // Degenerate replicate (possible only for tiny populations).
                return Ok(None);
            }
            let h = reconstruct(m, &resampled, &config.em)?.histogram;
            let mean = h.mean();
            let median = h.quantile(0.5);
            Ok(Some((h, mean, median)))
        })
        .map_err(|_| SwError::Reconstruction("bootstrap replicate panicked".into()))?;

    let mut bucket_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(config.replicates); d];
    let mut mean_samples = Vec::with_capacity(config.replicates);
    let mut median_samples = Vec::with_capacity(config.replicates);
    for replicate in replicates {
        let Some((h, mean, median)) = replicate? else {
            continue;
        };
        for (samples, &p) in bucket_samples.iter_mut().zip(h.probs()) {
            samples.push(p);
        }
        mean_samples.push(mean);
        median_samples.push(median);
    }
    let used = mean_samples.len();
    if used < 2 {
        return Err(SwError::Reconstruction(
            "all bootstrap replicates were degenerate".into(),
        ));
    }

    let alpha = (1.0 - config.confidence) / 2.0;
    let mut lower = Vec::with_capacity(d);
    let mut upper = Vec::with_capacity(d);
    for samples in &mut bucket_samples {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("probabilities are finite"));
        lower.push(percentile(samples, alpha));
        upper.push(percentile(samples, 1.0 - alpha));
    }
    let interval = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite statistics"));
        (percentile(&v, alpha), percentile(&v, 1.0 - alpha))
    };
    Ok(BootstrapResult {
        point,
        lower,
        upper,
        mean_interval: interval(mean_samples),
        median_interval: interval(median_samples),
        replicates: used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Reconstruction, SwPipeline};
    use crate::transition::transition_matrix;
    use ldp_numeric::Matrix;
    use ldp_numeric::SplitMix64;

    /// The dense transition matrix of `pipeline`.
    fn dense(pipeline: &SwPipeline) -> Matrix {
        let d = pipeline.input_buckets();
        transition_matrix(pipeline.wave(), d, d).unwrap()
    }

    fn counts_for(n: usize, seed: u64, d: usize) -> (SwPipeline, Vec<f64>, Histogram) {
        let pipeline = SwPipeline::new(1.0, d).unwrap();
        let mut rng = SplitMix64::new(seed);
        let values: Vec<f64> = (0..n)
            .map(|i| 0.3 + 0.4 * ((i % 97) as f64 / 97.0))
            .collect();
        let mut agg = crate::aggregator::ShardAggregator::for_pipeline(&pipeline);
        for &v in &values {
            agg.push(pipeline.wave().randomize(v, &mut rng).unwrap())
                .unwrap();
        }
        let counts = agg.to_counts();
        let truth = Histogram::from_samples(&values, d).unwrap();
        (pipeline, counts, truth)
    }

    #[test]
    fn poisson_sampler_matches_mean_and_variance() {
        let mut rng = SplitMix64::new(8001);
        for &mean in &[0.5, 5.0, 100.0] {
            let n = 20_000;
            let xs: Vec<f64> = (0..n).map(|_| sample_poisson(mean, &mut rng)).collect();
            let m = ldp_numeric::stats::mean(&xs);
            let v = ldp_numeric::stats::variance(&xs);
            assert!(
                (m - mean).abs() < mean.sqrt() * 0.1 + 0.05,
                "mean {m} vs {mean}"
            );
            assert!((v - mean).abs() < mean * 0.15 + 0.1, "var {v} vs {mean}");
        }
        assert_eq!(sample_poisson(0.0, &mut rng), 0.0);
    }

    #[test]
    fn intervals_bracket_the_point_estimate() {
        let (pipeline, counts, _) = counts_for(20_000, 8002, 32);
        let mut rng = SplitMix64::new(8003);
        let result = bootstrap(
            &dense(&pipeline),
            &counts,
            &BootstrapConfig {
                replicates: 30,
                ..BootstrapConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(result.lower.len(), 32);
        let mut inside = 0;
        for i in 0..32 {
            assert!(result.lower[i] <= result.upper[i] + 1e-12);
            if result.point.probs()[i] >= result.lower[i] - 1e-9
                && result.point.probs()[i] <= result.upper[i] + 1e-9
            {
                inside += 1;
            }
        }
        // The point estimate should sit inside most of its own intervals.
        assert!(inside >= 28, "only {inside}/32 buckets bracket the point");
        let (lo, hi) = result.mean_interval;
        assert!(lo <= result.point.mean() && result.point.mean() <= hi);
    }

    #[test]
    fn more_users_give_tighter_intervals() {
        let mut rng = SplitMix64::new(8004);
        let mut width = |n: usize, seed: u64| -> f64 {
            let (pipeline, counts, _) = counts_for(n, seed, 16);
            let r = bootstrap(
                &dense(&pipeline),
                &counts,
                &BootstrapConfig {
                    replicates: 30,
                    ..BootstrapConfig::default()
                },
                &mut rng,
            )
            .unwrap();
            r.upper
                .iter()
                .zip(&r.lower)
                .map(|(u, l)| u - l)
                .sum::<f64>()
        };
        let small = width(2_000, 8005);
        let large = width(80_000, 8006);
        assert!(
            large < small,
            "interval width should shrink with n: {large} vs {small}"
        );
    }

    #[test]
    fn median_interval_contains_truth_at_reasonable_scale() {
        let (pipeline, counts, truth) = counts_for(60_000, 8007, 32);
        let mut rng = SplitMix64::new(8008);
        let result = bootstrap(
            &dense(&pipeline),
            &counts,
            &BootstrapConfig::default(),
            &mut rng,
        )
        .unwrap();
        let (lo, hi) = result.median_interval;
        let true_median = truth.quantile(0.5);
        // Allow slack: the bootstrap covers sampling noise, not mechanism
        // bias, so require proximity rather than strict coverage.
        assert!(
            true_median > lo - 0.05 && true_median < hi + 0.05,
            "median {true_median} vs [{lo}, {hi}]"
        );
    }

    #[test]
    fn validates_config() {
        let (pipeline, counts, _) = counts_for(1_000, 8009, 16);
        let mut rng = SplitMix64::new(8010);
        let bad = BootstrapConfig {
            replicates: 1,
            ..BootstrapConfig::default()
        };
        assert!(bootstrap(&dense(&pipeline), &counts, &bad, &mut rng).is_err());
        let bad = BootstrapConfig {
            confidence: 1.5,
            ..BootstrapConfig::default()
        };
        assert!(bootstrap(&dense(&pipeline), &counts, &bad, &mut rng).is_err());
    }

    #[test]
    fn point_estimate_matches_direct_reconstruction() {
        let (pipeline, counts, _) = counts_for(10_000, 8011, 16);
        let mut rng = SplitMix64::new(8012);
        // Run the bootstrap through the same structured operator
        // `pipeline.reconstruct` applies, so the point estimates are
        // bit-identical.
        let result = bootstrap(
            pipeline.operator(),
            &counts,
            &BootstrapConfig::default(),
            &mut rng,
        )
        .unwrap();
        let direct = pipeline
            .reconstruct(&counts, &Reconstruction::Ems)
            .unwrap()
            .histogram;
        assert_eq!(result.point.probs(), direct.probs());
    }
}
