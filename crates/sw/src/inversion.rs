//! Unbiased matrix-inversion reconstruction — the classical alternative to
//! EM that the workspace includes as an ablation baseline.
//!
//! If `y` is the normalized histogram of perturbed reports, then
//! `E[y] = M·x`, so `x̂ = M⁻¹·y` is the unbiased estimate of the input
//! distribution (Kairouz et al., ICML 2016 call this the *empirical*
//! estimator). It is cheap and exact in expectation but ignores the
//! constraint `x ≥ 0`, amplifying noise through the ill-conditioned
//! columns; Norm-Sub repairs the result into a distribution. Comparing this
//! against EM/EMS quantifies how much the paper's MLE machinery buys.

use crate::error::SwError;
use ldp_numeric::{Histogram, Matrix};

/// Norm-Sub over a signed vector (local copy of the CFO crate's algorithm
/// to keep `ldp-sw` dependency-light; see `ldp_cfo::postprocess` for the
/// annotated version).
fn norm_sub(estimates: &[f64], target: f64) -> Vec<f64> {
    let n = estimates.len();
    let mut x = estimates.to_vec();
    for _ in 0..=n {
        let mut positive = 0usize;
        let mut pos_sum = 0.0;
        for &v in &x {
            if v > 0.0 {
                positive += 1;
                pos_sum += v;
            }
        }
        if positive == 0 {
            return vec![target / n as f64; n];
        }
        let delta = (pos_sum - target) / positive as f64;
        let mut new_negative = false;
        for v in &mut x {
            if *v > 0.0 {
                *v -= delta;
                new_negative |= *v < 0.0;
            } else {
                *v = 0.0;
            }
        }
        for v in &mut x {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        if !new_negative {
            break;
        }
    }
    x
}

/// The ridge parameter used by [`invert_signed`]: tiny enough not to bias
/// well-conditioned systems, large enough to make the sinc-zero-singular
/// square-wave operators solvable.
pub const INVERSION_RIDGE: f64 = 1e-9;

/// The raw (signed) least-squares inversion estimate, solving
/// `min ‖M·x − counts/n‖² + λ‖x‖²` with a tiny ridge `λ`.
///
/// A plain inverse does not always exist: the square wave is a boxcar
/// kernel whose spectrum has sinc zeros, so for some `(b, d)` combinations
/// `M` is numerically singular. The ridge-regularized normal equations are
/// the standard remedy and coincide with `M⁻¹` when `M` is well
/// conditioned.
pub fn invert_signed(m: &Matrix, counts: &[f64]) -> Result<Vec<f64>, SwError> {
    if counts.len() != m.rows() {
        return Err(SwError::Reconstruction(format!(
            "got {} count buckets, transition matrix expects {}",
            counts.len(),
            m.rows()
        )));
    }
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return Err(SwError::Reconstruction(
            "need at least one report to reconstruct".into(),
        ));
    }
    let y: Vec<f64> = counts.iter().map(|&c| c / total).collect();
    m.ridge_solve(&y, INVERSION_RIDGE)
        .map_err(|e| SwError::Reconstruction(e.to_string()))
}

/// Full inversion baseline: unbiased inversion followed by Norm-Sub.
pub fn reconstruct_inversion(m: &Matrix, counts: &[f64]) -> Result<Histogram, SwError> {
    let signed = invert_signed(m, counts)?;
    let repaired = norm_sub(&signed, 1.0);
    Histogram::from_probs(repaired).map_err(|e| SwError::Reconstruction(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::transition_matrix;
    use crate::wave::Wave;
    use crate::{EmConfig, Reconstruction, SwPipeline};
    use ldp_numeric::SplitMix64;

    #[test]
    fn inversion_recovers_truth_from_expected_counts() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let d = 16;
        let m = transition_matrix(&wave, d, d).unwrap();
        let mut truth = vec![0.0; d];
        truth[2] = 0.4;
        truth[9] = 0.6;
        let expected = m.matvec(&truth).unwrap();
        let counts: Vec<f64> = expected.iter().map(|p| p * 1e6).collect();
        let signed = invert_signed(&m, &counts).unwrap();
        for (got, want) in signed.iter().zip(&truth) {
            // The tiny ridge introduces bias of order sqrt(lambda).
            assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        }
        let hist = reconstruct_inversion(&m, &counts).unwrap();
        for (got, want) in hist.probs().iter().zip(&truth) {
            assert!((got - want).abs() < 1e-4);
        }
    }

    #[test]
    fn inversion_validates_inputs() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let square = transition_matrix(&wave, 8, 8).unwrap();
        assert!(invert_signed(&square, &[1.0; 7]).is_err());
        assert!(invert_signed(&square, &[0.0; 8]).is_err());
    }

    #[test]
    fn inversion_supports_rectangular_matrices_via_least_squares() {
        // d̃ > d: overdetermined least squares.
        let wave = Wave::square(0.25, 2.0).unwrap();
        let m = transition_matrix(&wave, 8, 12).unwrap();
        let mut truth = vec![0.0; 8];
        truth[1] = 0.5;
        truth[6] = 0.5;
        let counts: Vec<f64> = m.matvec(&truth).unwrap().iter().map(|p| p * 1e6).collect();
        let signed = invert_signed(&m, &counts).unwrap();
        for (got, want) in signed.iter().zip(&truth) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn ems_beats_inversion_on_noisy_reports() {
        // The reason the paper uses MLE: at realistic noise the inversion
        // estimate is far noisier than EMS.
        let d = 64;
        let eps = 0.5;
        let pipeline = SwPipeline::new(eps, d).unwrap();
        let mut rng = SplitMix64::new(4001);
        // Smooth truth.
        let values: Vec<f64> = (0..40_000)
            .map(|i| 0.25 + 0.5 * ((i * 31) % 1000) as f64 / 1000.0)
            .collect();
        let mut truth_counts = vec![0.0; d];
        for &v in &values {
            truth_counts[ldp_numeric::histogram::bucket_of(v, d)] += 1.0;
        }
        let truth = Histogram::from_probs(truth_counts).unwrap();

        let reports: Vec<f64> = values
            .iter()
            .map(|&v| pipeline.wave().randomize(v, &mut rng).unwrap())
            .collect();
        let mut agg = crate::aggregator::ShardAggregator::for_pipeline(&pipeline);
        agg.push_slice(&reports).unwrap();
        let counts = agg.to_counts();
        let inv =
            reconstruct_inversion(&transition_matrix(pipeline.wave(), d, d).unwrap(), &counts)
                .unwrap();
        let ems = pipeline
            .reconstruct(&counts, &Reconstruction::Ems)
            .unwrap()
            .histogram;

        let w1 = |est: &Histogram| -> f64 {
            truth
                .cdf()
                .iter()
                .zip(est.cdf().iter())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / d as f64
        };
        assert!(
            w1(&ems) < w1(&inv),
            "EMS {} should beat inversion {}",
            w1(&ems),
            w1(&inv)
        );
    }

    #[test]
    fn inversion_and_em_agree_in_the_noiseless_limit() {
        let d = 16;
        let wave = Wave::square(0.2, 6.0).unwrap();
        let m = transition_matrix(&wave, d, d).unwrap();
        let mut truth = vec![1.0 / d as f64; d];
        truth[4] += 0.3;
        let s: f64 = truth.iter().sum();
        for t in &mut truth {
            *t /= s;
        }
        let counts: Vec<f64> = m.matvec(&truth).unwrap().iter().map(|p| p * 1e7).collect();
        let inv = reconstruct_inversion(&m, &counts).unwrap();
        let em = crate::em::reconstruct(
            &m,
            &counts,
            &EmConfig {
                ll_threshold: 1e-9,
                max_iterations: 100_000,
                min_iterations: 2,
                smoothing: None,
            },
        )
        .unwrap()
        .histogram;
        for ((a, b), t) in inv.probs().iter().zip(em.probs()).zip(&truth) {
            assert!((a - t).abs() < 1e-6, "inversion {a} vs truth {t}");
            assert!((b - t).abs() < 5e-3, "EM {b} vs truth {t}");
        }
    }
}
