//! Expectation Maximization over aggregated report counts
//! (paper §5.5, Algorithm 1, Appendix A), with the optional smoothing step
//! that turns EM into EMS.
//!
//! Given the column-stochastic transition matrix `M` and the histogram of
//! perturbed reports `n_j`, one EM iteration performs
//!
//! ```text
//! E-step:  Pᵢ = x̂ᵢ · Σⱼ nⱼ · Mⱼᵢ / (M·x̂)ⱼ
//! M-step:  x̂ᵢ = Pᵢ / Σ Pᵢ
//! S-step:  (EMS only) binomial smoothing of x̂
//! ```
//!
//! The loop stops when the log-likelihood `L = Σⱼ nⱼ ln (M·x̂)ⱼ` improves by
//! less than a threshold (paper §6.1 uses `τ = 10⁻³·eᵉ` for EM and
//! `τ = 10⁻³` for EMS), with an L1-change safeguard and an iteration cap —
//! the theorem 5.6 concavity guarantees convergence to the MLE for plain
//! EM.
//!
//! The transition matrix is only ever *applied*, so [`reconstruct`] is
//! generic over [`LinearOperator`]: pass the dense
//! [`Matrix`](ldp_numeric::Matrix) or the `O(d)`
//! [`crate::operator::BandedBaselineOperator`] interchangeably. The loop is
//! also *fused*: the `M·x̂` computed for the log-likelihood of iteration `k`
//! is exactly the E-step conditional of iteration `k + 1`, so each
//! iteration performs one forward and one transposed application instead of
//! two forward plus one transposed.
//!
//! Per iteration the loop is therefore: one `M·x̂`, one `Mᵀ·ratio`, `d̃`
//! divisions for the ratios, `d̃` logarithms for the log-likelihood, the
//! M-step normalization and (EMS) one smoothing pass. With the banded
//! operator both applications are `O(d + d̃)` walks over its
//! edge-length classes (see [`crate::operator`]), and
//! [`SmoothingKernel::smooth_into`] handles interior entries without
//! boundary tests. Every step keeps a fixed floating-point operation order,
//! so the iterates, the iteration count and the estimate do not depend on
//! the SIMD mode or the pool size.

use crate::error::SwError;
use crate::smoothing::SmoothingKernel;
use ldp_numeric::{Histogram, LinearOperator};

/// Configuration of the EM/EMS loop.
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Stop once the absolute log-likelihood improvement drops below this.
    pub ll_threshold: f64,
    /// Hard cap on iterations.
    pub max_iterations: usize,
    /// Run at least this many iterations before testing convergence.
    pub min_iterations: usize,
    /// Optional S-step kernel; `Some` makes this EMS.
    pub smoothing: Option<SmoothingKernel>,
}

impl EmConfig {
    /// The paper's plain-EM configuration: `τ = 10⁻³·eᵉ`, no smoothing.
    #[must_use]
    pub fn em(eps: f64) -> Self {
        EmConfig {
            ll_threshold: 1e-3 * eps.exp(),
            max_iterations: 10_000,
            min_iterations: 2,
            smoothing: None,
        }
    }

    /// The paper's EMS configuration: `τ = 10⁻³`, binomial (1,2,1) S-step.
    #[must_use]
    pub fn ems() -> Self {
        EmConfig {
            ll_threshold: 1e-3,
            max_iterations: 10_000,
            min_iterations: 2,
            smoothing: Some(SmoothingKernel::binomial3()),
        }
    }
}

/// Outcome of a reconstruction run.
#[derive(Debug, Clone)]
pub struct EmResult {
    /// The reconstructed input distribution (valid histogram).
    pub histogram: Histogram,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Final log-likelihood `Σⱼ nⱼ ln (M·x̂)ⱼ`.
    pub log_likelihood: f64,
    /// Whether the log-likelihood test triggered (vs the iteration cap).
    pub converged: bool,
}

/// Runs EM (or EMS, when `config.smoothing` is set) on aggregated counts.
///
/// `counts[j]` is the number of reports landing in output bucket `j`; it
/// must have the operator's row count. Fractional counts are permitted (the
/// experiment harness sometimes feeds normalized histograms).
///
/// `m` is any [`LinearOperator`] — the dense transition
/// [`Matrix`](ldp_numeric::Matrix) and the structured
/// [`BandedBaselineOperator`](crate::operator::BandedBaselineOperator)
/// produce the same reconstruction, the latter in `O(d)` per iteration.
pub fn reconstruct<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &EmConfig,
) -> Result<EmResult, SwError> {
    let d = m.cols();
    let d_tilde = m.rows();
    if counts.len() != d_tilde {
        return Err(SwError::Reconstruction(format!(
            "got {} count buckets, transition matrix expects {d_tilde}",
            counts.len()
        )));
    }
    if counts.iter().any(|&c| c < 0.0 || !c.is_finite()) {
        return Err(SwError::Reconstruction(
            "counts must be finite and non-negative".into(),
        ));
    }
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return Err(SwError::Reconstruction(
            "need at least one report to reconstruct".into(),
        ));
    }
    if config.max_iterations == 0 {
        return Err(SwError::InvalidParameter(
            "max_iterations must be positive".into(),
        ));
    }
    if !(config.ll_threshold >= 0.0) {
        return Err(SwError::InvalidParameter(
            "ll_threshold must be non-negative".into(),
        ));
    }

    let mut theta = vec![1.0 / d as f64; d];
    let mut cond = vec![0.0; d_tilde];
    let mut ratio = vec![0.0; d_tilde];
    let mut tmp = vec![0.0; d];
    let mut smoothed = vec![0.0; d];

    let mut old_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    let mut log_likelihood = f64::NEG_INFINITY;

    // Prime `cond = M·θ` once; inside the loop the log-likelihood
    // application of iteration k doubles as the E-step conditional of
    // iteration k + 1, halving the forward applications.
    m.matvec_into(&theta, &mut cond)
        .map_err(|e| SwError::Reconstruction(e.to_string()))?;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;

        // E-step: ratio_j = n_j / (M·θ)_j, tmp = Mᵀ·ratio.
        for j in 0..d_tilde {
            ratio[j] = if cond[j] > 0.0 {
                counts[j] / cond[j]
            } else {
                0.0
            };
        }
        m.matvec_transpose_into(&ratio, &mut tmp)
            .map_err(|e| SwError::Reconstruction(e.to_string()))?;

        // M-step: θᵢ ∝ θᵢ·tmpᵢ.
        let mut sum = 0.0;
        for i in 0..d {
            theta[i] *= tmp[i];
            sum += theta[i];
        }
        if sum <= 0.0 {
            return Err(SwError::Reconstruction(
                "EM iterate collapsed to zero mass".into(),
            ));
        }
        for t in &mut theta {
            *t /= sum;
        }

        // S-step.
        if let Some(kernel) = &config.smoothing {
            kernel.smooth_into(&theta, &mut smoothed);
            theta.copy_from_slice(&smoothed);
            let s: f64 = theta.iter().sum();
            for t in &mut theta {
                *t /= s;
            }
        }

        // Log-likelihood of the updated iterate; `cond` is reused as the
        // next iteration's E-step conditional.
        m.matvec_into(&theta, &mut cond)
            .map_err(|e| SwError::Reconstruction(e.to_string()))?;
        log_likelihood = 0.0;
        for j in 0..d_tilde {
            if counts[j] > 0.0 {
                if cond[j] <= 0.0 {
                    log_likelihood = f64::NEG_INFINITY;
                    break;
                }
                log_likelihood += counts[j] * cond[j].ln();
            }
        }

        if iterations >= config.min_iterations.max(1)
            && (log_likelihood - old_ll).abs() < config.ll_threshold
        {
            converged = true;
            break;
        }
        old_ll = log_likelihood;
    }

    let histogram =
        Histogram::from_probs(theta).map_err(|e| SwError::Reconstruction(e.to_string()))?;
    Ok(EmResult {
        histogram,
        iterations,
        log_likelihood,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::BandedBaselineOperator;
    use crate::transition::transition_matrix;
    use crate::wave::Wave;
    use ldp_numeric::Matrix;

    /// Exact expected counts for a known input distribution — EM must
    /// recover the input from noiseless (expected) observations.
    fn expected_counts(m: &Matrix, truth: &[f64], n: f64) -> Vec<f64> {
        m.matvec(truth).unwrap().iter().map(|p| p * n).collect()
    }

    #[test]
    fn em_recovers_truth_from_expected_counts() {
        let wave = Wave::square(0.25, 2.0).unwrap();
        let d = 16;
        let m = transition_matrix(&wave, d, d).unwrap();
        let mut truth = vec![0.0; d];
        truth[3] = 0.5;
        truth[4] = 0.3;
        truth[10] = 0.2;
        let counts = expected_counts(&m, &truth, 1e6);
        let config = EmConfig {
            ll_threshold: 1e-10,
            max_iterations: 50_000,
            min_iterations: 2,
            smoothing: None,
        };
        let result = reconstruct(&m, &counts, &config).unwrap();
        for (i, (&got, &want)) in result.histogram.probs().iter().zip(&truth).enumerate() {
            assert!((got - want).abs() < 0.01, "bucket {i}: {got} vs {want}");
        }
    }

    #[test]
    fn em_increases_log_likelihood_monotonically() {
        let wave = Wave::square(0.3, 1.0).unwrap();
        let d = 8;
        let m = transition_matrix(&wave, d, d).unwrap();
        let counts = vec![10.0, 40.0, 80.0, 50.0, 30.0, 20.0, 10.0, 5.0];
        // Track the likelihood trajectory by running with increasing caps.
        let mut lls = Vec::new();
        for cap in [1, 2, 4, 8, 16, 64] {
            let config = EmConfig {
                ll_threshold: 0.0,
                max_iterations: cap,
                min_iterations: cap + 1, // disable early stop
                smoothing: None,
            };
            let r = reconstruct(&m, &counts, &config).unwrap();
            lls.push(r.log_likelihood);
        }
        for w in lls.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "log-likelihood decreased: {lls:?}");
        }
    }

    #[test]
    fn ems_converges_and_produces_valid_histogram() {
        let wave = Wave::square(0.256, 1.0).unwrap();
        let d = 32;
        let m = transition_matrix(&wave, d, d).unwrap();
        let mut truth = vec![0.0; d];
        for (i, t) in truth.iter_mut().enumerate() {
            *t = (i as f64 / d as f64).powi(2);
        }
        let s: f64 = truth.iter().sum();
        for t in &mut truth {
            *t /= s;
        }
        let counts = expected_counts(&m, &truth, 1e5);
        let result = reconstruct(&m, &counts, &EmConfig::ems()).unwrap();
        assert!(result.converged, "EMS should converge");
        let probs = result.histogram.probs();
        assert!(probs.iter().all(|&p| p >= 0.0));
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Reconstruction tracks the increasing shape.
        assert!(probs[d - 1] > probs[0]);
    }

    #[test]
    fn em_threshold_scaling_follows_paper() {
        let c = EmConfig::em(2.0);
        assert!((c.ll_threshold - 1e-3 * 2f64.exp()).abs() < 1e-12);
        assert!(c.smoothing.is_none());
        let c = EmConfig::ems();
        assert!((c.ll_threshold - 1e-3).abs() < 1e-15);
        assert!(c.smoothing.is_some());
    }

    #[test]
    fn reconstruct_validates_inputs() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let m = transition_matrix(&wave, 8, 8).unwrap();
        let ok = vec![1.0; 8];
        assert!(reconstruct(&m, &ok[..7], &EmConfig::ems()).is_err());
        assert!(reconstruct(&m, &[-1.0; 8], &EmConfig::ems()).is_err());
        assert!(reconstruct(&m, &[0.0; 8], &EmConfig::ems()).is_err());
        let bad = EmConfig {
            max_iterations: 0,
            ..EmConfig::ems()
        };
        assert!(reconstruct(&m, &ok, &bad).is_err());
        let bad = EmConfig {
            ll_threshold: f64::NAN,
            ..EmConfig::ems()
        };
        assert!(reconstruct(&m, &ok, &bad).is_err());
    }

    #[test]
    fn fractional_counts_are_accepted() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let m = transition_matrix(&wave, 8, 8).unwrap();
        let counts = vec![0.125; 8];
        let r = reconstruct(&m, &counts, &EmConfig::ems()).unwrap();
        assert_eq!(r.histogram.len(), 8);
    }

    #[test]
    fn structured_operator_reconstructs_identically_to_dense() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let d = 32;
        let dense = transition_matrix(&wave, d, d).unwrap();
        let op = BandedBaselineOperator::from_wave(&wave, d, d).unwrap();
        let mut truth = vec![0.0; d];
        truth[5] = 0.6;
        truth[20] = 0.4;
        let counts = expected_counts(&dense, &truth, 5e4);
        for config in [EmConfig::em(1.0), EmConfig::ems()] {
            let a = reconstruct(&dense, &counts, &config).unwrap();
            let b = reconstruct(&op, &counts, &config).unwrap();
            assert_eq!(a.iterations, b.iterations);
            for (x, y) in a.histogram.probs().iter().zip(b.histogram.probs()) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn reconstruct_accepts_dyn_operators() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let m = transition_matrix(&wave, 8, 8).unwrap();
        let dynamic: &dyn ldp_numeric::LinearOperator = &m;
        let r = reconstruct(dynamic, &[10.0; 8], &EmConfig::ems()).unwrap();
        assert_eq!(r.histogram.len(), 8);
    }

    #[test]
    fn ems_is_smoother_than_em_on_noisy_counts() {
        // Feed deliberately jagged counts; the EMS output must have lower
        // total variation than the EM output.
        let wave = Wave::square(0.256, 1.0).unwrap();
        let d = 32;
        let m = transition_matrix(&wave, d, d).unwrap();
        let counts: Vec<f64> = (0..d)
            .map(|j| if j % 2 == 0 { 500.0 } else { 100.0 })
            .collect();
        let em = reconstruct(&m, &counts, &EmConfig::em(1.0)).unwrap();
        let ems = reconstruct(&m, &counts, &EmConfig::ems()).unwrap();
        let tv = |h: &Histogram| -> f64 { h.probs().windows(2).map(|w| (w[1] - w[0]).abs()).sum() };
        assert!(
            tv(&ems.histogram) < tv(&em.histogram),
            "EMS TV {} vs EM TV {}",
            tv(&ems.histogram),
            tv(&em.histogram)
        );
    }
}
