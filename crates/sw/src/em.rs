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
//! Per iteration the loop is therefore: one `M·x̂`, one `Mᵀ·ratio`, one
//! pass of `d̃` divisions for the ratios, the M-step normalization and
//! (EMS) one smoothing pass. With the banded operator both applications are
//! `O(d + d̃)` walks over its edge-length classes (see
//! [`crate::operator`]), and [`SmoothingKernel::smooth_into`] handles
//! interior entries without boundary tests.
//!
//! The `d̃` logarithms of the log-likelihood are computed only when the
//! stopping test could fire. The ratio pass also accumulates two dot
//! products that bound the log-likelihood change from both sides
//! (`1 − 1/x ≤ ln x ≤ x − 1`); while the bound, less a rounding margin,
//! keeps `|ΔL|` above the threshold, the test cannot fire and the
//! logarithms are skipped (`moves_past_threshold` derives the bound and
//! the margin). The first iteration (compared against `L = −∞`) and
//! iterations below `min_iterations` take no logarithms at all, and the
//! returned `L` is computed at exit if it is still pending. Whenever `L` is
//! computed it is computed by the same loop in the same order, so the
//! stopping decision, the iteration count and the returned log-likelihood
//! are bit-identical to evaluating it on every iteration.
//! Every step keeps a fixed floating-point operation order, so the
//! iterates, the iteration count and the estimate do not depend on the
//! SIMD mode or the pool size.

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
    // The previous conditional and its ratios, kept by swapping buffers:
    // the stopping certificate compares the two iterates through them.
    let mut prev_cond = vec![0.0; d_tilde];
    let mut prev_ratio = vec![0.0; d_tilde];
    let mut tmp = vec![0.0; d];
    let mut smoothed = vec![0.0; d];

    let mut iterations = 0;
    let mut converged = false;
    // `L` of `cond`, once computed; `None` while the certificate has made
    // it unnecessary.
    let mut ll: Option<f64> = None;

    // Prime `cond = M·θ` and its ratios once; inside the loop the forward
    // application of iteration k doubles as the E-step conditional of
    // iteration k + 1, halving the forward applications. The zeroed
    // previous buffers make the priming pass's dot products zero.
    m.matvec_into(&theta, &mut cond)
        .map_err(|e| SwError::Reconstruction(e.to_string()))?;
    let mut pass = ratio_pass(counts, &cond, &prev_cond, &prev_ratio, &mut ratio);

    for iter in 0..config.max_iterations {
        iterations = iter + 1;

        // E-step: tmp = Mᵀ·ratio, ratio_j = n_j / (M·θ)_j.
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

        // The updated iterate's conditional `c`, which is also the next
        // E-step's; the previous one `p` moves to `prev_cond`.
        std::mem::swap(&mut cond, &mut prev_cond);
        std::mem::swap(&mut ratio, &mut prev_ratio);
        let prev_ll = ll.take();
        let prev_log_bound = pass.log_bound;
        m.matvec_into(&theta, &mut cond)
            .map_err(|e| SwError::Reconstruction(e.to_string()))?;
        pass = ratio_pass(counts, &cond, &prev_cond, &prev_ratio, &mut ratio);

        // The first iteration compares against `L = −∞` and cannot stop,
        // and iterations below `min_iterations` do not test at all.
        if iter == 0 || iterations < config.min_iterations {
            continue;
        }
        if moves_past_threshold(config.ll_threshold, total, d_tilde, &pass, prev_log_bound) {
            continue;
        }
        let new_ll = log_likelihood_of(counts, &cond);
        let old_ll = prev_ll.unwrap_or_else(|| log_likelihood_of(counts, &prev_cond));
        ll = Some(new_ll);
        if (new_ll - old_ll).abs() < config.ll_threshold {
            converged = true;
            break;
        }
    }

    let log_likelihood = ll.unwrap_or_else(|| log_likelihood_of(counts, &cond));
    let histogram =
        Histogram::from_probs(theta).map_err(|e| SwError::Reconstruction(e.to_string()))?;
    Ok(EmResult {
        histogram,
        iterations,
        log_likelihood,
        converged,
    })
}

/// `L = Σⱼ nⱼ ln cⱼ` over the buckets with reports, left to right; `−∞`
/// once a bucket with reports has `cⱼ ≤ 0`.
fn log_likelihood_of(counts: &[f64], cond: &[f64]) -> f64 {
    let mut ll = 0.0;
    for (&n, &c) in counts.iter().zip(cond) {
        if n > 0.0 {
            if c <= 0.0 {
                return f64::NEG_INFINITY;
            }
            ll += n * c.ln();
        }
    }
    ll
}

/// What the pass over a fresh conditional `c` learns besides the E-step
/// ratios `ρ = n/c`: the stopping certificate's two dot products against
/// the previous conditional `p` and its ratios `ρ′ = n/p`, and a bound on
/// `|ln cⱼ|`.
struct PassBounds {
    /// `Σⱼ ρⱼ·pⱼ`.
    dot_lo: f64,
    /// `Σⱼ ρ′ⱼ·cⱼ`.
    dot_hi: f64,
    /// `max(−ln min c, ln max c) ≥ |ln cⱼ|` for every `j`, or `+∞` when
    /// some `cⱼ ≤ 0`.
    log_bound: f64,
}

/// Accumulator lanes of [`ratio_pass`]: independent add chains, so the
/// dot products do not serialize on the add latency.
const LANES: usize = 4;

/// Fills `ratio` with `nⱼ/cⱼ` (0 where `cⱼ ≤ 0`) and accumulates
/// [`PassBounds`] in the same blocked pass. The ratios are the E-step's
/// exact values; the bounds feed only [`moves_past_threshold`], so their
/// summation order is free.
fn ratio_pass(
    counts: &[f64],
    cond: &[f64],
    prev_cond: &[f64],
    prev_ratio: &[f64],
    ratio: &mut [f64],
) -> PassBounds {
    let mut lo = [0.0; LANES];
    let mut hi = [0.0; LANES];
    let mut c_min = [f64::INFINITY; LANES];
    let mut c_max = [0.0f64; LANES];
    let mut step = |lane: usize, n: f64, c: f64, p: f64, rho_prev: f64, out: &mut f64| {
        let rho = if c > 0.0 { n / c } else { 0.0 };
        *out = rho;
        lo[lane] += rho * p;
        hi[lane] += rho_prev * c;
        c_min[lane] = c_min[lane].min(c);
        c_max[lane] = c_max[lane].max(c);
    };
    let mut out = ratio.chunks_exact_mut(LANES);
    let mut ins = counts
        .chunks_exact(LANES)
        .zip(cond.chunks_exact(LANES))
        .zip(
            prev_cond
                .chunks_exact(LANES)
                .zip(prev_ratio.chunks_exact(LANES)),
        );
    for (r, ((n, c), (p, q))) in out.by_ref().zip(ins.by_ref()) {
        for l in 0..LANES {
            step(l, n[l], c[l], p[l], q[l], &mut r[l]);
        }
    }
    let tail = cond.len() - cond.len() % LANES;
    for (k, r) in out.into_remainder().iter_mut().enumerate() {
        let j = tail + k;
        step(0, counts[j], cond[j], prev_cond[j], prev_ratio[j], r);
    }
    let c_min = c_min.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let c_max = c_max.iter().fold(0.0f64, |a, &b| a.max(b));
    PassBounds {
        dot_lo: lo.iter().sum(),
        dot_hi: hi.iter().sum(),
        log_bound: if c_min > 0.0 {
            (-c_min.ln()).max(c_max.ln())
        } else {
            f64::INFINITY
        },
    }
}

/// `f64::ln` is assumed within this many ulps of the true logarithm.
/// Platform libms stay within 1; the slack costs almost nothing in how
/// often the certificate holds.
const LN_ULPS: f64 = 16.0;

/// Whether the stopping test `|L(c) − L(p)| < τ` is certain *not* to fire
/// for the previous conditional `p` and the new one `c`, so that neither
/// log-likelihood needs computing. `total` is the computed `Σⱼ nⱼ` and `m`
/// the number of buckets `d̃`.
///
/// **Bound.** With `x = cⱼ/pⱼ > 0`, `1 − 1/x ≤ ln x ≤ x − 1`, so the exact
/// `ΔL = Σⱼ nⱼ ln(cⱼ/pⱼ)` lies in `[N − Σⱼ ρⱼpⱼ, Σⱼ ρ′ⱼcⱼ − N]` with
/// `N = Σⱼ nⱼ`, `ρ = n/c` and `ρ′ = n/p` — the two dot products of
/// [`PassBounds`]. `|ΔL| > τ` is certified when the lower end exceeds `τ`
/// or the upper end is below `−τ` after a rounding margin. With
/// `u = 2⁻⁵³` and first-order error terms, the margin covers:
///
/// - **The two dots and `N`.** A dot's terms round twice (ratio, product)
///   and its `m`-term sum, in any order, by `(m − 1)·u` of the sum, so the
///   computed dot is within a relative `(m + 1)·u` of `Σ nⱼpⱼ/cⱼ` (resp.
///   `Σ nⱼcⱼ/pⱼ`); `total` is within `m·u` of `N`. The margin takes
///   `4(m + 4)·u·(total + dot)`, twice what the dot and `N` need; the
///   other half covers the few roundings of the certificate's own
///   arithmetic.
/// - **Both `L` sums.** [`log_likelihood_of`] computes `L̂ = Σ nⱼ·ln̂ cⱼ` left
///   to right. `ln̂` errs by at most [`LN_ULPS`] ulps, a relative
///   `2·LN_ULPS·u`; the product adds `u` and the sum `(m − 1)·u` of
///   `Σ nⱼ|ln cⱼ| ≤ N·max|ln cⱼ|`. So `|L̂ − L| ≤ (m + 2·LN_ULPS)·u·N·
///   max|ln cⱼ|` for each side; the margin doubles it, taking
///   `max|ln cⱼ|` from [`PassBounds::log_bound`] (the previous pass's
///   for `p`).
/// - **The final subtraction.** The test rounds `L̂(c) − L̂(p)` once, by
///   a relative `u`; requiring the bound to clear `τ·(1 + 4u)` rather
///   than `τ` covers it.
///
/// A `cⱼ` or `pⱼ ≤ 0` makes its log bound `+∞`, so the margin is infinite,
/// and a NaN or infinite entry makes the dot product that multiplies it
/// non-finite; either way nothing is certified and the caller computes
/// both log-likelihoods.
fn moves_past_threshold(
    tau: f64,
    total: f64,
    m: usize,
    pass: &PassBounds,
    prev_log_bound: f64,
) -> bool {
    if !(pass.dot_lo.is_finite() && pass.dot_hi.is_finite()) {
        return false;
    }
    let u = f64::EPSILON / 2.0;
    let m = m as f64;
    let dots = 4.0 * (m + 4.0) * u * (total + pass.dot_lo.max(pass.dot_hi));
    let sums = 2.0 * (m + 2.0 * LN_ULPS) * u * total * (pass.log_bound + prev_log_bound);
    let margin = dots + sums;
    let tau = tau * (1.0 + 4.0 * u);
    total - pass.dot_lo - margin > tau || pass.dot_hi - total + margin < -tau
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
