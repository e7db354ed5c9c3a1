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
//! `τ = 10⁻³` for EMS), or at an iteration cap — the theorem 5.6
//! concavity guarantees convergence to the MLE for plain EM.
//!
//! # EMS: SQUAREM cycles
//!
//! The paper's `τ` is absolute while `L` grows with the report count, so
//! the plain EMS loop runs longer the larger the window (about a thousand
//! iterations at 10⁵ reports, the 10,000 cap at 10⁹). EMS's error is set
//! by its smoothing bias, not by how tightly its fixed point is reached,
//! so EMS reaches the same fixed point in fewer evaluations of its map `F`
//! (E-step, M-step, S-step) through SQUAREM-3 cycles (Varadhan & Roland
//! 2008). From the accepted point `θ₀` a cycle computes
//!
//! ```text
//! θ₁ = F(θ₀),  θ₂ = F(θ₁),  r = θ₁ − θ₀,  v = (θ₂ − θ₁) − r,
//! s  = ‖r‖₂/‖v‖₂ clamped to [1, s_max],
//! θ′ = θ₀ + 2s·r + s²·v,
//! ```
//!
//! and accepts the stabilized point `F(θ′)`. (Varadhan & Roland write the
//! step as `α = −s`.) At `s = 1`, `θ′` is `θ₂` itself and the cycle is
//! three plain iterations. The safeguards:
//!
//! - **Positivity.** While `θ′` has an entry that is not positive and
//!   finite, `s` is halved toward 1 (`s ← (s + 1)/2`); after
//!   [`MAX_BACKTRACKS`] halvings the cycle takes `s = 1`.
//! - **Residual.** If `‖F(θ′) − θ′‖₁` exceeds [`RESIDUAL_SLACK`] times
//!   `‖F(θ₀) − θ₀‖₁ = ‖r‖₁`, the cycle drops `F(θ′)` and accepts `θ₂`.
//!   Without the slack (a factor of 1) the test dropped `F(θ′)` in about
//!   95% of the cycles at d = 1024, and with it the extrapolation that
//!   makes the cycles fast. At ε = 1, d = 1024 and 6.7·10⁷ reports the
//!   slack of 1.5 cuts the mean over 9 seeds from 1,154 to 794
//!   evaluations (the paper's loop: 4,899). A slack of 2 saves more but
//!   stops farther from the fixed point than the paper's loop in a cell of
//!   `tests/ems_acceleration.rs`.
//! - **Step growth.** `s_max` starts at 1 and is multiplied by
//!   [`STEP_MAX_GROWTH`] after each accepted full step: `s = s_max` with no
//!   halving and `F(θ′)` accepted.
//!
//! `M` is linear, so `M·θ′` is the same extrapolation of `M·θ₀`, `M·θ₁`
//! and `M·θ₂`: the stabilizing evaluation's E-step reads it, and `θ′`
//! itself is never applied. A cycle therefore costs three transposed
//! applications and at most three forward ones, as three plain iterations
//! do: `θ₁`'s, `θ₂`'s, and `F(θ′)`'s when the cycle accepts it; a cycle
//! that falls back to `θ₂` already holds its conditional.
//!
//! `max_iterations`, `min_iterations` and [`EmResult::iterations`] count
//! evaluations of `F`, so a cap may cut a cycle short; the loop then
//! returns the last iterate it computed (`θ₁` or `θ₂`). The paper's test `|L(θₖ) − L(θₖ₋₁)| < τ` is applied between
//! successive accepted cycle points, from the second cycle on.
//!
//! Plain EM is not accelerated: without smoothing, early stopping is its
//! only regularizer, and a loop that reaches the MLE sooner fits more of
//! the noise (an accelerated prototype raised W1 to truth by up to 26% at
//! ε = 1, d = 1024, 10⁷ reports). EM runs the plain loop.
//!
//! # The fused passes
//!
//! The transition matrix is only ever *applied*, so [`reconstruct`] is
//! generic over [`LinearOperator`]: pass the dense
//! [`Matrix`](ldp_numeric::Matrix) or the `O(d)`
//! [`crate::operator::BandedBaselineOperator`] interchangeably. The loops
//! are also *fused*: the `M·x̂` computed for the log-likelihood of an
//! iterate is exactly the E-step conditional of the next map evaluation,
//! so each evaluation performs one forward and one transposed application
//! instead of two forward plus one transposed.
//!
//! An evaluation is therefore one `M·x̂`, one `Mᵀ·ratio` and these passes,
//! fused so that each vector is written once and its running sums are
//! formed as it is written:
//!
//! 1. **M-step:** `θᵢ·tmpᵢ` and its sum.
//! 2. **EMS only:** the division by that sum, the smoothing and the
//!    smoothed vector's sum in one pass: each block is divided, then every
//!    smoothed entry whose window the block completes is computed and
//!    added to the sum.
//! 3. **Normalization:** `θ` divided by its sum (the smoothed sum for EMS),
//!    with `θ`'s running sums formed in the same pass; for EMS also the
//!    cycle's norms (`‖r‖₂²` and `‖r‖₁`, `‖v‖₂²`, or the residual of `θ′`),
//!    each block added to four interleaved lane sums once it is divided.
//! 4. **Ratios:** `ρⱼ = nⱼ/cⱼ` of the new conditional with their running
//!    sums and the stopping certificate's bounds.
//!
//! EMS adds two vector passes per cycle, the extrapolations of `θ` and of
//! the conditional, which carry no running sums.
//!
//! The banded operator sums each plateau run through a window of its
//! input's running sums ([`crate::operator`]); passes 3 and 4 hand them to
//! it through [`LinearOperator::matvec_prefix_into`] and
//! [`LinearOperator::matvec_transpose_prefix_into`], so an application
//! neither forms nor allocates them, and the loops allocate nothing after
//! their buffers. The dense [`Matrix`](ldp_numeric::Matrix) ignores them.
//! Each fused pass divides a block of entries together (vector divides),
//! then adds them to the running sum one at a time, left to right: every
//! sum keeps the order of the unfused passes, so the fusion changes no
//! bit. A norm's lane `l` adds entries `i ≡ l (mod 4)` left to right and
//! the lanes are then added in order, the order the unfused reference in
//! `tests/em_stopping.rs` uses.
//!
//! The `d̃` logarithms of the log-likelihood are computed only when the
//! stopping test could fire. The ratio pass also accumulates two dot
//! products that bound the log-likelihood change from both sides
//! (`1 − 1/x ≤ ln x ≤ x − 1`); while the bound, less a rounding margin,
//! keeps `|ΔL|` above the threshold, the test cannot fire and the
//! logarithms are skipped (`moves_past_threshold` derives the bound and
//! the margin). The first test (compared against `L = −∞`) and tests below
//! `min_iterations` take no logarithms at all, and the returned `L` is
//! computed at exit if it is still pending. Whenever `L` is computed it is
//! computed by the same loop in the same order, so the stopping decision,
//! the iteration count and the returned log-likelihood are bit-identical
//! to evaluating it at every test.
//! Every step keeps a fixed floating-point operation order, so the
//! iterates, the iteration count and the estimate do not depend on the
//! SIMD mode or the pool size.

use crate::error::SwError;
use crate::smoothing::SmoothingKernel;
use ldp_numeric::operator::running_sums_into;
use ldp_numeric::{Histogram, LinearOperator, NumericError};

/// Configuration of the EM/EMS loop.
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Stop once the absolute log-likelihood improvement drops below this.
    pub ll_threshold: f64,
    /// Hard cap on iterations (evaluations of the EM/EMS map).
    pub max_iterations: usize,
    /// Run at least this many iterations (map evaluations) before testing
    /// convergence.
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
    /// Evaluations of the EM/EMS map: one per iteration of plain EM, three
    /// per EMS cycle (fewer in a cycle the cap cuts short).
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
    match &config.smoothing {
        None => em_loop(m, counts, total, config),
        Some(kernel) => ems_cycles(m, counts, total, config, kernel),
    }
}

/// An iterate's conditional `c = M·θ`, its E-step ratios `ρ = n/c` and the
/// ratios' running sums, which the transposed application reads.
struct Conditional {
    cond: Vec<f64>,
    ratio: Vec<f64>,
    prefix: Vec<f64>,
}

impl Conditional {
    fn new(rows: usize) -> Self {
        Conditional {
            cond: vec![0.0; rows],
            ratio: vec![0.0; rows],
            prefix: vec![0.0; rows + 1],
        }
    }

    /// Sets `c = M·θ` from `θ`'s running sums, then its ratios, returning
    /// the stopping certificate's bounds against `prev`.
    fn update<M: LinearOperator + ?Sized>(
        &mut self,
        m: &M,
        counts: &[f64],
        theta: &[f64],
        theta_prefix: &[f64],
        prev: &Conditional,
    ) -> Result<PassBounds, SwError> {
        m.matvec_prefix_into(theta, theta_prefix, &mut self.cond)
            .map_err(operator_error)?;
        Ok(self.ratios(counts, prev))
    }

    /// The ratios of the conditional `c` already in place, returning the
    /// stopping certificate's bounds against `prev`.
    fn ratios(&mut self, counts: &[f64], prev: &Conditional) -> PassBounds {
        ratio_pass(
            counts,
            &self.cond,
            &prev.cond,
            &prev.ratio,
            &mut self.ratio,
            &mut self.prefix,
        )
    }
}

fn operator_error(e: NumericError) -> SwError {
    SwError::Reconstruction(e.to_string())
}

fn collapsed() -> SwError {
    SwError::Reconstruction("EM iterate collapsed to zero mass".into())
}

/// Plain EM: the paper's loop, one test per iteration.
fn em_loop<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    total: f64,
    config: &EmConfig,
) -> Result<EmResult, SwError> {
    let d = m.cols();
    let d_tilde = m.rows();
    let mut theta = vec![1.0 / d as f64; d];
    let mut tmp = vec![0.0; d];
    // The running sums of `θ` that the forward application reads, formed
    // by the pass that writes `θ`.
    let mut theta_prefix = vec![0.0; d + 1];
    // The current conditional and the previous one, kept by swapping: the
    // stopping certificate compares the two iterates through them.
    let mut cond = Conditional::new(d_tilde);
    let mut prev = Conditional::new(d_tilde);

    let mut iterations = 0;
    let mut converged = false;
    // `L` of `cond`, once computed; `None` while the certificate has made
    // it unnecessary.
    let mut ll: Option<f64> = None;

    // Prime `cond = M·θ` and its ratios once; inside the loop the forward
    // application of iteration k doubles as the E-step conditional of
    // iteration k + 1, halving the forward applications. The zeroed
    // previous buffers make the priming pass's dot products zero.
    running_sums_into(&theta, &mut theta_prefix);
    let mut pass = cond.update(m, counts, &theta, &theta_prefix, &prev)?;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;

        // E-step: tmp = Mᵀ·ratio, ratio_j = n_j / (M·θ)_j.
        m.matvec_transpose_prefix_into(&cond.ratio, &cond.prefix, &mut tmp)
            .map_err(operator_error)?;

        // M-step: θᵢ ∝ θᵢ·tmpᵢ.
        let sum = scale_and_sum(&mut theta, &tmp);
        if sum <= 0.0 {
            return Err(collapsed());
        }
        normalize_with_sums(&mut theta, sum, &mut theta_prefix, |_, _| {});

        // The updated iterate's conditional, which is also the next
        // E-step's; the previous one moves to `prev`.
        std::mem::swap(&mut cond, &mut prev);
        let prev_ll = ll.take();
        let prev_log_bound = pass.log_bound;
        pass = cond.update(m, counts, &theta, &theta_prefix, &prev)?;

        // The first iteration compares against `L = −∞` and cannot stop,
        // and iterations below `min_iterations` do not test at all.
        if iter == 0 || iterations < config.min_iterations {
            continue;
        }
        if moves_past_threshold(config.ll_threshold, total, d_tilde, &pass, prev_log_bound) {
            continue;
        }
        let new_ll = log_likelihood_of(counts, &cond.cond);
        let old_ll = prev_ll.unwrap_or_else(|| log_likelihood_of(counts, &prev.cond));
        ll = Some(new_ll);
        if (new_ll - old_ll).abs() < config.ll_threshold {
            converged = true;
            break;
        }
    }

    let log_likelihood = ll.unwrap_or_else(|| log_likelihood_of(counts, &cond.cond));
    let histogram =
        Histogram::from_probs(theta).map_err(|e| SwError::Reconstruction(e.to_string()))?;
    Ok(EmResult {
        histogram,
        iterations,
        log_likelihood,
        converged,
    })
}

/// Halvings of `s − 1` a cycle tries before it takes the plain step `s = 1`.
pub const MAX_BACKTRACKS: usize = 8;

/// Factor the largest step `s_max` grows by after each accepted full step.
pub const STEP_MAX_GROWTH: f64 = 4.0;

/// Factor by which the residual of `F(θ′)` may exceed `θ₀`'s before a
/// cycle drops `F(θ′)` for `θ₂`.
pub const RESIDUAL_SLACK: f64 = 1.5;

/// Where a run of EMS cycles stopped, and so which iterate it returns.
enum Exit {
    /// At a cycle's accepted point (converged, or the cap at a cycle's end).
    Accepted,
    /// At the cap after `θ₁ = F(θ₀)`.
    First,
    /// At the cap after `θ₂ = F(θ₁)`.
    Second,
}

/// EMS in SQUAREM-3 cycles; see the module doc.
fn ems_cycles<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    total: f64,
    config: &EmConfig,
    kernel: &SmoothingKernel,
) -> Result<EmResult, SwError> {
    let d = m.cols();
    let d_tilde = m.rows();
    // θ₀, the accepted point, and the cycle's iterates θ₁, θ₂, θ′, F(θ′).
    let mut theta = vec![1.0 / d as f64; d];
    let mut theta1 = vec![0.0; d];
    let mut theta2 = vec![0.0; d];
    let mut extrapolated = vec![0.0; d];
    let mut stabilized = vec![0.0; d];
    // The E-step's `Mᵀ·ρ`, then the M-step's product, in place.
    let mut tmp = vec![0.0; d];
    // The running sums of the iterate applied next.
    let mut prefix = vec![0.0; d + 1];
    // θ₀'s conditional, kept through the cycle for the extrapolation and
    // the stopping certificate; one for the cycle's other points; and
    // θ₂'s. A cycle's accepted point ends in `scratch`, which is then
    // swapped with `cond`.
    let mut cond = Conditional::new(d_tilde);
    let mut scratch = Conditional::new(d_tilde);
    let mut cond2 = vec![0.0; d_tilde];

    let mut evaluations = 0;
    let mut cycles = 0;
    let mut converged = false;
    let mut step_max = 1.0;
    // `L` of `cond`, once computed; `None` while the certificate has made
    // it unnecessary.
    let mut ll: Option<f64> = None;

    running_sums_into(&theta, &mut prefix);
    let mut pass = cond.update(m, counts, &theta, &prefix, &scratch)?;

    let exit = loop {
        // θ₁ = F(θ₀), with ‖r‖₂² and ‖r‖₁.
        let mut r_norms = Norms::default();
        ems_map(
            m,
            kernel,
            &theta,
            &cond,
            &mut tmp,
            &mut theta1,
            &mut prefix,
            |lo, block| {
                r_norms.add_block(lo, block, &theta, &theta, |t, t0, _| {
                    let r = t - t0;
                    [r * r, r.abs()]
                });
            },
        )?;
        evaluations += 1;
        scratch.update(m, counts, &theta1, &prefix, &cond)?;
        if evaluations == config.max_iterations {
            break Exit::First;
        }

        // θ₂ = F(θ₁), with ‖v‖₂², and M·θ₂.
        let mut v_norms = Norms::default();
        ems_map(
            m,
            kernel,
            &theta1,
            &scratch,
            &mut tmp,
            &mut theta2,
            &mut prefix,
            |lo, block| {
                v_norms.add_block(lo, block, &theta1, &theta, |t, t1, t0| {
                    let v = (t - t1) - (t1 - t0);
                    [v * v, 0.0]
                });
            },
        )?;
        evaluations += 1;
        m.matvec_prefix_into(&theta2, &prefix, &mut cond2)
            .map_err(operator_error)?;
        if evaluations == config.max_iterations {
            std::mem::swap(&mut scratch.cond, &mut cond2);
            scratch.ratios(counts, &cond);
            break Exit::Second;
        }

        // θ′, halving the step toward the plain θ₂ while it leaves the
        // positive orthant; a NaN ratio takes the plain step. M is linear,
        // so the same extrapolation of M·θ₀, M·θ₁ and M·θ₂ is M·θ′.
        let ([r_sq, r_abs], [v_sq, _]) = (r_norms.totals(), v_norms.totals());
        let ratio = (r_sq / v_sq).sqrt();
        let mut step = if ratio > 1.0 {
            ratio.min(step_max)
        } else {
            1.0
        };
        let full = step == step_max;
        let mut backtracks = 0;
        while step > 1.0 && !extrapolate(&theta, &theta1, &theta2, step, &mut extrapolated) {
            backtracks += 1;
            step = if backtracks == MAX_BACKTRACKS {
                1.0
            } else {
                (step + 1.0) / 2.0
            };
        }
        if step > 1.0 {
            extrapolate_in_place(&cond.cond, &mut scratch.cond, &cond2, step);
        } else {
            extrapolated.copy_from_slice(&theta2);
            scratch.cond.copy_from_slice(&cond2);
        }
        scratch.ratios(counts, &cond);

        // The stabilizing F(θ′), with its residual ‖F(θ′) − θ′‖₁.
        let mut residual = Norms::default();
        ems_map(
            m,
            kernel,
            &extrapolated,
            &scratch,
            &mut tmp,
            &mut stabilized,
            &mut prefix,
            |lo, block| {
                residual.add_block(lo, block, &extrapolated, &extrapolated, |t, x, _| {
                    [(t - x).abs(), 0.0]
                });
            },
        )?;
        evaluations += 1;
        cycles += 1;

        // The accepted point's conditional, which is also the next cycle's
        // E-step's; θ₀'s moves to `scratch`.
        let prev_ll = ll.take();
        let prev_log_bound = pass.log_bound;
        if residual.totals()[0] <= RESIDUAL_SLACK * r_abs {
            if full && backtracks == 0 {
                step_max *= STEP_MAX_GROWTH;
            }
            std::mem::swap(&mut theta, &mut stabilized);
            pass = scratch.update(m, counts, &theta, &prefix, &cond)?;
        } else {
            std::mem::swap(&mut theta, &mut theta2);
            std::mem::swap(&mut scratch.cond, &mut cond2);
            pass = scratch.ratios(counts, &cond);
        }
        std::mem::swap(&mut cond, &mut scratch);

        // The first cycle compares against `L = −∞` and cannot stop, and
        // cycles that end below `min_iterations` do not test at all.
        if cycles > 1
            && evaluations >= config.min_iterations
            && !moves_past_threshold(config.ll_threshold, total, d_tilde, &pass, prev_log_bound)
        {
            let new_ll = log_likelihood_of(counts, &cond.cond);
            let old_ll = prev_ll.unwrap_or_else(|| log_likelihood_of(counts, &scratch.cond));
            ll = Some(new_ll);
            if (new_ll - old_ll).abs() < config.ll_threshold {
                converged = true;
                break Exit::Accepted;
            }
        }
        if evaluations == config.max_iterations {
            break Exit::Accepted;
        }
    };

    let (theta, log_likelihood) = match exit {
        Exit::Accepted => (
            theta,
            ll.unwrap_or_else(|| log_likelihood_of(counts, &cond.cond)),
        ),
        Exit::First => (theta1, log_likelihood_of(counts, &scratch.cond)),
        Exit::Second => (theta2, log_likelihood_of(counts, &scratch.cond)),
    };
    let histogram =
        Histogram::from_probs(theta).map_err(|e| SwError::Reconstruction(e.to_string()))?;
    Ok(EmResult {
        histogram,
        iterations: evaluations,
        log_likelihood,
        converged,
    })
}

/// The EMS map `out = F(θ)`: the E-step from `θ`'s conditional `at`, the
/// M-step, the S-step and the renormalization, with `out`'s running sums in
/// `prefix`. The last pass calls `visit(lo, block)` on each block of final
/// entries `out[lo..lo + block.len()]`, in order.
#[allow(clippy::too_many_arguments)]
fn ems_map<M: LinearOperator + ?Sized>(
    m: &M,
    kernel: &SmoothingKernel,
    theta: &[f64],
    at: &Conditional,
    tmp: &mut [f64],
    out: &mut [f64],
    prefix: &mut [f64],
    visit: impl FnMut(usize, &[f64]),
) -> Result<(), SwError> {
    m.matvec_transpose_prefix_into(&at.ratio, &at.prefix, tmp)
        .map_err(operator_error)?;
    let sum = scale_and_sum(tmp, theta);
    if sum <= 0.0 {
        return Err(collapsed());
    }
    let mass = normalize_and_smooth(tmp, sum, kernel, out);
    normalize_with_sums(out, mass, prefix, visit);
    Ok(())
}

/// Entries per block of the fused passes: a block is divided together
/// (vector divides), then added to the running sum one entry at a time.
const BLOCK: usize = 64;

/// The M-step's `θᵢ ← θᵢ·tmpᵢ`, returning `Σθ` added left to right.
fn scale_and_sum(theta: &mut [f64], tmp: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (t, &v) in theta.iter_mut().zip(tmp) {
        *t *= v;
        sum += *t;
    }
    sum
}

/// `θ ← θ/total` with θ's running sums formed in the same pass: each
/// block of [`BLOCK`] entries is divided, then added to the running sum
/// one entry at a time, left to right, so `prefix` is exactly
/// [`running_sums_into`] of the divided `θ`. `visit(lo, block)` sees each
/// divided block `θ[lo..lo + block.len()]` once it is added.
fn normalize_with_sums(
    theta: &mut [f64],
    total: f64,
    prefix: &mut [f64],
    mut visit: impl FnMut(usize, &[f64]),
) {
    let mut acc = 0.0;
    prefix[0] = acc;
    let blocks = theta.chunks_mut(BLOCK).zip(prefix[1..].chunks_mut(BLOCK));
    for (lo, (block, sums)) in (0..).step_by(BLOCK).zip(blocks) {
        for t in block.iter_mut() {
            *t /= total;
        }
        for (&t, p) in block.iter().zip(sums) {
            acc += t;
            *p = acc;
        }
        visit(lo, block);
    }
}

/// Two sums over a vector, each in [`LANES`] interleaved lanes: entry `i`
/// goes to lane `i mod LANES`, and a total adds the lanes left to right.
/// The lanes are independent add chains, which vectorize.
#[derive(Default)]
struct Norms([[f64; LANES]; 2]);

impl Norms {
    /// Adds `f(tᵢ, xᵢ, yᵢ)` for the entries `i ∈ lo..lo + t.len()`, where
    /// `t` is that block of the new vector and `lo` a multiple of
    /// [`LANES`].
    fn add_block(
        &mut self,
        lo: usize,
        t: &[f64],
        x: &[f64],
        y: &[f64],
        f: impl Fn(f64, f64, f64) -> [f64; 2],
    ) {
        let n = t.len();
        let (x, y) = (&x[lo..lo + n], &y[lo..lo + n]);
        let [a, b] = &mut self.0;
        let mut add = |l: usize, i: usize| {
            let [p, q] = f(t[i], x[i], y[i]);
            a[l] += p;
            b[l] += q;
        };
        let whole = n - n % LANES;
        for k in (0..whole).step_by(LANES) {
            for l in 0..LANES {
                add(l, k + l);
            }
        }
        for l in 0..n % LANES {
            add(l, whole + l);
        }
    }

    fn totals(&self) -> [f64; 2] {
        self.0
            .map(|lanes| lanes.iter().fold(0.0, |acc, &v| acc + v))
    }
}

/// One entry of the SQUAREM extrapolation `x′ = x₀ + 2s·r + s²·v`, with
/// `r = x₁ − x₀` and `v = (x₂ − x₁) − r`, for `a = 2s` and `b = s²`.
#[inline]
fn extrapolated(x0: f64, x1: f64, x2: f64, a: f64, b: f64) -> f64 {
    let r = x1 - x0;
    let v = (x2 - x1) - r;
    x0 + a * r + b * v
}

/// `θ′ = θ₀ + 2s·r + s²·v` into `out`. Returns whether every entry is
/// positive and finite. The test reads `t ≤ f64::MAX` rather than
/// `t < ∞`: under SSE2 the latter compiles to 64-bit integer compares and
/// measured 2.5× slower.
fn extrapolate(theta0: &[f64], theta1: &[f64], theta2: &[f64], step: f64, out: &mut [f64]) -> bool {
    let (a, b) = (2.0 * step, step * step);
    let mut positive = true;
    let ins = theta0.iter().zip(theta1).zip(theta2);
    for (t, ((&t0, &t1), &t2)) in out.iter_mut().zip(ins) {
        *t = extrapolated(t0, t1, t2, a, b);
        positive &= (*t > 0.0) & (*t <= f64::MAX);
    }
    positive
}

/// The same extrapolation of the conditionals, `c₁ ← c′`: since `M` is
/// linear, it is `M·θ′` for `θ′` from [`extrapolate`].
fn extrapolate_in_place(c0: &[f64], c1: &mut [f64], c2: &[f64], step: f64) {
    let (a, b) = (2.0 * step, step * step);
    for (c, (&x0, &x2)) in c1.iter_mut().zip(c0.iter().zip(c2)) {
        *c = extrapolated(x0, *c, x2, a, b);
    }
}

/// The EMS step after the M-step in one pass: `θ ← θ/sum`,
/// `out ← smooth(θ)`, returning `Σ out` added left to right. Each block of
/// [`BLOCK`] entries of `θ` is divided, then every entry of `out` whose
/// smoothing window the block completes is smoothed and added to the sum,
/// so `out` and the sum are exactly those of dividing, smoothing and
/// summing in three passes.
fn normalize_and_smooth(
    theta: &mut [f64],
    sum: f64,
    kernel: &SmoothingKernel,
    out: &mut [f64],
) -> f64 {
    let n = theta.len();
    let r = kernel.radius();
    let (mut total, mut done) = (0.0, 0);
    for lo in (0..n).step_by(BLOCK) {
        let hi = (lo + BLOCK).min(n);
        for t in &mut theta[lo..hi] {
            *t /= sum;
        }
        // Entry i reads θ up to i + r: final once i + r < hi.
        let ready = if hi == n { n } else { hi.saturating_sub(r) };
        if ready > done {
            kernel.smooth_range(theta, out, done..ready);
            for &v in &out[done..ready] {
                total += v;
            }
            done = ready;
        }
    }
    total
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

/// Accumulator lanes of [`ratio_pass`] and [`Norms`]: independent add
/// chains, so the sums do not serialize on the add latency.
const LANES: usize = 4;

/// Fills `ratio` with `nⱼ/cⱼ` (0 where `cⱼ ≤ 0`) and `prefix` with the
/// ratios' running sums, and accumulates [`PassBounds`] in the same
/// blocked pass.
/// The ratios are the E-step's exact values; each block's are divided
/// together, then added to the running sum one at a time, left to right,
/// so `prefix` is exactly [`running_sums_into`] of `ratio`. The bounds
/// feed only [`moves_past_threshold`], so their summation order is free.
fn ratio_pass(
    counts: &[f64],
    cond: &[f64],
    prev_cond: &[f64],
    prev_ratio: &[f64],
    ratio: &mut [f64],
    prefix: &mut [f64],
) -> PassBounds {
    let mut lo = [0.0; LANES];
    let mut hi = [0.0; LANES];
    let mut c_min = [f64::INFINITY; LANES];
    let mut c_max = [0.0f64; LANES];
    let mut acc = 0.0;
    prefix[0] = acc;
    let rho = |n: f64, c: f64| if c > 0.0 { n / c } else { 0.0 };
    let mut out = ratio.chunks_exact_mut(LANES);
    let mut sums = prefix[1..].chunks_exact_mut(LANES);
    let mut ins = counts
        .chunks_exact(LANES)
        .zip(cond.chunks_exact(LANES))
        .zip(
            prev_cond
                .chunks_exact(LANES)
                .zip(prev_ratio.chunks_exact(LANES)),
        );
    for ((r, sum), ((n, c), (p, q))) in out.by_ref().zip(sums.by_ref()).zip(ins.by_ref()) {
        for l in 0..LANES {
            r[l] = rho(n[l], c[l]);
        }
        for l in 0..LANES {
            lo[l] += r[l] * p[l];
            hi[l] += q[l] * c[l];
            c_min[l] = c_min[l].min(c[l]);
            c_max[l] = c_max[l].max(c[l]);
        }
        for (&v, s) in r.iter().zip(sum) {
            acc += v;
            *s = acc;
        }
    }
    let tail = cond.len() - cond.len() % LANES;
    let rest = out.into_remainder().iter_mut().zip(sums.into_remainder());
    for (j, (r, s)) in (tail..).zip(rest) {
        let c = cond[j];
        *r = rho(counts[j], c);
        lo[0] += *r * prev_cond[j];
        hi[0] += prev_ratio[j] * c;
        c_min[0] = c_min[0].min(c);
        c_max[0] = c_max[0].max(c);
        acc += *r;
        *s = acc;
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

    /// The banded operator with its prefixed applications hidden: the
    /// loop's running sums reach only the provided methods, which drop
    /// them, and each application forms its own.
    struct Unprefixed<'a>(&'a BandedBaselineOperator);

    impl LinearOperator for Unprefixed<'_> {
        fn rows(&self) -> usize {
            self.0.rows()
        }

        fn cols(&self) -> usize {
            self.0.cols()
        }

        fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), ldp_numeric::NumericError> {
            self.0.matvec_into(x, y)
        }

        fn matvec_transpose_into(
            &self,
            x: &[f64],
            y: &mut [f64],
        ) -> Result<(), ldp_numeric::NumericError> {
            self.0.matvec_transpose_into(x, y)
        }
    }

    #[test]
    fn dense_and_banded_operators_run_through_one_loop() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let d = 48;
        let dense = transition_matrix(&wave, d, d).unwrap();
        let op = BandedBaselineOperator::from_wave(&wave, d, d).unwrap();
        let truth: Vec<f64> = (0..d).map(|i| 1.0 + ((i * 7) % 11) as f64).collect();
        let s: f64 = truth.iter().sum();
        let truth: Vec<f64> = truth.iter().map(|t| t / s).collect();
        let counts = expected_counts(&dense, &truth, 2e5);
        let bits = |r: &EmResult| -> Vec<u64> {
            let probs = r.histogram.probs().iter().map(|p| p.to_bits());
            [
                r.iterations as u64,
                u64::from(r.converged),
                r.log_likelihood.to_bits(),
            ]
            .into_iter()
            .chain(probs)
            .collect()
        };
        for config in [EmConfig::em(1.0), EmConfig::ems()] {
            let operators: [&dyn LinearOperator; 3] = [&dense, &op, &Unprefixed(&op)];
            let [dense_run, banded, unprefixed] =
                operators.map(|m| reconstruct(m, &counts, &config).unwrap());
            // The running sums the loop forms are the ones the operator
            // would form itself, bit for bit.
            assert_eq!(bits(&banded), bits(&unprefixed));
            // The dense matrix ignores them and reconstructs the same.
            assert_eq!(dense_run.iterations, banded.iterations);
            assert!(banded.converged && dense_run.converged);
            let probs = dense_run
                .histogram
                .probs()
                .iter()
                .zip(banded.histogram.probs());
            for (x, y) in probs {
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
