//! Accuracy evidence for the SQUAREM-accelerated EMS loop.
//!
//! `em::reconstruct` runs EMS in SQUAREM cycles; the paper's plain loop
//! ([`paper_loop`]) stays here as the baseline. Each cell runs both on
//! [`noisy_counts`] with a fixed seed, plus the EMS fixed point (the
//! reference cycles run with `τ = 0` for [`FIXED_POINT_EVALUATIONS`] map
//! evaluations, certified by the residual of the unfused map), and asserts:
//!
//! 1. the accelerated estimate is no farther (W1) from the fixed point than
//!    the baseline's, or its distance is below [`NEGLIGIBLE`] of the
//!    baseline's W1 to the truth, where it cannot move the estimate's
//!    accuracy;
//! 2. it took at most [`MAX_EVALUATION_SHARE`] of the baseline's map
//!    evaluations;
//! 3. its W1 to the truth is at most [`MAX_TRUTH_RATIO`] times the
//!    baseline's;
//! 4. at 10⁹ reports it converged.

mod common;

use common::{beta_truth, em_map, noisy_counts, paper_loop, squarem_loop};
use sw_ldp::metrics::wasserstein;
use sw_ldp::numeric::{Histogram, LinearOperator};
use sw_ldp::sw::{reconstruct, EmConfig, SmoothingKernel, SwMechanism};

/// Report totals per cell.
const REPORTS: [f64; 5] = [1e5, 1e6, 1e7, 1e8, 1e9];

/// Map evaluations of the fixed-point run.
const FIXED_POINT_EVALUATIONS: usize = 24_000;

/// The fixed point's largest admitted residual `‖F(θ) − θ‖₁`.
const FIXED_POINT_RESIDUAL: f64 = 1e-10;

/// Criterion 2's bound on accelerated / baseline map evaluations.
const MAX_EVALUATION_SHARE: f64 = 0.4;

/// Criterion 3's bound on accelerated / baseline W1 to the truth.
const MAX_TRUTH_RATIO: f64 = 1.10;

/// Criterion 1's floor, as a share of the baseline's W1 to the truth.
const NEGLIGIBLE: f64 = 0.01;

/// The EMS fixed point for `counts`, checked against the unfused map.
fn fixed_point<M: LinearOperator + ?Sized>(m: &M, counts: &[f64], label: &str) -> Histogram {
    let kernel = SmoothingKernel::binomial3();
    let config = EmConfig {
        ll_threshold: 0.0,
        max_iterations: FIXED_POINT_EVALUATIONS,
        min_iterations: FIXED_POINT_EVALUATIONS,
        smoothing: Some(kernel.clone()),
    };
    let (fixed, _) = squarem_loop(m, counts, &config, &kernel);
    let theta = fixed.histogram.probs();
    let next = em_map(m, counts, Some(&kernel), theta);
    let residual: f64 = next.iter().zip(theta).map(|(a, b)| (a - b).abs()).sum();
    assert!(
        residual <= FIXED_POINT_RESIDUAL,
        "{label}: fixed point residual {residual:e}"
    );
    fixed.histogram
}

/// Every report total at `(eps, d)`.
fn check(eps: f64, d: usize) {
    let mech = SwMechanism::ems(eps, d).unwrap();
    let op = mech.pipeline().operator();
    let truth = Histogram::from_probs(beta_truth(d)).unwrap();
    let w1 = |a: &Histogram, b: &Histogram| wasserstein(a, b).unwrap();
    for (k, n) in REPORTS.into_iter().enumerate() {
        let label = format!("sw-ems eps={eps} d={d} n={n:e}");
        let counts = noisy_counts(op, n, 100 + k as u64);
        let (paper, _) = paper_loop(op, &counts, &EmConfig::ems());
        let fast = reconstruct(op, &counts, &EmConfig::ems()).unwrap();
        let fixed = fixed_point(op, &counts, &label);

        let (fast_fixed, paper_fixed) = (w1(&fast.histogram, &fixed), w1(&paper.histogram, &fixed));
        let (fast_truth, paper_truth) = (w1(&fast.histogram, &truth), w1(&paper.histogram, &truth));
        assert!(
            fast_fixed <= paper_fixed.max(NEGLIGIBLE * paper_truth),
            "{label}: W1 to the fixed point {fast_fixed:e}, paper loop {paper_fixed:e} \
             (W1 to truth {paper_truth:e})"
        );
        let share = fast.iterations as f64 / paper.iterations as f64;
        assert!(
            share <= MAX_EVALUATION_SHARE,
            "{label}: {} map evaluations, paper loop {} ({share:.3})",
            fast.iterations,
            paper.iterations
        );
        assert!(
            fast_truth <= MAX_TRUTH_RATIO * paper_truth,
            "{label}: W1 to truth {fast_truth:e}, paper loop {paper_truth:e}"
        );
        if n >= 1e9 {
            assert!(
                fast.converged,
                "{label}: no convergence in {} evaluations",
                fast.iterations
            );
        }
    }
}

#[test]
fn eps_half_d256_matches_the_paper_loop() {
    check(0.5, 256);
}

#[test]
fn eps_one_d1024_matches_the_paper_loop() {
    check(1.0, 1024);
}

#[test]
fn eps_2_5_d256_matches_the_paper_loop() {
    check(2.5, 256);
}
