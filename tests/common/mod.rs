//! Shared by `em_stopping` and `ems_acceleration`: the unfused reference
//! loops `em::reconstruct` must reproduce bit for bit, and the noisy
//! report counts both suites feed them.

#![allow(dead_code)]

use rand::Rng;
use sw_ldp::numeric::{Histogram, LinearOperator, SplitMix64};
use sw_ldp::sw::em::{MAX_BACKTRACKS, RESIDUAL_SLACK, STEP_MAX_GROWTH};
use sw_ldp::sw::{EmConfig, EmResult, SmoothingKernel};

/// One stopping test of a reference run: the map evaluations done when it
/// ran, and the `|L − L_prev|` it compared with the threshold.
pub type Test = (usize, f64);

/// The loop `reconstruct` must reproduce for `config`: the paper's loop
/// for plain EM, the SQUAREM cycles for EMS.
pub fn reference<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &EmConfig,
) -> (EmResult, Vec<Test>) {
    match &config.smoothing {
        None => paper_loop(m, counts, config),
        Some(kernel) => squarem_loop(m, counts, config, kernel),
    }
}

/// `c = M·θ`.
fn conditional<M: LinearOperator + ?Sized>(m: &M, theta: &[f64]) -> Vec<f64> {
    let mut cond = vec![0.0; m.rows()];
    m.matvec_into(theta, &mut cond).unwrap();
    cond
}

/// `L = Σⱼ nⱼ ln cⱼ` over the buckets with reports, left to right.
fn log_likelihood(counts: &[f64], cond: &[f64]) -> f64 {
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

/// One evaluation of the EM map at `θ` (EMS when `smoothing` is set),
/// each step its own pass: the E-step from `M·θ`, the M-step, the
/// normalization, then (EMS) the smoothing and its renormalization.
pub fn em_map<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    smoothing: Option<&SmoothingKernel>,
    theta: &[f64],
) -> Vec<f64> {
    em_map_at(m, counts, smoothing, theta, &conditional(m, theta))
}

/// [`em_map`] with the E-step's conditional `M·θ` given.
fn em_map_at<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    smoothing: Option<&SmoothingKernel>,
    theta: &[f64],
    cond: &[f64],
) -> Vec<f64> {
    let ratio: Vec<f64> = counts
        .iter()
        .zip(cond)
        .map(|(&n, &c)| if c > 0.0 { n / c } else { 0.0 })
        .collect();
    let mut tmp = vec![0.0; m.cols()];
    m.matvec_transpose_into(&ratio, &mut tmp).unwrap();
    let mut next: Vec<f64> = theta.iter().zip(&tmp).map(|(&t, &v)| t * v).collect();
    let sum: f64 = sum_left_to_right(&next);
    for t in &mut next {
        *t /= sum;
    }
    if let Some(kernel) = smoothing {
        let mut smoothed = vec![0.0; next.len()];
        kernel.smooth_into(&next, &mut smoothed);
        let s = sum_left_to_right(&smoothed);
        next = smoothed.iter().map(|&t| t / s).collect();
    }
    next
}

/// `x₀ + 2s·r + s²·v` with `r = x₁ − x₀` and `v = (x₂ − x₁) − r`.
fn extrapolation(x0: &[f64], x1: &[f64], x2: &[f64], step: f64) -> Vec<f64> {
    let (a, b) = (2.0 * step, step * step);
    (0..x0.len())
        .map(|i| {
            let r = x1[i] - x0[i];
            let v = (x2[i] - x1[i]) - r;
            x0[i] + a * r + b * v
        })
        .collect()
}

/// The norms' summation order: entry `i` is added to lane `i mod 4`, left
/// to right, and the four lanes are then added in order.
fn lane_sum(values: impl Iterator<Item = f64>) -> f64 {
    let mut lanes = [0.0; 4];
    for (i, v) in values.enumerate() {
        lanes[i % 4] += v;
    }
    lanes.iter().fold(0.0, |acc, &v| acc + v)
}

fn sum_left_to_right(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |acc, &v| acc + v)
}

fn result(theta: Vec<f64>, iterations: usize, log_likelihood: f64, converged: bool) -> EmResult {
    EmResult {
        histogram: Histogram::from_probs(theta).unwrap(),
        iterations,
        log_likelihood,
        converged,
    }
}

/// The paper's loop (Algorithm 1): one map evaluation and one test of
/// `|L − L_prev| < τ` per iteration, `L` computed every time.
pub fn paper_loop<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &EmConfig,
) -> (EmResult, Vec<Test>) {
    let mut theta = vec![1.0 / m.cols() as f64; m.cols()];
    let mut old_ll = f64::NEG_INFINITY;
    let mut log_likelihood = f64::NEG_INFINITY;
    let mut tests = Vec::new();
    let mut iterations = 0;
    let mut converged = false;
    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        theta = em_map(m, counts, config.smoothing.as_ref(), &theta);
        log_likelihood = log_likelihood_of_theta(m, counts, &theta);
        tests.push((iterations, (log_likelihood - old_ll).abs()));
        if iterations >= config.min_iterations.max(1)
            && (log_likelihood - old_ll).abs() < config.ll_threshold
        {
            converged = true;
            break;
        }
        old_ll = log_likelihood;
    }
    (result(theta, iterations, log_likelihood, converged), tests)
}

fn log_likelihood_of_theta<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    theta: &[f64],
) -> f64 {
    log_likelihood(counts, &conditional(m, theta))
}

/// EMS in SQUAREM-3 cycles, each quantity its own pass: `θ₁ = F(θ₀)`,
/// `θ₂ = F(θ₁)`, the step `s = ‖r‖₂/‖v‖₂` clamped to `[1, s_max]`, `θ′`
/// (halving `s` toward 1 while an entry is not positive and finite), the
/// stabilizing `F(θ′)`, whose E-step reads the same extrapolation of the
/// three conditionals, unless its residual exceeds `RESIDUAL_SLACK·‖r‖₁`,
/// then `θ₂`.
/// `|L − L_prev| < τ` is tested between successive accepted points;
/// `L` is computed at every one.
pub fn squarem_loop<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &EmConfig,
    kernel: &SmoothingKernel,
) -> (EmResult, Vec<Test>) {
    let map = |theta: &[f64]| em_map(m, counts, Some(kernel), theta);
    let mut theta = vec![1.0 / m.cols() as f64; m.cols()];
    let mut old_ll = f64::NEG_INFINITY;
    let mut tests = Vec::new();
    let mut evaluations = 0;
    let mut step_max = 1.0;
    loop {
        let theta1 = map(&theta);
        evaluations += 1;
        if evaluations == config.max_iterations {
            let ll = log_likelihood_of_theta(m, counts, &theta1);
            return (result(theta1, evaluations, ll, false), tests);
        }
        let theta2 = map(&theta1);
        evaluations += 1;
        if evaluations == config.max_iterations {
            let ll = log_likelihood_of_theta(m, counts, &theta2);
            return (result(theta2, evaluations, ll, false), tests);
        }
        let r: Vec<f64> = theta1.iter().zip(&theta).map(|(&a, &b)| a - b).collect();
        let v: Vec<f64> = theta2
            .iter()
            .zip(&theta1)
            .zip(&r)
            .map(|((&t2, &t1), &r)| (t2 - t1) - r)
            .collect();
        let r_sq = lane_sum(r.iter().map(|&x| x * x));
        let r_abs = lane_sum(r.iter().map(|&x| x.abs()));
        let v_sq = lane_sum(v.iter().map(|&x| x * x));

        let ratio = (r_sq / v_sq).sqrt();
        let mut step = if ratio > 1.0 {
            ratio.min(step_max)
        } else {
            1.0
        };
        let full = step == step_max;
        let mut backtracks = 0;
        let (extrapolated, cond) = loop {
            if step == 1.0 {
                let cond = conditional(m, &theta2);
                break (theta2.clone(), cond);
            }
            let candidate = extrapolation(&theta, &theta1, &theta2, step);
            if candidate.iter().all(|&t| t > 0.0 && t < f64::INFINITY) {
                let [c0, c1, c2] = [&theta, &theta1, &theta2].map(|x| conditional(m, x));
                break (candidate, extrapolation(&c0, &c1, &c2, step));
            }
            backtracks += 1;
            step = if backtracks == MAX_BACKTRACKS {
                1.0
            } else {
                (step + 1.0) / 2.0
            };
        };
        let stabilized = em_map_at(m, counts, Some(kernel), &extrapolated, &cond);
        evaluations += 1;
        let residual = lane_sum(
            stabilized
                .iter()
                .zip(&extrapolated)
                .map(|(&a, &b)| (a - b).abs()),
        );
        theta = if residual <= RESIDUAL_SLACK * r_abs {
            if full && backtracks == 0 {
                step_max *= STEP_MAX_GROWTH;
            }
            stabilized
        } else {
            theta2
        };

        let ll = log_likelihood_of_theta(m, counts, &theta);
        tests.push((evaluations, (ll - old_ll).abs()));
        let stop =
            evaluations >= config.min_iterations && (ll - old_ll).abs() < config.ll_threshold;
        if stop || evaluations == config.max_iterations {
            return (result(theta, evaluations, ll, stop), tests);
        }
        old_ll = ll;
    }
}

/// The Beta(5,2)-like truth `x⁴(1 − x)` at granularity `d`.
pub fn beta_truth(d: usize) -> Vec<f64> {
    let truth: Vec<f64> = (0..d)
        .map(|i| {
            let x = (i as f64 + 0.5) / d as f64;
            x.powi(4) * (1.0 - x)
        })
        .collect();
    let s: f64 = truth.iter().sum();
    truth.iter().map(|t| t / s).collect()
}

/// Report counts of `n` users drawn from [`beta_truth`] at the operator's
/// granularity: the expected counts `n·M·x` plus Gaussian noise of their
/// Poisson scale, rounded and clamped at zero. Cheap at any `n`.
pub fn noisy_counts<M: LinearOperator + ?Sized>(m: &M, n: f64, seed: u64) -> Vec<f64> {
    let truth = beta_truth(m.cols());
    let mut rng = SplitMix64::new(seed);
    m.matvec(&truth)
        .unwrap()
        .iter()
        .map(|&q| {
            // Irwin–Hall: twelve uniforms less six is close to N(0, 1).
            let z: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0;
            let mean = n * q;
            (mean + mean.sqrt() * z).round().max(0.0)
        })
        .collect()
}
