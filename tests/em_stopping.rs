//! Differential test of EM's certified stopping test.
//!
//! `em::reconstruct` evaluates the log-likelihood `L = Σⱼ nⱼ ln (M·x̂)ⱼ`
//! only on iterations where its stopping test could fire. [`reference`]
//! is the plain loop that computes `L` on every iteration; every run here
//! goes through both and must agree bit for bit on the iteration count,
//! the converged flag, the final log-likelihood and the estimate.
//! Thresholds set to an observed `|ΔL|` and its neighbouring floats probe
//! the stopping decision exactly at its boundary.

use rand::Rng;
use sw_ldp::numeric::{LinearOperator, Matrix, SplitMix64};
use sw_ldp::sw::{reconstruct, transition_matrix, EmConfig, EmResult, SwMechanism};

/// The loop `reconstruct` must reproduce: `L` on every iteration. Returns
/// the result and the `|L − L_prev|` each iteration's test compared with
/// the threshold.
fn reference<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &EmConfig,
) -> (EmResult, Vec<f64>) {
    let d = m.cols();
    let d_tilde = m.rows();
    let mut theta = vec![1.0 / d as f64; d];
    let mut cond = vec![0.0; d_tilde];
    let mut ratio = vec![0.0; d_tilde];
    let mut tmp = vec![0.0; d];
    let mut smoothed = vec![0.0; d];
    let mut old_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    let mut log_likelihood = f64::NEG_INFINITY;
    let mut deltas = Vec::new();

    m.matvec_into(&theta, &mut cond).unwrap();
    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        for j in 0..d_tilde {
            ratio[j] = if cond[j] > 0.0 {
                counts[j] / cond[j]
            } else {
                0.0
            };
        }
        m.matvec_transpose_into(&ratio, &mut tmp).unwrap();
        let mut sum = 0.0;
        for i in 0..d {
            theta[i] *= tmp[i];
            sum += theta[i];
        }
        for t in &mut theta {
            *t /= sum;
        }
        if let Some(kernel) = &config.smoothing {
            kernel.smooth_into(&theta, &mut smoothed);
            theta.copy_from_slice(&smoothed);
            let s: f64 = theta.iter().sum();
            for t in &mut theta {
                *t /= s;
            }
        }
        m.matvec_into(&theta, &mut cond).unwrap();
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
        deltas.push((log_likelihood - old_ll).abs());
        if iterations >= config.min_iterations.max(1)
            && (log_likelihood - old_ll).abs() < config.ll_threshold
        {
            converged = true;
            break;
        }
        old_ll = log_likelihood;
    }
    let histogram = sw_ldp::numeric::Histogram::from_probs(theta).unwrap();
    let result = EmResult {
        histogram,
        iterations,
        log_likelihood,
        converged,
    };
    (result, deltas)
}

/// Runs `reconstruct` and [`reference`] on the same input, asserts they
/// agree bit for bit, and returns the reference's `|ΔL|` trajectory.
fn assert_matches<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &EmConfig,
    label: &str,
) -> Vec<f64> {
    let got = reconstruct(m, counts, config).unwrap();
    let (want, deltas) = reference(m, counts, config);
    assert_eq!(got.iterations, want.iterations, "{label}: iterations");
    assert_eq!(got.converged, want.converged, "{label}: converged");
    assert_eq!(
        got.log_likelihood.to_bits(),
        want.log_likelihood.to_bits(),
        "{label}: log-likelihood {} vs {}",
        got.log_likelihood,
        want.log_likelihood
    );
    let bits =
        |r: &EmResult| -> Vec<u64> { r.histogram.probs().iter().map(|p| p.to_bits()).collect() };
    assert_eq!(bits(&got), bits(&want), "{label}: estimate");
    deltas
}

/// Report counts of `n` users drawn from a Beta(5,2)-like truth at
/// granularity `d`: the expected counts `n·M·x` plus Gaussian noise of
/// their Poisson scale, rounded and clamped at zero. Cheap at any `n`.
fn noisy_counts<M: LinearOperator + ?Sized>(m: &M, n: f64, seed: u64) -> Vec<f64> {
    let d = m.cols();
    let mut truth: Vec<f64> = (0..d)
        .map(|i| {
            let x = (i as f64 + 0.5) / d as f64;
            x.powi(4) * (1.0 - x)
        })
        .collect();
    let s: f64 = truth.iter().sum();
    for t in &mut truth {
        *t /= s;
    }
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

/// Report totals from a thousand to seventy million.
const REPORTS: [f64; 3] = [1e3, 1e5, 7e7];
const EPSILONS: [f64; 3] = [0.5, 1.0, 4.0];

/// SW-EM and SW-EMS on the banded operator at granularity `d`, across ε
/// and report totals.
fn check_granularity(d: usize) {
    for eps in EPSILONS {
        for (name, mech) in [
            ("sw-em", SwMechanism::em(eps, d).unwrap()),
            ("sw-ems", SwMechanism::ems(eps, d).unwrap()),
        ] {
            let op = mech.pipeline().operator();
            let config = match name {
                "sw-em" => EmConfig::em(eps),
                _ => EmConfig::ems(),
            };
            for (k, n) in REPORTS.into_iter().enumerate() {
                let counts = noisy_counts(op, n, 7 + k as u64);
                assert_matches(
                    op,
                    &counts,
                    &config,
                    &format!("{name} eps={eps} d={d} n={n}"),
                );
            }
        }
    }
}

#[test]
fn banded_d64_matches_reference() {
    check_granularity(64);
}

#[test]
fn banded_d256_matches_reference() {
    check_granularity(256);
}

#[test]
fn banded_d1024_matches_reference() {
    check_granularity(1024);
}

#[test]
fn dense_matrix_matches_reference() {
    for eps in EPSILONS {
        let mech = SwMechanism::ems(eps, 64).unwrap();
        let dense: Matrix = transition_matrix(mech.pipeline().wave(), 64, 64).unwrap();
        for (k, n) in REPORTS.into_iter().enumerate() {
            let counts = noisy_counts(&dense, n, 31 + k as u64);
            for config in [EmConfig::em(eps), EmConfig::ems()] {
                assert_matches(&dense, &counts, &config, &format!("dense eps={eps} n={n}"));
            }
        }
    }
}

#[test]
fn empty_buckets_match_reference() {
    for d in [64, 256] {
        let mech = SwMechanism::ems(1.0, d).unwrap();
        let op = mech.pipeline().operator();
        // Sparse counts (a hundred reports over d̃ buckets) and dense
        // counts with every third bucket and both edges emptied.
        let sparse = noisy_counts(op, 100.0, 3);
        assert!(
            sparse.contains(&0.0),
            "the sparse counts have empty buckets"
        );
        let mut holes = noisy_counts(op, 1e5, 4);
        let edge = holes.len() / 8;
        for (j, c) in holes.iter_mut().enumerate() {
            if j % 3 == 0 || j < edge || j >= 7 * edge {
                *c = 0.0;
            }
        }
        for counts in [&sparse, &holes] {
            for config in [EmConfig::em(1.0), EmConfig::ems()] {
                assert_matches(op, counts, &config, &format!("empty buckets d={d}"));
            }
        }
    }
}

#[test]
fn iteration_caps_match_reference() {
    let mech = SwMechanism::ems(1.0, 256).unwrap();
    let op = mech.pipeline().operator();
    let counts = noisy_counts(op, 1e5, 5);
    for base in [EmConfig::em(1.0), EmConfig::ems()] {
        // One iteration: the loop ends before any test, and the returned
        // log-likelihood is computed at exit.
        let one = EmConfig {
            max_iterations: 1,
            ..base.clone()
        };
        assert_matches(op, &counts, &one, "max_iterations = 1");
        // The test never runs: every iteration skips `L`, which is
        // computed once at the cap.
        let never = EmConfig {
            max_iterations: 40,
            min_iterations: 41,
            ..base.clone()
        };
        let deltas = assert_matches(op, &counts, &never, "min_iterations > max_iterations");
        assert_eq!(deltas.len(), 40);
        // The test starts late, past iterations whose `L` was skipped.
        let late = EmConfig {
            min_iterations: 25,
            ..base
        };
        assert_matches(op, &counts, &late, "min_iterations = 25");
    }
}

#[test]
fn adversarial_thresholds_stop_at_the_same_iteration() {
    for (eps, d, n) in [(1.0, 256, 1e5), (0.5, 1024, 7e7), (4.0, 64, 1e3)] {
        for (name, mech) in [
            ("sw-em", SwMechanism::em(eps, d).unwrap()),
            ("sw-ems", SwMechanism::ems(eps, d).unwrap()),
        ] {
            let op = mech.pipeline().operator();
            let counts = noisy_counts(op, n, 11);
            let base = match name {
                "sw-em" => EmConfig::em(eps),
                _ => EmConfig::ems(),
            };
            let deltas = assert_matches(op, &counts, &base, name);
            // Thresholds at the `|ΔL|` of early, middle and final
            // iterations (index 0 compares against −∞).
            let last = deltas.len() - 1;
            for k in [1, 2, 5, last / 2, last.saturating_sub(1), last] {
                let Some(&delta) = deltas.get(k).filter(|v| v.is_finite()) else {
                    continue;
                };
                for tau in [delta.next_down(), delta, delta.next_up()] {
                    let config = EmConfig {
                        ll_threshold: tau.max(0.0),
                        ..base.clone()
                    };
                    let label = format!("{name} eps={eps} d={d} n={n} k={k} tau={tau:e}");
                    let (want, _) = reference(op, &counts, &config);
                    if tau > delta {
                        assert!(want.iterations <= k + 1, "{label}: stops by k");
                    }
                    assert_matches(op, &counts, &config, &label);
                }
            }
        }
    }
}

#[test]
fn zero_conditionals_take_the_exact_test() {
    // A zeroed row makes `(M·x̂)ⱼ = 0` on every iteration, so the
    // certificate never holds and every test runs the log-likelihood.
    let mech = SwMechanism::ems(1.0, 64).unwrap();
    let mut dense: Matrix = transition_matrix(mech.pipeline().wave(), 64, 64).unwrap();
    dense.row_mut(10).fill(0.0);
    let mut counts = noisy_counts(&dense, 1e5, 13);
    assert_eq!(counts[10], 0.0);
    for config in [EmConfig::em(1.0), EmConfig::ems()] {
        assert_matches(&dense, &counts, &config, "zero row, no reports there");
    }
    // Reports on the zeroed row make `L = −∞` throughout: the test never
    // fires and the returned log-likelihood is `−∞`.
    counts[10] = 5.0;
    let capped = EmConfig {
        max_iterations: 50,
        ..EmConfig::ems()
    };
    assert_matches(&dense, &counts, &capped, "zero row with reports");
    let got = reconstruct(&dense, &counts, &capped).unwrap();
    assert!(!got.converged && got.log_likelihood == f64::NEG_INFINITY);
}
