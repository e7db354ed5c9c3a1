//! Differential test of EM's certified stopping test and of the EMS
//! cycles.
//!
//! `em::reconstruct` evaluates the log-likelihood `L = Σⱼ nⱼ ln (M·x̂)ⱼ`
//! only where its stopping test could fire, and fuses each map
//! evaluation's passes. [`reference`] is the unfused loop that computes
//! `L` at every test: the paper's loop for plain EM, the same SQUAREM
//! cycles, safeguards and operation order for EMS. Every run here goes
//! through both and must agree bit for bit on the iteration count, the
//! converged flag, the final log-likelihood and the estimate. Thresholds
//! set to an observed `|ΔL|` and its neighbouring floats probe the
//! stopping decision exactly at its boundary.

mod common;

use common::{noisy_counts, reference, Test};
use sw_ldp::numeric::{LinearOperator, Matrix};
use sw_ldp::sw::{reconstruct, transition_matrix, EmConfig, EmResult, SwMechanism};

/// Runs `reconstruct` and [`reference`] on the same input, asserts they
/// agree bit for bit, and returns the reference's stopping tests.
fn assert_matches<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &EmConfig,
    label: &str,
) -> Vec<Test> {
    let got = reconstruct(m, counts, config).unwrap();
    let (want, tests) = reference(m, counts, config);
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
    tests
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
        // computed once at the cap. EMS tests once per three-evaluation
        // cycle, and the cap cuts the fourteenth cycle short.
        let never = EmConfig {
            max_iterations: 40,
            min_iterations: 41,
            ..base.clone()
        };
        let tests = assert_matches(op, &counts, &never, "min_iterations > max_iterations");
        let cycle = if base.smoothing.is_some() { 3 } else { 1 };
        assert_eq!(tests.len(), 40 / cycle);
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
            let tests = assert_matches(op, &counts, &base, name);
            // Thresholds at the `|ΔL|` of early, middle and final tests
            // (index 0 compares against −∞).
            let last = tests.len() - 1;
            for k in [1, 2, 5, last / 2, last.saturating_sub(1), last] {
                let Some(&(evaluations, delta)) = tests.get(k).filter(|t| t.1.is_finite()) else {
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
                        assert!(want.iterations <= evaluations, "{label}: stops by k");
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

#[test]
fn pinned_counts_run_exactly_that_many_evaluations() {
    // `ll_threshold = 0` never stops, so `min = max = K` runs exactly K
    // map evaluations; for EMS the cap may cut a cycle after θ₁ or θ₂.
    let mech = SwMechanism::ems(1.0, 256).unwrap();
    let op = mech.pipeline().operator();
    let counts = noisy_counts(op, 1e5, 17);
    for base in [EmConfig::em(1.0), EmConfig::ems()] {
        for k in [1, 2, 3, 4, 5, 500] {
            let config = EmConfig {
                ll_threshold: 0.0,
                min_iterations: k,
                max_iterations: k,
                ..base.clone()
            };
            let label = format!("pinned K={k} smoothing={}", base.smoothing.is_some());
            assert_matches(op, &counts, &config, &label);
            let got = reconstruct(op, &counts, &config).unwrap();
            assert_eq!(got.iterations, k, "{label}");
            assert!(!got.converged, "{label}");
        }
    }
}
