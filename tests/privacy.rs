//! Privacy accounting tests: every mechanism's randomization probabilities
//! must respect the ε-LDP bound `Pr[Ψ(v₁) ∈ T] ≤ eᵉ · Pr[Ψ(v₂) ∈ T]`.
//!
//! For the discrete mechanisms the bound is checked empirically over the
//! full output domain; for the continuous ones the density ratio is checked
//! analytically (the densities are known in closed form) plus a Monte-Carlo
//! bucket check.

use sw_ldp::prelude::*;

/// Empirical output distribution of a discrete randomizer.
fn empirical_dist<F: FnMut(usize) -> usize>(
    input: usize,
    out_size: usize,
    trials: usize,
    mut f: F,
) -> Vec<f64> {
    let mut counts = vec![0.0; out_size];
    for _ in 0..trials {
        counts[f(input)] += 1.0;
    }
    for c in &mut counts {
        *c /= trials as f64;
    }
    counts
}

/// Asserts max_j p1[j]/p2[j] ≤ e^eps within sampling tolerance.
fn assert_ldp_bound(p1: &[f64], p2: &[f64], eps: f64, tol: f64) {
    let bound = eps.exp() * (1.0 + tol);
    for (j, (&a, &b)) in p1.iter().zip(p2.iter()).enumerate() {
        if b > 0.005 {
            // only well-estimated cells
            assert!(
                a / b <= bound,
                "ratio {} at output {j} exceeds e^eps = {}",
                a / b,
                eps.exp()
            );
        }
    }
}

#[test]
fn grr_satisfies_ldp_empirically() {
    let eps = 1.0;
    let g = Grr::new(8, eps).unwrap();
    let mut rng = SplitMix64::new(2001);
    let trials = 200_000;
    let p1 = empirical_dist(0, 8, trials, |v| {
        Mechanism::randomize(&g, &v, &mut rng).unwrap()
    });
    let p2 = empirical_dist(5, 8, trials, |v| {
        Mechanism::randomize(&g, &v, &mut rng).unwrap()
    });
    assert_ldp_bound(&p1, &p2, eps, 0.1);
}

#[test]
fn discrete_sw_satisfies_ldp_empirically() {
    let eps = 1.0;
    let sw = DiscreteSw::with_bandwidth(16, 3, eps).unwrap();
    let mut rng = SplitMix64::new(2002);
    let trials = 300_000;
    let p1 = empirical_dist(0, sw.output_size(), trials, |v| {
        Mechanism::randomize(&sw, &v, &mut rng).unwrap()
    });
    let p2 = empirical_dist(15, sw.output_size(), trials, |v| {
        Mechanism::randomize(&sw, &v, &mut rng).unwrap()
    });
    assert_ldp_bound(&p1, &p2, eps, 0.1);
}

#[test]
fn continuous_waves_satisfy_ldp_analytically() {
    // The output density for input v at point t is W(t - v); the LDP ratio
    // between any two inputs at any output point is bounded by
    // max(W)/min(W) = e^eps by construction.
    for eps in [0.5, 1.0, 2.5] {
        for shape in [
            WaveShape::Square,
            WaveShape::Trapezoid { ratio: 0.5 },
            WaveShape::Triangle,
        ] {
            let wave = Wave::new(shape, 0.3, eps).unwrap();
            let grid: Vec<f64> = (0..=200).map(|k| -0.5 + k as f64 * 0.01).collect();
            for &v1 in &[0.0, 0.25, 0.5, 1.0] {
                for &v2 in &[0.0, 0.7, 1.0] {
                    for &t in &grid {
                        let r = wave.density(t - v1) / wave.density(t - v2);
                        assert!(
                            r <= eps.exp() + 1e-9,
                            "shape {shape:?} eps {eps}: ratio {r} at t={t}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn continuous_sw_satisfies_ldp_empirically_via_buckets() {
    let eps = 1.0;
    let wave = Wave::square(0.25, eps).unwrap();
    let mut rng = SplitMix64::new(2003);
    let trials = 400_000;
    let buckets = 30;
    let lo = wave.output_lo();
    let width = (wave.output_hi() - lo) / buckets as f64;
    let mut sample = |v: f64| -> Vec<f64> {
        let mut counts = vec![0.0; buckets];
        for _ in 0..trials {
            let r = wave.randomize(v, &mut rng).unwrap();
            let j = (((r - lo) / width) as usize).min(buckets - 1);
            counts[j] += 1.0;
        }
        for c in &mut counts {
            *c /= trials as f64;
        }
        counts
    };
    let p1 = sample(0.1);
    let p2 = sample(0.9);
    assert_ldp_bound(&p1, &p2, eps, 0.1);
}

#[test]
fn pm_satisfies_ldp_via_buckets() {
    let eps = 1.0;
    let pm = Pm::new(eps).unwrap();
    let mut rng = SplitMix64::new(2004);
    let trials = 400_000;
    let buckets = 24;
    let s = pm.output_bound();
    let width = 2.0 * s / buckets as f64;
    let mut sample = |v: f64| -> Vec<f64> {
        let mut counts = vec![0.0; buckets];
        for _ in 0..trials {
            let r = pm.randomize(v, &mut rng).unwrap();
            let j = (((r + s) / width) as usize).min(buckets - 1);
            counts[j] += 1.0;
        }
        for c in &mut counts {
            *c /= trials as f64;
        }
        counts
    };
    let p1 = sample(-1.0);
    let p2 = sample(1.0);
    assert_ldp_bound(&p1, &p2, eps, 0.12);
}

#[test]
fn sr_satisfies_ldp_exactly() {
    let eps = 1.3;
    let sr = Sr::new(eps).unwrap();
    let mut rng = SplitMix64::new(2005);
    let trials = 300_000;
    // Worst-case inputs are the extremes.
    let mut plus_prob = |v: f64| -> f64 {
        let mut plus = 0.0;
        for _ in 0..trials {
            if sr.randomize(v, &mut rng).unwrap() > 0.0 {
                plus += 1.0;
            }
        }
        plus / trials as f64
    };
    let p1 = plus_prob(1.0);
    let p2 = plus_prob(-1.0);
    assert!(p1 / p2 <= eps.exp() * 1.05);
    assert!((1.0 - p1) > 0.0 && (1.0 - p2) / (1.0 - p1) <= eps.exp() * 1.05);
}

#[test]
fn olh_hashed_reports_satisfy_ldp() {
    // Conditional on the hash seed, OLH is GRR over the hash range; check
    // the report distribution ratio for a fixed seed by brute force over
    // the GRR kernel probabilities.
    let eps = 1.0;
    let o = Olh::new(64, eps).unwrap();
    let g = o.hash_range() as f64;
    let e = eps.exp();
    let p = e / (e + g - 1.0);
    let q = (1.0 - p) / (g - 1.0);
    assert!((p / q - e).abs() < 1e-9);
}
