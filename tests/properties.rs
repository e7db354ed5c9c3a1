//! Property-based tests (proptest) on the workspace's core invariants.

use proptest::prelude::*;
use sw_ldp::cfo::postprocess::{norm_mul, norm_sub};
use sw_ldp::hierarchy::{haar_forward, haar_inverse, project_consistent, TreeShape, TreeValues};
use sw_ldp::prelude::*;
use sw_ldp::sw::{reconstruct, transition_matrix};

fn prob_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, 2..max_len).prop_filter_map("need positive mass", |v| {
        let s: f64 = v.iter().sum();
        if s > 1e-9 {
            Some(v.iter().map(|x| x / s).collect::<Vec<f64>>())
        } else {
            None
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn histogram_cdf_is_monotone_and_normalized(probs in prob_vec(64)) {
        let h = Histogram::from_probs(probs).unwrap();
        let cdf = h.cdf();
        for w in cdf.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        prop_assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
        // Interpolated CDF agrees at bucket boundaries.
        for i in 0..h.len() {
            let t = (i + 1) as f64 / h.len() as f64;
            prop_assert!((h.cdf_at(t) - cdf[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn histogram_quantile_inverts_cdf(probs in prob_vec(48), beta in 0.01f64..0.99) {
        let h = Histogram::from_probs(probs).unwrap();
        let q = h.quantile(beta);
        prop_assert!((0.0..=1.0).contains(&q));
        // CDF at the quantile is at least beta (up to numeric tolerance)
        // and the CDF just below is at most beta.
        prop_assert!(h.cdf_at(q) >= beta - 1e-9);
        if q > 1e-9 {
            prop_assert!(h.cdf_at(q - 1e-9) <= beta + 1e-9);
        }
    }

    #[test]
    fn norm_sub_projects_onto_simplex(
        raw in prop::collection::vec(-1.0f64..1.0, 1..64),
        target in 0.1f64..4.0
    ) {
        let out = norm_sub(&raw, target);
        prop_assert_eq!(out.len(), raw.len());
        prop_assert!(out.iter().all(|&v| v >= 0.0));
        let sum: f64 = out.iter().sum();
        prop_assert!((sum - target).abs() < 1e-6, "sum {} target {}", sum, target);
        // Idempotence.
        let twice = norm_sub(&out, target);
        for (a, b) in out.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn norm_mul_projects_onto_simplex(
        raw in prop::collection::vec(-1.0f64..1.0, 1..64),
    ) {
        let out = norm_mul(&raw, 1.0);
        prop_assert!(out.iter().all(|&v| v >= 0.0));
        prop_assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wasserstein_is_a_metric_sample(
        a in prob_vec(32),
        b in prob_vec(32),
    ) {
        // Pad to equal length by renormalizing over the max length.
        let len = a.len().max(b.len());
        let pad = |v: &[f64]| {
            let mut p = v.to_vec();
            p.resize(len, 0.0);
            Histogram::from_probs(p).unwrap()
        };
        let ha = pad(&a);
        let hb = pad(&b);
        let dab = wasserstein(&ha, &hb).unwrap();
        let dba = wasserstein(&hb, &ha).unwrap();
        prop_assert!((dab - dba).abs() < 1e-12);
        prop_assert!(dab >= 0.0);
        prop_assert!(wasserstein(&ha, &ha).unwrap() < 1e-12);
        prop_assert!(ks_distance(&ha, &hb).unwrap() >= 0.0);
    }

    #[test]
    fn haar_roundtrip_for_arbitrary_vectors(
        leaves in prop::collection::vec(-10.0f64..10.0, 1..5usize)
            .prop_map(|seed| {
                // Expand the seed to a power-of-two length vector.
                let len = 1usize << (seed.len() + 1); // 4..64
                (0..len).map(|i| seed[i % seed.len()] * ((i % 7) as f64 - 3.0)).collect::<Vec<f64>>()
            })
    ) {
        let coeffs = haar_forward(&leaves).unwrap();
        let back = haar_inverse(&coeffs).unwrap();
        prop_assert_eq!(back.len(), leaves.len());
        for (x, y) in leaves.iter().zip(&back) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn consistency_projection_is_consistent_and_idempotent(
        flat in prop::collection::vec(-1.0f64..1.0, 21)
    ) {
        // β=4, 16 leaves: 1 + 4 + 16 = 21 nodes.
        let shape = TreeShape::new(4, 16).unwrap();
        let tree = TreeValues::unflatten(&shape, &flat).unwrap();
        let proj = project_consistent(&shape, &tree).unwrap();
        prop_assert!(proj.consistency_gap(&shape) < 1e-9);
        let again = project_consistent(&shape, &proj).unwrap();
        for (a, b) in proj.flatten().iter().zip(again.flatten().iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn transition_matrices_are_column_stochastic(
        b in 0.02f64..0.6,
        eps in 0.2f64..4.0,
        shape_pick in 0usize..3,
    ) {
        let shape = match shape_pick {
            0 => WaveShape::Square,
            1 => WaveShape::Trapezoid { ratio: 0.5 },
            _ => WaveShape::Triangle,
        };
        let wave = Wave::new(shape, b, eps).unwrap();
        let m = transition_matrix(&wave, 12, 16).unwrap();
        prop_assert!(m.is_nonnegative());
        for s in m.column_sums() {
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn em_reconstruction_is_always_a_distribution(
        counts in prop::collection::vec(0.0f64..1000.0, 16),
        eps in 0.3f64..3.0,
    ) {
        prop_assume!(counts.iter().sum::<f64>() > 1.0);
        let wave = Wave::square(optimal_b(eps).unwrap(), eps).unwrap();
        let m = transition_matrix(&wave, 16, 16).unwrap();
        let result = reconstruct(&m, &counts, &EmConfig::ems()).unwrap();
        let probs = result.histogram.probs();
        prop_assert!(probs.iter().all(|&p| p >= 0.0));
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sw_randomize_stays_in_output_domain(
        v in 0.0f64..=1.0,
        eps in 0.2f64..4.0,
        seed in 0u64..1000,
    ) {
        let b = optimal_b(eps).unwrap();
        let wave = Wave::square(b, eps).unwrap();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..20 {
            let out = wave.randomize(v, &mut rng).unwrap();
            prop_assert!(out >= -b - 1e-12 && out <= 1.0 + b + 1e-12);
        }
    }

    #[test]
    fn optimal_b_is_in_range_and_decreasing(eps in 0.05f64..8.0) {
        let b = optimal_b(eps).unwrap();
        prop_assert!(b > 0.0 && b <= 0.5 + 1e-9);
        let b2 = optimal_b(eps + 0.1).unwrap();
        prop_assert!(b2 <= b + 1e-9);
    }

    #[test]
    fn grr_estimates_sum_to_one(
        seed in 0u64..500,
        d in 2usize..20,
    ) {
        let g = Grr::new(d, 1.0).unwrap();
        let mut rng = SplitMix64::new(seed);
        let values: Vec<usize> = (0..500).map(|i| i % d).collect();
        let reports = Client::new(&g).randomize_batch(&values, &mut rng).unwrap();
        let est = g.aggregate(&reports).unwrap();
        // The GRR inverse estimator preserves the total exactly.
        prop_assert!((est.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
