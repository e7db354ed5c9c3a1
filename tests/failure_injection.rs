//! Failure-injection and edge-case tests: degenerate populations, extreme
//! parameters, pathological report streams — everything that must degrade
//! gracefully (typed errors or safe fallbacks) rather than panic or corrupt
//! estimates.

use sw_ldp::prelude::*;
use sw_ldp::sw::{reconstruct, transition_matrix};

/// Randomizes every value through `mechanism` on `rng` and aggregates.
fn estimate<M: Mechanism>(mechanism: &M, values: &[M::Input], rng: &mut SplitMix64) -> M::Output
where
    M::Input: Sized,
{
    let reports = Client::new(mechanism).randomize_batch(values, rng).unwrap();
    mechanism.aggregate(&reports).unwrap()
}

#[test]
fn em_handles_all_reports_in_one_bucket() {
    // All mass in a single output bucket: EM must converge to a valid
    // distribution (concentrated around the compatible inputs).
    let pipeline = SwPipeline::new(1.0, 16).unwrap();
    let mut counts = vec![0.0; 16];
    counts[7] = 10_000.0;
    let result = pipeline.reconstruct(&counts, &Reconstruction::Ems).unwrap();
    let probs = result.histogram.probs();
    assert!(probs.iter().all(|&p| p.is_finite() && p >= 0.0));
    assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn em_handles_sparse_counts_with_zero_buckets() {
    let pipeline = SwPipeline::new(1.0, 32).unwrap();
    let mut counts = vec![0.0; 32];
    counts[0] = 3.0;
    counts[31] = 3.0;
    let result = pipeline.reconstruct(&counts, &Reconstruction::Em).unwrap();
    assert!(result
        .histogram
        .probs()
        .iter()
        .all(|&p| p.is_finite() && p >= 0.0));
}

#[test]
fn tiny_populations_still_produce_valid_distributions() {
    // Two users is the bare minimum for every method that needs one report.
    let values = [0.2, 0.8];
    let mut rng = SplitMix64::new(6001);
    let h = estimate(&SwMechanism::ems(1.0, 16).unwrap(), &values, &mut rng);
    assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);

    let est = BinningEstimator::new(4, 16, 1.0).unwrap();
    let h = estimate(&est, &values, &mut rng);
    assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn hh_with_fewer_users_than_levels_fills_empty_levels_uniformly() {
    // A 4-level tree receiving 2 users leaves levels empty; collection must
    // still succeed and produce a consistent tree.
    let hh = HierarchicalHistogram::new(4, 256, 1.0).unwrap();
    let mut rng = SplitMix64::new(6002);
    let raw = estimate(&hh, &[3, 200], &mut rng);
    let consistent = hh.make_consistent(&raw).unwrap();
    assert!(consistent.consistency_gap(hh.shape()) < 1e-9);
    let sum: f64 = consistent.leaves().iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
}

#[test]
fn haarhrr_with_one_user_per_level_is_stable() {
    let est = HaarHrr::new(16, 1.0).unwrap();
    let mut rng = SplitMix64::new(6003);
    let leaves = estimate(&est, &[5, 6, 7, 8], &mut rng);
    assert_eq!(leaves.len(), 16);
    assert!(leaves.iter().all(|l| l.is_finite()));
    // Leaves always sum to the public total.
    assert!((leaves.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn extreme_epsilons_do_not_break_mechanisms() {
    let mut rng = SplitMix64::new(6004);
    // Very small epsilon: mechanisms become nearly uniform but stay valid.
    let tiny = SwMechanism::ems(1e-4, 16).unwrap();
    assert!(tiny.pipeline().wave().b() > 0.49, "b should approach 1/2");
    let values: Vec<f64> = (0..2000).map(|i| (i % 100) as f64 / 100.0).collect();
    let h = estimate(&tiny, &values, &mut rng);
    assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);

    // Very large epsilon: b approaches 0 and recovery is near-exact.
    let large = SwMechanism::ems(12.0, 16).unwrap();
    assert!(large.pipeline().wave().b() < 0.01);
    let concentrated = vec![0.55; 5000];
    let h = estimate(&large, &concentrated, &mut rng);
    assert!(h.range_mass(0.4, 0.7) > 0.95);
}

#[test]
fn discrete_sw_minimum_domain() {
    // d = 2 with b = 0 degenerates to binary randomized response.
    let sw = DiscreteSw::with_bandwidth(2, 0, 1.0).unwrap();
    assert_eq!(sw.output_size(), 2);
    let mut rng = SplitMix64::new(6005);
    let mut kept = 0;
    let n = 50_000;
    for _ in 0..n {
        if sw.randomize(&1, &mut rng).unwrap() == 1 {
            kept += 1;
        }
    }
    let frac = kept as f64 / n as f64;
    let expect = 1f64.exp() / (1f64.exp() + 1.0);
    assert!((frac - expect).abs() < 0.01, "{frac} vs {expect}");
}

#[test]
fn pipeline_with_asymmetric_bucket_counts() {
    // d̃ < d (underdetermined) and d̃ > d (overdetermined) both reconstruct.
    let wave = Wave::square(0.25, 1.5).unwrap();
    let values: Vec<f64> = (0..20_000).map(|i| (i % 500) as f64 / 500.0).collect();
    let mut rng = SplitMix64::new(6006);
    for (d, d_tilde) in [(32usize, 16usize), (16, 48)] {
        let pipeline = SwPipeline::with_wave(wave, d, d_tilde).unwrap();
        let mechanism = SwMechanism::with_pipeline(pipeline, Reconstruction::Ems);
        let h = estimate(&mechanism, &values, &mut rng);
        assert_eq!(h.len(), d);
        assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

#[test]
fn mean_mechanisms_survive_constant_populations() {
    // Zero-variance input: variance estimate must clamp at >= 0.
    let values = vec![0.5; 10_000];
    let mut rng = SplitMix64::new(6007);
    for mech in [MeanMechanism::Sr, MeanMechanism::Pm] {
        let proto = MeanVariance::new(mech, 1.0).unwrap();
        let est = proto.estimate(&values, &mut rng).unwrap();
        assert!((est.mean - 0.5).abs() < 0.05, "{mech:?} mean {}", est.mean);
        assert!(est.variance >= 0.0);
        assert!(est.variance < 0.05, "{mech:?} var {}", est.variance);
    }
}

#[test]
fn wave_with_very_wide_bandwidth_is_valid() {
    // b > 1: output domain is much wider than the input; the density ratio
    // and total mass invariants must still hold.
    let wave = Wave::square(2.0, 1.0).unwrap();
    assert!(wave.output_lo() < -1.9 && wave.output_hi() > 2.9);
    let mass = wave.mass_on_interval(0.5, wave.output_lo(), wave.output_hi());
    assert!((mass - 1.0).abs() < 1e-9);
    let mut rng = SplitMix64::new(6008);
    for _ in 0..1000 {
        let r = wave.randomize(0.5, &mut rng).unwrap();
        assert!(r >= wave.output_lo() && r <= wave.output_hi());
    }
}

#[test]
fn out_of_domain_bucket_values_are_rejected_by_hierarchy_methods() {
    let hh = HierarchicalHistogram::new(4, 64, 1.0).unwrap();
    let mut rng = SplitMix64::new(6009);
    assert!(Client::new(&hh).randomize(&64, &mut rng).is_err());
    let haar = HaarHrr::new(64, 1.0).unwrap();
    assert!(Client::new(&haar).randomize(&64, &mut rng).is_err());
}

#[test]
fn reconstruct_rejects_malformed_counts() {
    let pipeline = SwPipeline::new(1.0, 16).unwrap();
    let m = &transition_matrix(pipeline.wave(), 16, 16).unwrap();
    assert!(reconstruct(m, &[f64::NAN; 16], &EmConfig::ems()).is_err());
    assert!(reconstruct(m, &[-1.0; 16], &EmConfig::ems()).is_err());
    assert!(reconstruct(m, &[0.0; 16], &EmConfig::ems()).is_err());
    assert!(reconstruct(m, &[1.0; 15], &EmConfig::ems()).is_err());
}

#[test]
fn admm_handles_degenerate_all_zero_level_estimates() {
    use sw_ldp::hierarchy::{hh_admm_histogram, HhRaw, TreeShape, TreeValues};
    let shape = TreeShape::new(2, 8).unwrap();
    let mut tree = TreeValues::zeros(&shape);
    tree.levels[0][0] = 1.0;
    // Noisy levels that sum to nothing useful.
    for level in tree.levels.iter_mut().skip(1) {
        for (i, v) in level.iter_mut().enumerate() {
            *v = if i % 2 == 0 { -0.3 } else { 0.1 };
        }
    }
    let raw = HhRaw::new(shape, tree, vec![1e-12, 1.0, 1.0, 1.0]).unwrap();
    let h = hh_admm_histogram(&shape, &raw, AdmmConfig::default()).unwrap();
    assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(h.probs().iter().all(|&p| p >= 0.0));
}
