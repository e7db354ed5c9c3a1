//! Cross-crate integration tests: full client→aggregator pipelines on the
//! evaluation datasets, checking the paper's qualitative claims at reduced
//! scale.

use sw_ldp::hierarchy::range::range_query_tree;
use sw_ldp::prelude::*;

/// Randomizes every value through `mechanism` on `rng` and aggregates.
fn estimate<M: Mechanism>(mechanism: &M, values: &[M::Input], rng: &mut SplitMix64) -> M::Output
where
    M::Input: Sized,
{
    let reports = Client::new(mechanism).randomize_batch(values, rng).unwrap();
    mechanism.aggregate(&reports).unwrap()
}

fn beta_workload(n: usize) -> (Dataset, Histogram) {
    let ds = DatasetSpec {
        kind: DatasetKind::Beta,
        n,
        seed: 1001,
    }
    .generate();
    let truth = ds.histogram(256).unwrap();
    (ds, truth)
}

#[test]
fn sw_ems_full_pipeline_recovers_beta() {
    let (ds, truth) = beta_workload(60_000);
    let mechanism = SwMechanism::ems(1.0, 256).unwrap();
    let mut rng = SplitMix64::new(1);
    let est = estimate(&mechanism, &ds.values, &mut rng);
    let w1 = wasserstein(&truth, &est).unwrap();
    assert!(w1 < 0.02, "W1 = {w1}");
    assert!((est.mean() - truth.mean()).abs() < 0.02);
}

#[test]
fn sw_ems_beats_cfo_binning_on_wasserstein() {
    // The paper's headline Figure 2 claim, at eps = 1 on Beta(5,2).
    let (ds, truth) = beta_workload(60_000);
    let mut rng = SplitMix64::new(2);
    let sw = estimate(&SwMechanism::ems(1.0, 256).unwrap(), &ds.values, &mut rng);
    let w1_sw = wasserstein(&truth, &sw).unwrap();

    let mut worst_ratio: f64 = 0.0;
    for bins in [16, 32, 64] {
        let binning = BinningEstimator::new(bins, 256, 1.0).unwrap();
        let est = estimate(&binning, &ds.values, &mut rng);
        let w1_bin = wasserstein(&truth, &est).unwrap();
        worst_ratio = worst_ratio.max(w1_sw / w1_bin);
        assert!(
            w1_sw < w1_bin,
            "SW-EMS ({w1_sw}) should beat binning-{bins} ({w1_bin})"
        );
    }
    // SW should win clearly, not marginally.
    assert!(worst_ratio < 0.95, "ratio {worst_ratio}");
}

#[test]
fn sw_ems_beats_sw_em_on_smooth_data_on_average() {
    // EMS's whole point: on smooth distributions EM overfits the noise.
    // The paper (§6.3) notes EM "sometimes performs better but is not
    // stable", so the claim to verify is about the average, not every
    // single trial.
    let (ds, truth) = beta_workload(60_000);
    let sw_ems = SwMechanism::ems(1.0, 256).unwrap();
    let sw_em = SwMechanism::em(1.0, 256).unwrap();
    let mut w1_ems = 0.0;
    let mut w1_em = 0.0;
    let trials = 5;
    for seed in 0..trials {
        let mut rng = SplitMix64::new(300 + seed);
        let ems = estimate(&sw_ems, &ds.values, &mut rng);
        let em = estimate(&sw_em, &ds.values, &mut rng);
        w1_ems += wasserstein(&truth, &ems).unwrap();
        w1_em += wasserstein(&truth, &em).unwrap();
    }
    assert!(
        w1_ems < w1_em,
        "mean EMS W1 ({}) should beat mean EM W1 ({}) on smooth data",
        w1_ems / trials as f64,
        w1_em / trials as f64
    );
}

#[test]
fn hh_admm_beats_plain_hh_on_range_queries() {
    let ds = DatasetSpec {
        kind: DatasetKind::Retirement,
        n: 50_000,
        seed: 1003,
    }
    .generate();
    let d = 256;
    let truth = ds.histogram(d).unwrap();
    let buckets = ds.bucket_values(d);
    let hh = HierarchicalHistogram::new(4, d, 0.5).unwrap();
    let mut rng = SplitMix64::new(4);
    let raw = estimate(&hh, &buckets, &mut rng);
    let plain_leaves = hh.make_consistent(&raw).unwrap().leaves().to_vec();
    let admm = hh_admm_histogram(hh.shape(), &raw, AdmmConfig::default()).unwrap();

    let mut qrng = SplitMix64::new(5);
    let e_plain =
        sw_ldp::metrics::range_query_mae_signed(&truth, &plain_leaves, 0.1, 500, &mut qrng)
            .unwrap();
    let mut qrng = SplitMix64::new(5);
    let e_admm = range_query_mae(&truth, &admm, 0.1, 500, &mut qrng).unwrap();
    assert!(
        e_admm < e_plain,
        "ADMM ({e_admm}) should beat plain HH ({e_plain})"
    );
}

#[test]
fn consistent_hierarchy_answers_range_queries_from_any_level() {
    let ds = DatasetSpec {
        kind: DatasetKind::Taxi,
        n: 30_000,
        seed: 1004,
    }
    .generate();
    let d = 64;
    let buckets = ds.bucket_values(d);
    let hh = HierarchicalHistogram::new(4, d, 2.0).unwrap();
    let mut rng = SplitMix64::new(6);
    let raw = estimate(&hh, &buckets, &mut rng);
    let tree = hh.make_consistent(&raw).unwrap();
    // Decomposed tree answers equal plain leaf sums.
    for (lo, hi) in [(0usize, 64usize), (5, 20), (17, 18), (32, 64)] {
        let via_tree = range_query_tree(hh.shape(), &tree, lo, hi);
        let via_leaves: f64 = tree.leaves()[lo..hi].iter().sum();
        assert!((via_tree - via_leaves).abs() < 1e-9);
    }
}

#[test]
fn discrete_and_continuous_sw_agree() {
    // §5.4: randomize-before-bucketize and bucketize-before-randomize give
    // very similar results.
    let (ds, truth) = beta_workload(80_000);
    let d = 256;
    let eps = 1.0;
    let mut rng = SplitMix64::new(7);

    let cont = estimate(&SwMechanism::ems(eps, d).unwrap(), &ds.values, &mut rng);

    let dsw = DiscreteSw::new(d, eps).unwrap();
    let disc = estimate(&dsw, &ds.bucket_values(d), &mut rng);

    let w1_cont = wasserstein(&truth, &cont).unwrap();
    let w1_disc = wasserstein(&truth, &disc).unwrap();
    assert!(
        (w1_cont - w1_disc).abs() < 0.01,
        "R-B {w1_cont} vs B-R {w1_disc} should be similar"
    );
}

#[test]
fn scalar_protocols_match_distribution_estimates() {
    let ds = DatasetSpec {
        kind: DatasetKind::Taxi,
        n: 100_000,
        seed: 1005,
    }
    .generate();
    let truth = ds.histogram(1024).unwrap();
    let mut rng = SplitMix64::new(8);
    for mech in [MeanMechanism::Sr, MeanMechanism::Pm] {
        let proto = MeanVariance::new(mech, 2.0).unwrap();
        let mean = proto.estimate_mean(&ds.values, &mut rng).unwrap();
        assert!(
            (mean - truth.mean()).abs() < 0.02,
            "{mech:?} mean {mean} vs {}",
            truth.mean()
        );
    }
}

#[test]
fn all_methods_run_on_all_datasets_at_small_scale() {
    // Matrix smoke test: every method × every dataset kind.
    for kind in DatasetKind::all() {
        let ds = DatasetSpec {
            kind,
            n: 12_000,
            seed: 1006,
        }
        .generate();
        let d = 256;
        let truth = ds.histogram(d).unwrap();
        for method in Method::moment_methods()
            .into_iter()
            .chain([Method::Hh, Method::HaarHrr])
        {
            let r = sw_ldp::experiments::evaluate_trial(method, &ds.values, &truth, d, 1.0, 99, 20);
            assert!(
                r.is_ok(),
                "{} failed on {}: {:?}",
                method.name(),
                kind.name(),
                r.err()
            );
        }
    }
}
