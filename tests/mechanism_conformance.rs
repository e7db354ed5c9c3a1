//! The unified-API conformance suite (the contract in `ldp-core`'s crate
//! docs), run against every mechanism family:
//!
//! (a) estimates obtained through streaming `Aggregator::push` equal the
//!     one-shot `Mechanism::aggregate` bit for bit;
//! (b) merging shard aggregators equals aggregating the concatenated
//!     report stream, bit for bit, at every split point tried;
//! (c) client randomization is deterministic under a fixed `SplitMix64`
//!     seed;
//! (d) the pool-sharded `Aggregator::push_slice_sharded` fan-out equals
//!     serial absorption — same raw state, same count, same estimate —
//!     for shard counts {1, 2, 7} (the CI matrix additionally varies the
//!     global pool size via `LDP_POOL_THREADS`).

use sw_ldp::cfo::{AdaptiveOracle, BinningEstimator, Grr, Hrr, Olh, Oue};
use sw_ldp::core_api::{Aggregator, Client, Mechanism};
use sw_ldp::hierarchy::{HaarHrr, HhRaw, HierarchicalHistogram};
use sw_ldp::mean::{Hybrid, Pm, Sr};
use sw_ldp::numeric::SplitMix64;
use sw_ldp::sw::{DiscreteSw, SwMechanism};

/// Bitwise comparison that treats equal-bit NaNs as equal (no mechanism
/// emits NaN, so any NaN mismatch is a real failure).
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: entry {i} differs ({x} vs {y})"
        );
    }
}

/// Runs the full (a)/(b)/(c) contract for one mechanism configuration.
fn conformance<M, F>(label: &str, mechanism: M, inputs: &[M::Input], canon: F, seed: u64)
where
    M: Mechanism + Clone + Sync,
    M::Input: Sized,
    M::Report: Clone + PartialEq + std::fmt::Debug + Sync,
    M::State: Send,
    F: Fn(&M::Output) -> Vec<f64>,
{
    let client = Client::new(&mechanism);

    // (c) determinism: the same seed produces the same wire reports.
    let randomize_all = |seed: u64| -> Vec<M::Report> {
        let mut rng = SplitMix64::new(seed);
        inputs
            .iter()
            .map(|v| client.randomize(v, &mut rng).unwrap())
            .collect()
    };
    let reports = randomize_all(seed);
    assert_eq!(
        reports,
        randomize_all(seed),
        "{label}: randomization must be deterministic under a fixed seed"
    );

    // (a) streaming == one-shot, bit for bit.
    let one_shot = canon(&mechanism.aggregate(&reports).unwrap());
    let mut streaming = Aggregator::new(mechanism.clone());
    for r in &reports {
        streaming.push(r).unwrap();
    }
    assert_eq!(streaming.count(), reports.len() as u64, "{label}: count");
    assert_bits_eq(
        &canon(&streaming.finalize().unwrap()),
        &one_shot,
        &format!("{label}: streaming vs one-shot"),
    );

    // (b) merge of two shards == aggregation of the concatenation, for a
    // spread of split points including the degenerate ones.
    let n = reports.len();
    for split in [0, 1, n / 3, n / 2, n - 1, n] {
        let mut left = Aggregator::new(mechanism.clone());
        left.push_slice(&reports[..split]).unwrap();
        let mut right = Aggregator::new(mechanism.clone());
        right.push_slice(&reports[split..]).unwrap();
        left.merge(&right).unwrap();
        assert_eq!(left.count(), n as u64);
        assert_bits_eq(
            &canon(&left.finalize().unwrap()),
            &one_shot,
            &format!("{label}: merge at split {split}"),
        );
    }

    // (d) the pooled fan-out equals serial absorption: identical count,
    // bit-identical estimate, for every shard count. (ExactSum-backed
    // states guarantee a bit-identical *rendered* total across shardings,
    // not an identical internal expansion layout — the same contract the
    // merge legs above pin.)
    for shards in [1usize, 2, 7] {
        let mut pooled = Aggregator::new(mechanism.clone());
        pooled.push_slice_sharded(&reports, shards).unwrap();
        assert_eq!(pooled.count(), streaming.count(), "{label}: pooled count");
        assert_bits_eq(
            &canon(&pooled.finalize().unwrap()),
            &one_shot,
            &format!("{label}: pooled fan-out over {shards} shards"),
        );
    }

    // And a three-way merge in shuffled order, since production shards
    // arrive in no particular order.
    let (a, rest) = reports.split_at(n / 4);
    let (b, c) = rest.split_at(n / 3);
    let mut mid = Aggregator::new(mechanism.clone());
    mid.push_slice(b).unwrap();
    let mut tail = Aggregator::new(mechanism.clone());
    tail.push_slice(c).unwrap();
    let mut head = Aggregator::new(mechanism.clone());
    head.push_slice(a).unwrap();
    tail.merge(&head).unwrap();
    tail.merge(&mid).unwrap();
    assert_bits_eq(
        &canon(&tail.finalize().unwrap()),
        &one_shot,
        &format!("{label}: out-of-order three-way merge"),
    );
}

fn unit_values(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 173) as f64 / 173.0).collect()
}

fn signed_values(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 29) % 201) as f64 / 100.0 - 1.0)
        .collect()
}

fn categorical_values(n: usize, d: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7) % d).collect()
}

#[test]
fn sw_conforms() {
    conformance(
        "SW-EMS",
        SwMechanism::ems(1.0, 32).unwrap(),
        &unit_values(3_000),
        |h| h.probs().to_vec(),
        101,
    );
    conformance(
        "SW-EM",
        SwMechanism::em(1.0, 32).unwrap(),
        &unit_values(3_000),
        |h| h.probs().to_vec(),
        102,
    );
}

#[test]
fn discrete_sw_conforms() {
    conformance(
        "DiscreteSW",
        DiscreteSw::new(32, 1.0).unwrap(),
        &categorical_values(3_000, 32),
        |h| h.probs().to_vec(),
        111,
    );
}

#[test]
fn grr_conforms() {
    conformance(
        "GRR",
        Grr::new(16, 1.0).unwrap(),
        &categorical_values(3_000, 16),
        Clone::clone,
        103,
    );
}

#[test]
fn olh_conforms() {
    conformance(
        "OLH",
        Olh::new(32, 1.0).unwrap(),
        &categorical_values(3_000, 32),
        Clone::clone,
        104,
    );
}

#[test]
fn oue_conforms() {
    conformance(
        "OUE",
        Oue::new(24, 1.0).unwrap(),
        &categorical_values(3_000, 24),
        Clone::clone,
        105,
    );
}

#[test]
fn hadamard_conforms() {
    conformance(
        "Hadamard-RR",
        Hrr::new(20, 1.0).unwrap(),
        &categorical_values(3_000, 20),
        Clone::clone,
        106,
    );
}

#[test]
fn adaptive_conforms() {
    // Small domains select GRR, large ones OLH: cover both branches.
    conformance(
        "Adaptive-GRR",
        AdaptiveOracle::new(4, 1.0).unwrap(),
        &categorical_values(3_000, 4),
        Clone::clone,
        112,
    );
    conformance(
        "Adaptive-OLH",
        AdaptiveOracle::new(64, 1.0).unwrap(),
        &categorical_values(3_000, 64),
        Clone::clone,
        113,
    );
}

#[test]
fn binning_conforms() {
    conformance(
        "CFO-binning-8",
        BinningEstimator::new(8, 64, 1.0).unwrap(),
        &unit_values(3_000),
        |h| h.probs().to_vec(),
        114,
    );
    conformance(
        "CFO-binning-16",
        BinningEstimator::new(16, 64, 1.0).unwrap(),
        &unit_values(3_000),
        |h| h.probs().to_vec(),
        115,
    );
}

/// Every raw HH tree node followed by the per-level variances.
fn hh_canon(raw: &HhRaw) -> Vec<f64> {
    let mut out = raw.tree.flatten();
    out.extend_from_slice(&raw.level_variances);
    out
}

#[test]
fn hierarchy_conforms() {
    conformance(
        "HH",
        HierarchicalHistogram::new(4, 64, 1.0).unwrap(),
        &categorical_values(3_000, 64),
        hh_canon,
        116,
    );
    conformance(
        "HaarHRR",
        HaarHrr::new(32, 1.0).unwrap(),
        &categorical_values(3_000, 32),
        Clone::clone,
        117,
    );
}

#[test]
fn pm_conforms() {
    // Continuous reports: the case exact summation exists for.
    conformance(
        "PM",
        Pm::new(1.0).unwrap(),
        &signed_values(3_000),
        |mean| vec![*mean],
        107,
    );
}

#[test]
fn sr_conforms() {
    conformance(
        "SR",
        Sr::new(0.8).unwrap(),
        &signed_values(3_000),
        |mean| vec![*mean],
        108,
    );
}

#[test]
fn hybrid_conforms() {
    conformance(
        "Hybrid",
        Hybrid::new(2.0).unwrap(),
        &signed_values(3_000),
        |mean| vec![*mean],
        109,
    );
    // Below ε* the PM arm is off; the SR-only regime must also conform.
    conformance(
        "Hybrid-low-eps",
        Hybrid::new(0.4).unwrap(),
        &signed_values(2_000),
        |mean| vec![*mean],
        110,
    );
}

/// Shards built for different configurations must refuse to merge, for
/// every mechanism family.
#[test]
fn cross_configuration_merges_are_rejected() {
    fn rejects<M: Mechanism + Clone>(a: M, b: M) {
        let mut left: Aggregator<M> = Aggregator::new(a);
        let right: Aggregator<M> = Aggregator::new(b);
        assert!(left.merge(&right).is_err());
    }
    rejects(
        SwMechanism::ems(1.0, 32).unwrap(),
        SwMechanism::ems(2.0, 32).unwrap(),
    );
    rejects(Grr::new(8, 1.0).unwrap(), Grr::new(8, 2.0).unwrap());
    rejects(Olh::new(8, 1.0).unwrap(), Olh::new(16, 1.0).unwrap());
    rejects(Oue::new(8, 1.0).unwrap(), Oue::new(8, 2.0).unwrap());
    rejects(Hrr::new(8, 1.0).unwrap(), Hrr::new(16, 1.0).unwrap());
    rejects(Pm::new(1.0).unwrap(), Pm::new(2.0).unwrap());
    rejects(Sr::new(1.0).unwrap(), Sr::new(2.0).unwrap());
    rejects(Hybrid::new(1.0).unwrap(), Hybrid::new(2.0).unwrap());
    rejects(
        DiscreteSw::new(32, 1.0).unwrap(),
        DiscreteSw::new(32, 2.0).unwrap(),
    );
    rejects(
        DiscreteSw::with_bandwidth(32, 2, 1.0).unwrap(),
        DiscreteSw::with_bandwidth(32, 3, 1.0).unwrap(),
    );
    rejects(
        AdaptiveOracle::new(4, 1.0).unwrap(),
        AdaptiveOracle::new(64, 1.0).unwrap(),
    );
    rejects(
        BinningEstimator::new(8, 64, 1.0).unwrap(),
        BinningEstimator::new(16, 64, 1.0).unwrap(),
    );
    rejects(
        HierarchicalHistogram::new(4, 64, 1.0).unwrap(),
        HierarchicalHistogram::new(2, 64, 1.0).unwrap(),
    );
    rejects(
        HaarHrr::new(32, 1.0).unwrap(),
        HaarHrr::new(32, 2.0).unwrap(),
    );
}
