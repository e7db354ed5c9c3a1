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
//!
//! Contract (c) also covers bulk randomization: `Client::randomize_batch`
//! (through `Mechanism::randomize_block`, which SW, GRR, OLH, the
//! adaptive oracle, CFO-binning and HH override with a block walk over the
//! `SplitMix64` stream) equals the per-report `randomize` loop — the same
//! reports and the same final generator — for every family, across block
//! lengths, budgets and seeds, on invalid inputs, and on a generator that
//! hides the `SplitMix64` hook. CI runs it with the vector draw window
//! live and under `LDP_NO_SIMD=1`, where the block method is the serial
//! loop.

use rand::{Error, RngCore};
use sw_ldp::cfo::{AdaptiveOracle, BinningEstimator, Grr, Hrr, Olh, Oue};
use sw_ldp::core_api::{Aggregator, Client, Mechanism};
use sw_ldp::hierarchy::{HaarHrr, HhRaw, HierarchicalHistogram};
use sw_ldp::mean::{Hybrid, Pm, Sr};
use sw_ldp::numeric::SplitMix64;
use sw_ldp::sw::pipeline::pipeline_with_shape;
use sw_ldp::sw::wave::WaveShape;
use sw_ldp::sw::{DiscreteSw, Reconstruction, SwMechanism};

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

// ---------------------------------------------------------------------------
// (c) bulk randomization: block = serial
// ---------------------------------------------------------------------------

/// Block lengths around the 8-lane draw window and the 8192-input chunks
/// of the experiments' streaming loop.
const BLOCK_LENGTHS: [usize; 11] = [0, 1, 7, 8, 9, 255, 256, 257, 8191, 8192, 8193];

/// Budgets covering GRR and OLH selection in the adaptive oracle and
/// across HH levels (ε = 30 clamps OLH's hash range to `u32::MAX`).
const BLOCK_EPSILONS: [f64; 4] = [0.5, 1.0, 2.5, 30.0];

/// Seeds including the top of the state space, where the draw counter
/// wraps past `u64::MAX` within the first window.
const BLOCK_SEEDS: [u64; 3] = [7, u64::MAX - 2, u64::MAX];

/// A generator that draws exactly like `SplitMix64` but hides it from the
/// block path: it does not implement `RngCore::as_any_mut`.
struct Opaque(SplitMix64);

impl RngCore for Opaque {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.0.try_fill_bytes(dest)
    }
}

/// Reports compared by their `Debug` text, which tells `-0.0` from `0.0`
/// and prints every float round-trip exactly.
fn rendered<T: std::fmt::Debug>(reports: &[T]) -> Vec<String> {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

fn assert_same_reports<T: std::fmt::Debug>(got: &[T], want: &[T], what: &str) {
    let (got, want) = (rendered(got), rendered(want));
    assert_eq!(got.len(), want.len(), "{what}: report count");
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!("{what}: report {i} is {} but serially {}", got[i], want[i]);
    }
}

/// `randomize_batch` on a `SplitMix64`, and on the hook-hiding wrapper,
/// equals the per-report loop at every block length: same reports, same
/// final generator.
fn block_equals_serial<M>(label: &str, mechanism: &M, inputs: &[M::Input])
where
    M: Mechanism,
    M::Input: Sized,
    M::Report: std::fmt::Debug,
{
    let client = Client::new(mechanism);
    for seed in BLOCK_SEEDS {
        for n in BLOCK_LENGTHS {
            let inputs = &inputs[..n];
            let what = format!("{label}: n = {n}, seed = {seed:#x}");
            let mut serial_rng = SplitMix64::new(seed);
            let serial: Vec<M::Report> = inputs
                .iter()
                .map(|v| client.randomize(v, &mut serial_rng).unwrap())
                .collect();
            let mut block_rng = SplitMix64::new(seed);
            let block = client.randomize_batch(inputs, &mut block_rng).unwrap();
            assert_same_reports(&block, &serial, &what);
            assert_eq!(block_rng, serial_rng, "{what}: generator after the block");
            let mut opaque = Opaque(SplitMix64::new(seed));
            let hidden = client.randomize_batch(inputs, &mut opaque).unwrap();
            assert_same_reports(&hidden, &serial, &format!("{what}, hidden generator"));
            assert_eq!(opaque.0, serial_rng, "{what}: hidden generator after");
        }
    }
}

/// A block with `bad` at index 300 of 1000 inputs returns the serial
/// loop's first error, with the reports before it in `out` and the
/// generator where the serial loop stops.
fn block_fails_like_serial<M>(label: &str, mechanism: &M, inputs: &[M::Input], bad: M::Input)
where
    M: Mechanism,
    M::Input: Sized + Clone,
    M::Report: std::fmt::Debug,
{
    let mut inputs = inputs[..1000].to_vec();
    inputs[300] = bad;
    let mut serial_rng = SplitMix64::new(99);
    let mut serial = Vec::new();
    let serial_err = loop {
        match mechanism.randomize(&inputs[serial.len()], &mut serial_rng) {
            Ok(r) => serial.push(r),
            Err(e) => break e.to_string(),
        }
    };
    assert_eq!(
        serial.len(),
        300,
        "{label}: the serial loop stops at the bad input"
    );
    let mut block_rng = SplitMix64::new(99);
    let mut block = Vec::new();
    let block_err = mechanism
        .randomize_block(&inputs, &mut block_rng, &mut block)
        .unwrap_err()
        .to_string();
    assert_eq!(block_err, serial_err, "{label}: error message");
    assert_same_reports(
        &block,
        &serial,
        &format!("{label}: reports before the error"),
    );
    assert_eq!(block_rng, serial_rng, "{label}: generator at the error");
    let mut batch_rng = SplitMix64::new(99);
    let batch_err = Client::new(mechanism)
        .randomize_batch(&inputs, &mut batch_rng)
        .unwrap_err();
    assert_eq!(batch_err.to_string(), serial_err, "{label}: batch error");
    assert_eq!(
        batch_rng, serial_rng,
        "{label}: generator after the batch error"
    );
}

const BLOCK_INPUTS: usize = 8193;

#[test]
fn block_randomization_equals_serial_for_sw() {
    let values = unit_values(BLOCK_INPUTS);
    for eps in BLOCK_EPSILONS {
        let sw = SwMechanism::ems(eps, 64).unwrap();
        block_equals_serial(&format!("SW-EMS eps={eps}"), &sw, &values);
        block_fails_like_serial(&format!("SW-EMS eps={eps}"), &sw, &values, f64::NAN);
        block_fails_like_serial(&format!("SW-EMS eps={eps}"), &sw, &values, 1.5);
    }
    // The shapes that keep the serial sampler.
    for shape in [WaveShape::Trapezoid { ratio: 0.5 }, WaveShape::Triangle] {
        let pipeline = pipeline_with_shape(shape, 0.2, 1.0, 64).unwrap();
        let sw = SwMechanism::with_pipeline(pipeline, Reconstruction::Ems);
        block_equals_serial(&format!("SW {shape:?}"), &sw, &values);
    }
}

#[test]
fn block_randomization_equals_serial_for_frequency_oracles() {
    for eps in BLOCK_EPSILONS {
        for d in [2usize, 16, 1000] {
            let values = categorical_values(BLOCK_INPUTS, d);
            let grr = Grr::new(d, eps).unwrap();
            block_equals_serial(&format!("GRR d={d} eps={eps}"), &grr, &values);
            block_fails_like_serial(&format!("GRR d={d} eps={eps}"), &grr, &values, d);
            let olh = Olh::new(d, eps).unwrap();
            block_equals_serial(&format!("OLH d={d} eps={eps}"), &olh, &values);
            block_fails_like_serial(&format!("OLH d={d} eps={eps}"), &olh, &values, d);
            let adaptive = AdaptiveOracle::new(d, eps).unwrap();
            block_equals_serial(&format!("Adaptive d={d} eps={eps}"), &adaptive, &values);
            block_fails_like_serial(&format!("Adaptive d={d} eps={eps}"), &adaptive, &values, d);
        }
        let values = unit_values(BLOCK_INPUTS);
        for bins in [4usize, 16, 64] {
            let binning = BinningEstimator::new(bins, 256, eps).unwrap();
            let label = format!("CFO-binning-{bins} eps={eps}");
            block_equals_serial(&label, &binning, &values);
            block_fails_like_serial(&label, &binning, &values, f64::NAN);
            block_fails_like_serial(&label, &binning, &values, f64::INFINITY);
        }
    }
}

#[test]
fn block_randomization_equals_serial_for_hierarchies() {
    for eps in BLOCK_EPSILONS {
        // Heights 4 (a power of two) and 6 (the level draw's `% h` is a
        // true remainder).
        for (branching, d) in [(4usize, 256usize), (2, 64)] {
            let values = categorical_values(BLOCK_INPUTS, d);
            let hh = HierarchicalHistogram::new(branching, d, eps).unwrap();
            let label = format!("HH b={branching} d={d} eps={eps}");
            block_equals_serial(&label, &hh, &values);
            block_fails_like_serial(&label, &hh, &values, d);
        }
        let values = categorical_values(BLOCK_INPUTS, 32);
        let haar = HaarHrr::new(32, eps).unwrap();
        block_equals_serial(&format!("HaarHRR eps={eps}"), &haar, &values);
    }
}

#[test]
fn block_randomization_equals_serial_for_default_families() {
    // Families without an override run the default serial loop; the
    // contract holds for them too.
    let signed = signed_values(BLOCK_INPUTS);
    block_equals_serial(
        "DiscreteSW",
        &DiscreteSw::new(32, 1.0).unwrap(),
        &categorical_values(BLOCK_INPUTS, 32),
    );
    block_equals_serial(
        "OUE",
        &Oue::new(24, 1.0).unwrap(),
        &categorical_values(BLOCK_INPUTS, 24),
    );
    block_equals_serial(
        "Hadamard-RR",
        &Hrr::new(20, 1.0).unwrap(),
        &categorical_values(BLOCK_INPUTS, 20),
    );
    block_equals_serial("PM", &Pm::new(1.0).unwrap(), &signed);
    block_equals_serial("SR", &Sr::new(0.8).unwrap(), &signed);
    block_equals_serial("Hybrid", &Hybrid::new(2.0).unwrap(), &signed);
}
