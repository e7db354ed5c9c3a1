//! Shared fixtures for the criterion benchmarks and the `repro` binary.
//!
//! Benchmarks deliberately run at reduced scale (small n, small d) so
//! `cargo bench` terminates in minutes; the `repro` binary is the tool for
//! paper-scale reproduction runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ldp_core::{Client, Mechanism};
use ldp_datasets::{Dataset, DatasetKind, DatasetSpec};
use ldp_numeric::{Histogram, SplitMix64};
use ldp_sw::{Reconstruction, SwMechanism, SwPipeline};

/// A small deterministic workload for micro-benchmarks.
#[must_use]
pub fn bench_dataset(kind: DatasetKind, n: usize) -> Dataset {
    DatasetSpec { kind, n, seed: 99 }.generate()
}

/// The ground-truth histogram of a bench workload.
#[must_use]
pub fn bench_truth(dataset: &Dataset, d: usize) -> Histogram {
    dataset.histogram(d).expect("non-empty bench dataset")
}

/// One EMS trial over `pipeline` through the `Mechanism` API: every value
/// randomized on one `seed` stream, the reports aggregated and finalized.
#[must_use]
pub fn sw_ems_trial(pipeline: &SwPipeline, values: &[f64], seed: u64) -> Histogram {
    let mech = SwMechanism::with_pipeline(pipeline.clone(), Reconstruction::Ems);
    let reports = Client::new(&mech)
        .randomize_batch(values, &mut SplitMix64::new(seed))
        .expect("bench values lie in [0, 1]");
    mech.aggregate(&reports)
        .expect("non-empty bench population")
}

/// Bench-scale defaults: users per trial and histogram granularity.
pub const BENCH_N: usize = 20_000;
/// Bench-scale histogram granularity (power of 4 so HH-ADMM runs too).
pub const BENCH_D: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = bench_dataset(DatasetKind::Beta, 1000);
        let b = bench_dataset(DatasetKind::Beta, 1000);
        assert_eq!(a.values, b.values);
        let t = bench_truth(&a, 64);
        assert_eq!(t.len(), 64);
    }
}
