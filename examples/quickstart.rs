//! Quickstart: collect a numerical distribution under ε-LDP with the
//! Square Wave mechanism and EMS reconstruction, through the unified
//! `Client`/`Aggregator` API.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sw_ldp::prelude::*;

fn main() {
    // --- The population -------------------------------------------------
    // 100k users each hold a private value in [0, 1]; here, synthetic
    // Beta(5, 2) (the paper's synthetic workload).
    let dataset = DatasetSpec {
        kind: DatasetKind::Beta,
        n: 100_000,
        seed: 1,
    }
    .generate();
    println!("users: {}", dataset.n());

    // --- The mechanism --------------------------------------------------
    // One configuration object describes the whole protocol: ε = 1 with
    // the paper's defaults (square wave, mutual-information-optimal
    // bandwidth b*, EMS reconstruction at granularity d). Every other
    // mechanism in the workspace (GRR, OLH, OUE, Hadamard, PM, SR, Hybrid,
    // hierarchies) is driven through this same `Mechanism` API.
    let epsilon = 1.0;
    let d = 256; // histogram granularity
    let mechanism = SwMechanism::ems(epsilon, d).expect("valid parameters");
    println!(
        "square wave: b = {:.3}, p = {:.3}, q = {:.3}",
        mechanism.pipeline().wave().b(),
        mechanism.pipeline().wave().peak(),
        mechanism.pipeline().wave().q()
    );

    // --- Client side ----------------------------------------------------
    // Each user perturbs its own value locally; only the noisy wire report
    // ever leaves the device.
    let client = Client::new(&mechanism);
    let mut rng = SplitMix64::new(2024);
    let reports = client
        .randomize_batch(&dataset.values, &mut rng)
        .expect("values in [0, 1]");

    // --- Server side ----------------------------------------------------
    // The aggregator is a streaming accumulator: O(d̃) state no matter how
    // many reports flow through, shards merge exactly. A deployment would
    // run one aggregator per collector and `merge` them; here we stream
    // the reports through two shards to show the split.
    let mut shard_a = Aggregator::new(&mechanism);
    let mut shard_b = Aggregator::new(&mechanism);
    let (left, right) = reports.split_at(reports.len() / 2);
    shard_a.push_slice(left).expect("reports are in range");
    shard_b.push_slice(right).expect("reports are in range");
    shard_a
        .merge(&shard_b)
        .expect("same mechanism configuration");
    println!("reports aggregated: {}", shard_a.count());

    // Finalize runs EMS through the structured transition operator.
    let estimate = shard_a.finalize().expect("reconstruction succeeds");

    // --- How good is it? -------------------------------------------------
    let truth = dataset.histogram(d).expect("non-empty dataset");
    println!(
        "Wasserstein distance: {:.5}",
        wasserstein(&truth, &estimate).expect("same granularity")
    );
    println!(
        "KS distance:          {:.5}",
        ks_distance(&truth, &estimate).expect("same granularity")
    );
    println!(
        "mean:     true {:.4}  estimated {:.4}",
        truth.mean(),
        estimate.mean()
    );
    println!(
        "variance: true {:.4}  estimated {:.4}",
        truth.variance(),
        estimate.variance()
    );
    println!(
        "median:   true {:.4}  estimated {:.4}",
        truth.quantile(0.5),
        estimate.quantile(0.5)
    );

    // --- Low-level escape hatch ------------------------------------------
    // The pipeline behind the mechanism remains available when you need
    // custom waves or d̃ ≠ d (wrap one with `SwMechanism::with_pipeline`),
    // or direct control over reconstructing the aggregated counts:
    let counts = shard_a.state().to_counts();
    let low_level = mechanism
        .pipeline()
        .reconstruct(&counts, &Reconstruction::Ems)
        .expect("reconstruction succeeds");
    println!(
        "low-level SwPipeline path agrees: {}",
        low_level.histogram.probs() == estimate.probs()
    );
}
