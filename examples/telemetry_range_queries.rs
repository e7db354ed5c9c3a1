//! Telemetry case study: answering range queries about session times
//! collected under LDP.
//!
//! Models the paper's motivating workload ("the amount of time viewing a
//! certain page"): the aggregator never sees raw timestamps, yet can answer
//! "what fraction of pickups happen between 7am and 10am?". Compares the
//! Square Wave pipeline against the hierarchy baselines (HH, HaarHRR) the
//! paper evaluates in Figure 3.
//!
//! ```sh
//! cargo run --release --example telemetry_range_queries
//! ```

use sw_ldp::metrics::signed_cdf_at;
use sw_ldp::prelude::*;

fn main() {
    let epsilon = 1.0;
    let d = 1024;
    let dataset = DatasetSpec {
        kind: DatasetKind::Taxi,
        n: 200_000,
        seed: 5,
    }
    .generate();
    let truth = dataset.histogram(d).expect("non-empty dataset");
    println!(
        "taxi-like telemetry: {} users, eps = {epsilon}, d = {d}",
        dataset.n()
    );

    let mut rng = SplitMix64::new(17);

    // SW + EMS gives a full valid distribution.
    let mechanism = SwMechanism::ems(epsilon, d).expect("valid parameters");
    let reports = Client::new(&mechanism)
        .randomize_batch(&dataset.values, &mut rng)
        .expect("values in [0, 1]");
    let sw = mechanism
        .aggregate(&reports)
        .expect("reconstruction succeeds");

    // HH and HaarHRR produce (possibly negative) leaf estimates designed
    // specifically for range queries. They run through the same
    // client/aggregator split; HH then enforces tree consistency.
    let buckets = dataset.bucket_values(d);
    let hh = HierarchicalHistogram::new(4, d, epsilon).expect("1024 = 4^5");
    let hh_reports = Client::new(&hh)
        .randomize_batch(&buckets, &mut rng)
        .expect("buckets in domain");
    let hh_raw = hh.aggregate(&hh_reports).expect("collection succeeds");
    let hh_leaves = hh
        .make_consistent(&hh_raw)
        .expect("raw tree matches its shape")
        .leaves()
        .to_vec();
    let haar = HaarHrr::new(d, epsilon).expect("1024 = 2^10");
    let haar_reports = Client::new(&haar)
        .randomize_batch(&buckets, &mut rng)
        .expect("buckets in domain");
    let haar_leaves = haar.aggregate(&haar_reports).expect("collection succeeds");

    // Business queries: "fraction of pickups in [t1, t2)".
    let queries: [(&str, f64, f64); 4] = [
        ("overnight (00:00-05:00)", 0.0, 5.0 / 24.0),
        ("morning rush (07:00-10:00)", 7.0 / 24.0, 10.0 / 24.0),
        ("afternoon (12:00-17:00)", 0.5, 17.0 / 24.0),
        ("evening peak (17:00-22:00)", 17.0 / 24.0, 22.0 / 24.0),
    ];
    println!(
        "\n{:<28} {:>9} {:>9} {:>9} {:>9}",
        "range", "true", "SW-EMS", "HH", "HaarHRR"
    );
    for (name, lo, hi) in queries {
        let t = truth.range_mass(lo, hi);
        let s = sw.range_mass(lo, hi);
        let h = signed_cdf_at(&hh_leaves, hi) - signed_cdf_at(&hh_leaves, lo);
        let r = signed_cdf_at(&haar_leaves, hi) - signed_cdf_at(&haar_leaves, lo);
        println!("{name:<28} {t:>9.4} {s:>9.4} {h:>9.4} {r:>9.4}");
    }

    // Aggregate accuracy over random ranges (the Figure 3 metric).
    let mut qrng = SplitMix64::new(4242);
    for alpha in [0.1, 0.4] {
        let e_sw = range_query_mae(&truth, &sw, alpha, 500, &mut qrng).unwrap();
        let e_hh =
            sw_ldp::metrics::range_query_mae_signed(&truth, &hh_leaves, alpha, 500, &mut qrng)
                .unwrap();
        let e_haar =
            sw_ldp::metrics::range_query_mae_signed(&truth, &haar_leaves, alpha, 500, &mut qrng)
                .unwrap();
        println!(
            "\nrandom range MAE (alpha = {alpha}): SW-EMS {e_sw:.5}  HH {e_hh:.5}  HaarHRR {e_haar:.5}"
        );
    }
}
