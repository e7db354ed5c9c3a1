//! Spiky-distribution case study: estimating income quantiles under LDP.
//!
//! The paper's most interesting nuance (§6.2–6.3): on the *spiky* income
//! dataset — spiky because people report round salaries — HH-ADMM preserves
//! spikes and wins on KS distance and quantiles, while SW+EMS smooths them
//! away but still wins on Wasserstein distance. This example reproduces
//! that trade-off end to end.
//!
//! ```sh
//! cargo run --release --example income_quantiles
//! ```

use sw_ldp::prelude::*;

fn main() {
    let epsilon = 2.0;
    let d = 1024; // the paper's granularity for income

    // A synthetic stand-in for the ACS income data: lognormal body with
    // round-number point masses (see DESIGN.md for the substitution).
    let dataset = DatasetSpec {
        kind: DatasetKind::Income,
        n: 200_000,
        seed: 11,
    }
    .generate();
    let truth = dataset.paper_histogram().expect("non-empty dataset");
    println!(
        "income workload: {} users, {} buckets, eps = {epsilon}",
        dataset.n(),
        d
    );

    // --- SW + EMS ---------------------------------------------------------
    let mut rng = SplitMix64::new(3);
    let sw = SwMechanism::ems(epsilon, d).expect("valid parameters");
    let reports = Client::new(&sw)
        .randomize_batch(&dataset.values, &mut rng)
        .expect("values in [0, 1]");
    let sw_est = sw.aggregate(&reports).expect("reconstruction succeeds");

    // --- HH-ADMM ----------------------------------------------------------
    let hh = HierarchicalHistogram::new(4, d, epsilon).expect("1024 = 4^5");
    let buckets = dataset.bucket_values(d);
    let hh_reports = Client::new(&hh)
        .randomize_batch(&buckets, &mut rng)
        .expect("buckets in domain");
    let raw = hh.aggregate(&hh_reports).expect("collection succeeds");
    let admm_est =
        hh_admm_histogram(hh.shape(), &raw, AdmmConfig::default()).expect("ADMM converges");

    // --- Compare ----------------------------------------------------------
    let levels: Vec<f64> = (1..=9).map(|k| k as f64 / 10.0).collect();
    println!(
        "\n{:<12} {:>12} {:>12} {:>12}",
        "method", "W1", "KS", "quantile MAE"
    );
    for (name, est) in [("SW-EMS", &sw_est), ("HH-ADMM", &admm_est)] {
        println!(
            "{:<12} {:>12.5} {:>12.5} {:>12.5}",
            name,
            wasserstein(&truth, est).unwrap(),
            ks_distance(&truth, est).unwrap(),
            quantile_mae(&truth, est, &levels).unwrap(),
        );
    }

    println!("\nper-decile income quantiles (value domain [0, 1] = [$0, $524288]):");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "decile", "true", "SW-EMS", "HH-ADMM"
    );
    for &beta in &levels {
        println!(
            "{:>5}% {:>12.4} {:>12.4} {:>12.4}",
            (beta * 100.0) as u32,
            truth.quantile(beta),
            sw_est.quantile(beta),
            admm_est.quantile(beta),
        );
    }
    println!(
        "\nNote: on spiky data the paper finds HH-ADMM ahead on KS/quantiles \
         while SW-EMS keeps the lower Wasserstein distance; at small scale \
         the gap narrows but the distributions' characters differ visibly."
    );
}
