//! Scalar statistics under LDP: mean and variance of retirement
//! contributions.
//!
//! SR and PM are purpose-built mean estimators; SW+EMS reconstructs the
//! whole distribution and *then* reads the moments off it. The paper's
//! Figure 4 finding is that the general-purpose SW+EMS is competitive with
//! the specialized mechanisms for the mean and better for the variance
//! (which costs SR/PM half their population).
//!
//! ```sh
//! cargo run --release --example mean_variance
//! ```

use sw_ldp::prelude::*;

fn main() {
    let epsilon = 1.0;
    let dataset = DatasetSpec {
        kind: DatasetKind::Retirement,
        n: 178_012, // the paper-scale population for this dataset
        seed: 23,
    }
    .generate();
    let d = 1024;
    let truth = dataset.histogram(d).expect("non-empty dataset");
    println!(
        "retirement workload: {} users, eps = {epsilon}",
        dataset.n()
    );
    println!(
        "true mean = {:.5}, true variance = {:.5}\n",
        truth.mean(),
        truth.variance()
    );

    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12}",
        "method", "mean", "|mean err|", "variance", "|var err|"
    );

    let mut rng = SplitMix64::new(29);
    for (name, mech) in [("SR", MeanMechanism::Sr), ("PM", MeanMechanism::Pm)] {
        let proto = MeanVariance::new(mech, epsilon).expect("valid epsilon");
        let mean = proto
            .estimate_mean(&dataset.values, &mut rng)
            .expect("mean estimation succeeds");
        let mv = proto
            .estimate(&dataset.values, &mut rng)
            .expect("variance estimation succeeds");
        println!(
            "{name:<8} {:>10.5} {:>10.5} {:>12.5} {:>12.5}",
            mean,
            (mean - truth.mean()).abs(),
            mv.variance,
            (mv.variance - truth.variance()).abs()
        );
    }

    let sw = SwMechanism::ems(epsilon, d).expect("valid parameters");
    let reports = Client::new(&sw)
        .randomize_batch(&dataset.values, &mut rng)
        .expect("values in [0, 1]");
    let est = sw.aggregate(&reports).expect("reconstruction succeeds");
    println!(
        "{:<8} {:>10.5} {:>10.5} {:>12.5} {:>12.5}",
        "SW-EMS",
        est.mean(),
        (est.mean() - truth.mean()).abs(),
        est.variance(),
        (est.variance() - truth.variance()).abs()
    );
    println!(
        "\n(SW-EMS additionally yields the full distribution: median {:.4}, P90 {:.4})",
        est.quantile(0.5),
        est.quantile(0.9)
    );
}
